import contextlib
import dataclasses
import json
import re

import numpy as np
import pytest

from fixquant import tensor_core as tc
from fixquant import toys
from fixquant.amp import (
    CandidatePair,
    _apply_candidate,
    bit_ops,
    build_pareto,
    choose_mixed_precision,
    find_layer_groups,
    fingerprint,
    sensitivity_analysis,
)
from fixquant.errors import CacheError, EncodingError, NumericError
from fixquant.graph_ir import MAC_KINDS, GraphModel, Node
from fixquant.ptq import fold_batch_norms
from fixquant.quantsim import SimConfig, compute_encodings, create_quantsim
from fixquant.range_setting import RangeScheme

CANDS = [(16, 16), (16, 8), (8, 16), (8, 8)]
CACHE_FILES = ("accuracy_list.json", "pareto_list.json", "sensitivity.csv", "pareto.csv")


def calibrated_sim(seed=0, width=6):
    model = toys.three_group_model(seed=seed, width=width)
    sim = create_quantsim(model)
    compute_encodings(sim, toys.random_feed((32, width), n_batches=2, seed=seed + 1))
    return sim


def make_eval(sim, width=6):
    """Deterministic accuracy proxy: closeness to the float forward pass.

    Evaluates strictly inside the calibrated range so the score reflects
    rounding precision, not clipping.
    """
    x = toys.random_feed((32, width), n_batches=2, seed=1)[0] * 0.8
    ref = sim.graph.forward(x)

    def ev(s):
        return -float(np.mean((s.forward(x) - ref) ** 2))

    return ev


def at_all_max(sim):
    """``sim`` with every group moved to the all-max candidate of CANDS."""
    for g in find_layer_groups(sim):
        _apply_candidate(sim, g, CandidatePair(16, 16))
    return sim


def at_entries(entries):
    """A fresh ``calibrated_sim`` at all-max with the moves of the pareto ``entries`` made."""
    sim = at_all_max(calibrated_sim())
    groups = {g.group_id: g for g in find_layer_groups(sim)}
    for e in entries:
        _apply_candidate(sim, groups[e["group"]], CandidatePair.of(e["candidate"]))
    return sim


def quantizer_state(sim):
    return {k: (q.enabled, q.bitwidth, q.encodings) for k, q in sim.all_quantizers().items()}


class Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return self.fn(s)


class TestCandidatePair:
    def test_of_accepts_tuples_lists_and_pairs(self):
        c = CandidatePair.of((16, 8))
        assert (c.activation_bw, c.param_bw) == (16, 8)
        assert CandidatePair.of([8, 4]).as_list() == [8, 4]
        assert CandidatePair.of(c) is c

    def test_bitwidth_bounds(self):
        CandidatePair(2, 32)
        with pytest.raises(EncodingError):
            CandidatePair(1, 8)
        with pytest.raises(EncodingError):
            CandidatePair(8, 33)

    @pytest.mark.parametrize("value", [(8.9, 8), (8, "8"), (True, 8), (8.0, 8)])
    def test_bitwidths_must_be_integers(self, value):
        with pytest.raises(EncodingError):
            CandidatePair.of(value)


class TestGrouping:
    def test_mlp_splits_into_three_groups(self):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        assert [g.group_id for g in groups] == ["act0+fc0", "act1+fc1", "fc2"]
        # the relu carries the fused activation quantizer, the linear its weight
        g0 = groups[0]
        assert g0.param_keys == ("fc0.weight",)
        assert g0.activation_keys == ("act0",)
        assert groups[2].activation_keys == ("fc2",)

    def test_add_unifies_incoming_branches(self):
        w = np.eye(3)
        b = np.zeros(3)
        nodes = [
            Node("in", "input"),
            Node("fc_a", "linear", inputs=["in"], weights={"weight": w, "bias": b}),
            Node("ra", "relu", inputs=["fc_a"]),
            Node("fc_b", "linear", inputs=["in"], weights={"weight": w, "bias": b}),
            Node("rb", "relu", inputs=["fc_b"]),
            Node("add", "add", inputs=["ra", "rb"]),
            Node("fc_c", "linear", inputs=["add"], weights={"weight": w, "bias": b}),
            Node("out", "output", inputs=["fc_c"]),
        ]
        sim = create_quantsim(GraphModel(nodes, name="branchy"))
        compute_encodings(sim, toys.random_feed((8, 3), n_batches=1))
        ids = [g.group_id for g in find_layer_groups(sim)]
        # both branches must switch bitwidth together or the add sees mixed grids
        assert "fc_a+fc_b+ra+rb" in ids
        assert "fc_c" in ids

    def test_a_merge_through_a_later_member_relabels_the_whole_group(self):
        w = np.eye(3)
        b = np.zeros(3)
        nodes = [Node("in", "input")]
        for br in "abc":
            nodes.append(Node(f"fc_{br}", "linear", inputs=["in"], weights={"weight": w, "bias": b}))
            nodes.append(Node(f"r{br}", "relu", inputs=[f"fc_{br}"]))
        nodes += [
            Node("add1", "add", inputs=["ra", "rb"]),
            # rb is not the first group's representative: all four members move
            Node("add2", "add", inputs=["rc", "rb"]),
            Node("cat", "concat", inputs=["add1", "add2"], attrs={"axis": 1}),
            Node("out", "output", inputs=["cat"]),
        ]
        sim = create_quantsim(GraphModel(nodes, name="three_branches"))
        compute_encodings(sim, toys.random_feed((8, 3), n_batches=1))
        ids = [g.group_id for g in find_layer_groups(sim)]
        assert "fc_a+fc_b+fc_c+ra+rb+rc" in ids
        assert not any(g != "fc_a+fc_b+fc_c+ra+rb+rc" and g.startswith("fc_") for g in ids)

    def test_avgpool_moves_with_its_producer(self):
        rng = np.random.default_rng(0)
        nodes = [
            Node("in", "input"),
            Node(
                "conv1",
                "conv2d",
                inputs=["in"],
                weights={"weight": rng.normal(size=(4, 3, 3, 3)), "bias": rng.normal(size=4)},
                attrs={"stride": 1, "padding": 1},
            ),
            Node("relu1", "relu", inputs=["conv1"]),
            Node("ap", "avgpool", inputs=["relu1"], attrs={"kernel": 2, "stride": 2}),
            Node("out", "output", inputs=["ap"]),
        ]
        sim = create_quantsim(GraphModel(nodes, name="poolish"))
        compute_encodings(sim, toys.random_feed((2, 3, 6, 6), n_batches=1))
        groups = {g.group_id: g for g in find_layer_groups(sim)}
        assert "ap+conv1+relu1" in groups
        assert "ap" in groups["ap+conv1+relu1"].activation_keys


class TestBitOps:
    def test_uniform_assignment_is_macs_times_product(self):
        sim = calibrated_sim(width=6)
        groups = find_layer_groups(sim)
        total_macs = 6 * 6 + 6 * 6 + 3 * 6
        assignment = {g.group_id: (8, 8) for g in groups}
        assert bit_ops(sim, assignment, groups) == total_macs * 64

    def test_lowering_one_group_saves_its_share(self):
        sim = calibrated_sim(width=6)
        groups = find_layer_groups(sim)
        hi = {g.group_id: (16, 16) for g in groups}
        lo = dict(hi)
        lo["fc2"] = (8, 8)
        saved = bit_ops(sim, hi, groups) - bit_ops(sim, lo, groups)
        assert saved == (3 * 6) * (256 - 64)

    def test_a_mac_layer_in_no_group_counts_at_32_bits(self):
        # no quantizer anywhere, so no group: each MAC runs at 32 x 32 bits
        config = SimConfig.from_dict(
            {
                "defaults": {"ops": {"is_output_quantized": False}, "params": {"is_quantized": False}},
                "model_output": {"is_output_quantized": False},
            }
        )
        sim = create_quantsim(toys.mlp([3, 4, 2], seed=0), config=config)
        assert sim.all_quantizers() == {} and find_layer_groups(sim) == []
        assert bit_ops(sim, {}) == bit_ops(sim, {}, []) == (3 * 4 + 4 * 2) * 32 * 32 == 20480

    @staticmethod
    def calibrated(name):
        """A calibrated toy sim and a batch of its calibration shape."""
        models = {
            "mlp": (lambda: toys.mlp([4, 8, 8, 3], seed=0), (8, 4)),
            "conv_bn_relu_conv": (lambda: fold_batch_norms(toys.conv_bn_relu_conv(seed=0)), (4, 3, 8, 8)),
            "depthwise_net": (lambda: toys.depthwise_net(seed=0), (8, 3, 6, 6)),
        }
        if name == "strided":
            return TestConvBitOps.strided_sim(), toys.random_feed((2, 3, 8, 8), n_batches=1)[0]
        model, shape = models[name]
        sim = create_quantsim(model())
        x = toys.random_feed(shape, n_batches=1, seed=3)[0]
        compute_encodings(sim, [x])
        return sim, x

    @pytest.mark.parametrize("name", ["mlp", "conv_bn_relu_conv", "depthwise_net", "strided"])
    def test_bit_ops_equal_an_independent_mac_count(self, name, monkeypatch):
        """Each conv and linear call of one forward at the calibration shape
        performs output elements per sample x weight fan-in MACs, each at
        its group's candidate bitwidths."""
        sim, x = self.calibrated(name)
        macs = []

        def counted(kernel):
            def run(inp, w, *args, **kwargs):
                y = kernel(inp, w, *args, **kwargs)
                macs.append(y.size // y.shape[0] * (w.size // w.shape[0]))
                return y

            return run

        with monkeypatch.context() as mp:
            mp.setattr(tc, "conv2d", counted(tc.conv2d))
            mp.setattr(tc, "linear", counted(tc.linear))
            sim.forward(x)
        mac_nodes = [nid for nid in list(sim.graph.nodes) if sim.graph.nodes[nid].kind in MAC_KINDS]
        assert len(macs) == len(mac_nodes) > 0
        groups = find_layer_groups(sim)
        group_of = {nid: g.group_id for g in groups for nid in g.node_ids}
        rng = np.random.default_rng(7)
        for _ in range(6):
            assignment = {g.group_id: CANDS[rng.integers(len(CANDS))] for g in groups}
            expected = sum(m * int(np.prod(assignment[group_of[nid]])) for m, nid in zip(macs, mac_nodes))
            assert bit_ops(sim, assignment, groups) == expected

    def test_a_model_without_mac_layers_has_no_moves(self, tmp_path):
        # the quantized input and the relu each form a group of no MACs, so
        # the all-max total is 0 and no move saves anything
        nodes = [Node("in", "input"), Node("relu", "relu", inputs=["in"]), Node("out", "output", inputs=["relu"])]
        config = SimConfig.from_dict({"model_input": {"is_input_quantized": True}})
        sim = create_quantsim(GraphModel(nodes, name="no-mac"), config=config)
        x = toys.random_feed((8, 3), n_batches=1)[0]
        compute_encodings(sim, [x])
        groups = find_layer_groups(sim)
        assert [g.group_id for g in groups] == ["in", "relu"]
        assert bit_ops(sim, {g.group_id: (16, 16) for g in groups}, groups) == 0
        ev = Counting(lambda s: -float(np.mean((s.forward(x) - x.clip(0)) ** 2)))
        _, entries = choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        assert entries == [] and ev.calls == 1 + 2 * 3 + 1


class TestSensitivity:
    def test_one_entry_per_group_and_nonmax_candidate(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        ev = Counting(make_eval(sim))
        baseline, entries = sensitivity_analysis(sim, groups, CANDS, ev, tmp_path)
        assert len(entries) == 3 * 3
        assert ev.calls == 9 + 1  # all-max baseline evaluated once, kept out of the list
        seen = {(e.group_id, (e.candidate.activation_bw, e.candidate.param_bw)) for e in entries}
        assert all(cand != (16, 16) for _, cand in seen)
        assert len(seen) == 9
        doc = json.loads((tmp_path / "accuracy_list.json").read_text())
        assert doc["baseline"] == baseline
        assert len(doc["entries"]) == 9

    def test_cached_rerun_performs_no_evaluations(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        ev = Counting(make_eval(sim))
        first = sensitivity_analysis(sim, groups, CANDS, ev, tmp_path)
        blob = (tmp_path / "accuracy_list.json").read_bytes()
        ev.calls = 0
        second = sensitivity_analysis(sim, groups, CANDS, ev, tmp_path)
        assert ev.calls == 0
        assert second == first
        assert (tmp_path / "accuracy_list.json").read_bytes() == blob

    def test_changing_candidates_rejects_the_stale_cache(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        ev = Counting(make_eval(sim))
        sensitivity_analysis(sim, groups, CANDS, ev, tmp_path)
        with pytest.raises(CacheError):
            sensitivity_analysis(sim, groups, [(16, 16), (4, 4)], ev, tmp_path)

    def test_interrupted_run_resumes_from_cache(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        base = make_eval(sim)

        boom = Counting(base)
        real_call = boom.__call__

        def flaky(s):
            if boom.calls >= 4:
                raise RuntimeError("simulated crash")
            return real_call(s)

        with pytest.raises(RuntimeError):
            sensitivity_analysis(sim, groups, CANDS, flaky, tmp_path)
        doc = json.loads((tmp_path / "accuracy_list.json").read_text())
        n_cached = len(doc["entries"])
        assert doc["baseline"] is not None
        assert 0 < n_cached < 9

        ev = Counting(base)
        _, entries = sensitivity_analysis(sim, groups, CANDS, ev, tmp_path)
        assert ev.calls == 9 - n_cached
        assert len(entries) == 9

    def test_csv_mirror(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        sensitivity_analysis(sim, groups, CANDS, make_eval(sim), tmp_path)
        lines = (tmp_path / "sensitivity.csv").read_text().strip().splitlines()
        assert lines[0] == "group,candidate,metric"
        assert len(lines) == 1 + 9
        assert any(",16x8," in ln for ln in lines[1:])

    def test_empty_candidates_rejected(self, tmp_path):
        sim = calibrated_sim()
        with pytest.raises(EncodingError):
            sensitivity_analysis(sim, find_layer_groups(sim), [], make_eval(sim), tmp_path)

    def test_repeated_candidate_rejected_before_any_evaluation(self, tmp_path):
        sim = calibrated_sim()
        ev = Counting(make_eval(sim))
        with pytest.raises(EncodingError, match="8,8 is listed twice"):
            sensitivity_analysis(sim, find_layer_groups(sim), [(16, 16), (8, 8), [8, 8]], ev, tmp_path / "o")
        assert ev.calls == 0
        assert not (tmp_path / "o").exists()

    def test_other_weights_reject_the_stale_cache(self, tmp_path):
        sim = calibrated_sim(seed=0)
        sensitivity_analysis(sim, find_layer_groups(sim), CANDS, make_eval(sim), tmp_path)
        other = calibrated_sim(seed=1)  # same graph, default bitwidths and scheme; other weights
        with pytest.raises(CacheError):
            sensitivity_analysis(other, find_layer_groups(other), CANDS, make_eval(other), tmp_path)


class TestChooseMixedPrecision:
    def test_full_descent_with_generous_budget(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        out, entries = choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        assert out is sim
        rels = [e.relative_bit_ops for e in entries]
        assert all(b < a for a, b in zip(rels, rels[1:]))
        # nothing blocks the search, so every group lands on the cheapest pair
        assert rels[-1] == pytest.approx(64 / 256)
        for key in ("fc0.weight", "fc1.weight", "fc2.weight"):
            assert sim.param_quantizers[key].bitwidth == 8
        for nid in ("act0", "act1", "fc2"):
            assert sim.activation_quantizers[nid].bitwidth == 8

    def test_zero_budget_keeps_all_max(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        # any real quantization error violates a zero allowed drop
        _, entries = choose_mixed_precision(sim, CANDS, ev, ev, 0.0, tmp_path)
        assert entries == []
        for key in ("fc0.weight", "fc1.weight", "fc2.weight"):
            assert sim.param_quantizers[key].bitwidth == 16

    def test_violation_reverts_the_failing_move(self, tmp_path):
        sim = calibrated_sim()
        p1 = make_eval(sim)

        calls = {"n": 0}

        def p2(s):
            calls["n"] += 1
            return 1.0 if calls["n"] <= 3 else 0.0

        _, entries = choose_mixed_precision(sim, [(16, 16), (8, 8)], p1, p2, 0.5, tmp_path)
        # baseline plus two passing moves; the third move fails and is undone
        assert len(entries) == 2
        bws = sorted(sim.param_quantizers[k].bitwidth for k in ("fc0.weight", "fc1.weight", "fc2.weight"))
        assert bws == [8, 8, 16]

    @staticmethod
    def stopped_search(tmp_path, cands):
        """A search whose third phase-2 move scores 0.0 and violates the allowed drop of 0.5."""
        sim = calibrated_sim()
        calls = {"n": 0}

        def p2(s):
            calls["n"] += 1
            return 1.0 if calls["n"] <= 3 else 0.0

        return choose_mixed_precision(sim, cands, make_eval(sim), p2, 0.5, tmp_path)

    def test_resume_after_a_violation_evaluates_nothing(self, tmp_path):
        cands = [(16, 16), (8, 8)]
        sim, first = self.stopped_search(tmp_path, cands)
        doc = json.loads((tmp_path / "pareto_list.json").read_text())
        assert doc["rejected"]["accuracy"] == 0.0
        assert [doc["rejected"]["group"], doc["rejected"]["candidate"]] not in [
            [e["group"], e["candidate"]] for e in doc["entries"]
        ]
        blob = (tmp_path / "pareto_list.json").read_bytes()

        sim2 = calibrated_sim()
        p1, p2 = Counting(make_eval(sim2)), Counting(lambda s: 1.0)
        _, second = choose_mixed_precision(sim2, cands, p1, p2, 0.5, tmp_path, clean_start=False)
        assert (p1.calls, p2.calls) == (0, 0)
        assert second == first
        assert (tmp_path / "pareto_list.json").read_bytes() == blob
        for key, spec in sim.param_quantizers.items():
            assert sim2.param_quantizers[key].bitwidth == spec.bitwidth

    def test_looser_resume_takes_the_recorded_move_without_evaluating_it(self, tmp_path):
        _, first = self.stopped_search(tmp_path, CANDS)
        rejected = json.loads((tmp_path / "pareto_list.json").read_text())["rejected"]

        sim2 = calibrated_sim()
        p2 = Counting(lambda s: 0.5)
        _, second = choose_mixed_precision(sim2, CANDS, make_eval(sim2), p2, 2.0, tmp_path, clean_start=False)
        assert second[: len(first)] == first
        moved = second[len(first)]
        assert [moved.group_id, moved.candidate.as_list(), moved.accuracy] == [
            rejected["group"], rejected["candidate"], 0.0
        ]
        # every later move is evaluated; nothing stops this search any more
        assert p2.calls == len(second) - len(first) - 1 > 0
        assert "rejected" not in json.loads((tmp_path / "pareto_list.json").read_text())

    def test_cached_rerun_skips_all_evaluations(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        _, first = choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        pareto_blob = (tmp_path / "pareto_list.json").read_bytes()

        sim2 = calibrated_sim()
        p1 = Counting(ev)
        p2 = Counting(ev)
        _, second = choose_mixed_precision(sim2, CANDS, p1, p2, 10.0, tmp_path, clean_start=False)
        assert p1.calls == 0
        assert p2.calls == 0
        assert second == first
        assert (tmp_path / "pareto_list.json").read_bytes() == pareto_blob
        assert sim2.param_quantizers["fc0.weight"].bitwidth == 8

    def test_cached_rerun_reads_each_cache_once(self, tmp_path, monkeypatch):
        from fixquant import amp

        sim = calibrated_sim()
        ev = make_eval(sim)
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        read, real = [], amp.read_json

        def counted(path, *args):
            read.append(path.name)
            return real(path, *args)

        monkeypatch.setattr(amp, "read_json", counted)
        choose_mixed_precision(calibrated_sim(), CANDS, ev, ev, 10.0, tmp_path, clean_start=False)
        assert read == ["accuracy_list.json", "pareto_list.json"]

    def test_tighter_budget_replays_a_prefix_without_touching_the_cache(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        _, entries = choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        blob = (tmp_path / "pareto_list.json").read_bytes()
        baseline = json.loads(blob)["baseline"]
        # pick a drop that admits some cached moves but not all of them
        drops = sorted(baseline - e.accuracy for e in entries)
        assert drops[-1] > 0
        cutoff = (drops[-1] + drops[-2]) / 2 if len(drops) > 1 else drops[-1] / 2

        sim2 = calibrated_sim()
        _, replayed = choose_mixed_precision(
            sim2, CANDS, ev, ev, cutoff, tmp_path, clean_start=False
        )
        assert (tmp_path / "pareto_list.json").read_bytes() == blob
        assert len(replayed) == len(entries)  # the file still holds the full front

    def test_missing_cache_with_clean_start_false(self, tmp_path):
        sim = calibrated_sim()
        ev = Counting(make_eval(sim))
        with pytest.raises(CacheError):
            choose_mixed_precision(sim, CANDS, ev, ev, 1.0, tmp_path, clean_start=False)
        assert ev.calls == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("drop, n_evals", [(10.0, 17), (1e-5, 15)])
    def test_a_run_interrupted_at_any_evaluation_resumes_to_the_same_files(self, tmp_path, drop, n_evals):
        """The evaluation after the first k raises; a resume then completes
        the search with the remaining evaluations and writes what an
        uninterrupted run writes. With k = 0 nothing is cached to resume."""

        def run(out, budget=None, clean_start=True):
            sim = calibrated_sim()
            ev = Counting(make_eval(sim))

            def interrupted(s):
                if ev.calls == budget:
                    raise KeyboardInterrupt
                return ev(s)

            with contextlib.suppress(KeyboardInterrupt):
                choose_mixed_precision(sim, CANDS, interrupted, interrupted, drop, out, clean_start=clean_start)
            return ev.calls

        assert run(tmp_path / "whole") == n_evals
        expected = {n: (tmp_path / "whole" / n).read_bytes() for n in CACHE_FILES}
        assert run(tmp_path / "0", budget=0) == 0
        with pytest.raises(CacheError):
            run(tmp_path / "0", clean_start=False)
        assert list((tmp_path / "0").iterdir()) == []
        for k in range(1, n_evals + 1):
            out = tmp_path / str(k)
            assert run(out, budget=k) + run(out, clean_start=False) == n_evals, k
            assert {n: (out / n).read_bytes() for n in CACHE_FILES} == expected, k

    def test_a_reordered_pareto_cache_is_cache_error(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        path = tmp_path / "pareto_list.json"
        doc = json.loads(path.read_text())
        first, second = doc["entries"][:2]
        assert [first["group"], first["candidate"]] != [second["group"], second["candidate"]]
        doc["entries"][:2] = [second, first]
        path.write_text(json.dumps(doc))
        blob = path.read_bytes()
        p2 = Counting(ev)
        with pytest.raises(CacheError):
            choose_mixed_precision(calibrated_sim(), CANDS, ev, p2, 10.0, tmp_path, clean_start=False)
        assert p2.calls == 0
        assert path.read_bytes() == blob

    def test_candidate_change_rejects_stale_pareto_cache(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        sim2 = calibrated_sim()
        with pytest.raises(CacheError):
            choose_mixed_precision(
                sim2, [(16, 16), (4, 4)], ev, ev, 10.0, tmp_path, clean_start=False
            )

    def test_clean_start_wipes_previous_results(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        first = json.loads((tmp_path / "accuracy_list.json").read_text())

        sim2 = calibrated_sim()
        shifted = Counting(lambda s: ev(s) + 1.0)
        choose_mixed_precision(sim2, CANDS, shifted, shifted, 10.0, tmp_path, clean_start=True)
        assert shifted.calls > 0
        second = json.loads((tmp_path / "accuracy_list.json").read_text())
        assert second["baseline"] == pytest.approx(first["baseline"] + 1.0)

    def test_input_validation(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        with pytest.raises(EncodingError):
            choose_mixed_precision(sim, [], ev, ev, 1.0, tmp_path)
        with pytest.raises(EncodingError):
            choose_mixed_precision(sim, CANDS, ev, ev, -0.1, tmp_path)

    def test_pareto_csv_mirror(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        _, entries = choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        lines = (tmp_path / "pareto.csv").read_text().strip().splitlines()
        assert lines[0] == "index,group,candidate,relative_bit_ops,accuracy"
        assert len(lines) == 1 + len(entries)
        assert lines[1].startswith("0,")


class TestBuildParetoDirect:
    def test_handmade_accuracy_list_without_cache(self, tmp_path):
        # all-max equals the sim's current 8-bit state, so no setup pass needed
        from fixquant.amp import AccuracyEntry

        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        cands = [(8, 8), (8, 4)]
        acc = [AccuracyEntry(g.group_id, CandidatePair(8, 4), 0.9) for g in groups]
        ev = make_eval(sim)
        entries = build_pareto(sim, groups, cands, acc, 0.9, ev, 10.0, tmp_path)
        assert [e.candidate.as_list() for e in entries] == [[8, 4]] * 3

    def test_missing_phase1_entry_raises(self, tmp_path):
        from fixquant.amp import AccuracyEntry

        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        acc = [AccuracyEntry(groups[0].group_id, CandidatePair(8, 4), 0.9)]
        with pytest.raises(CacheError):
            build_pareto(sim, groups, [(8, 8), (8, 4)], acc, 0.9, make_eval(sim), 10.0, tmp_path)

    @pytest.mark.parametrize(
        "name, mutate",
        [
            ("accuracy_list.json", lambda doc: doc.update(baseline=None)),
            ("pareto_list.json", lambda doc: doc.update(baseline=float("nan"))),
            ("accuracy_list.json", lambda doc: doc["entries"][0].update(candidate=[8, 64])),
            ("accuracy_list.json", lambda doc: doc["entries"][0].update(candidate=[8, 4.5])),
            ("accuracy_list.json", lambda doc: doc["entries"][0].update(candidate=[8, 4, 4])),
            ("accuracy_list.json", lambda doc: doc["entries"].append(3)),
            ("pareto_list.json", lambda doc: doc.update(entries={})),
            ("pareto_list.json", lambda doc: doc["entries"][0].update(group="nowhere")),
            ("pareto_list.json", lambda doc: doc["entries"][0].pop("relative_bit_ops")),
            ("pareto_list.json", lambda doc: doc.update(rejected=[1])),
        ],
        ids=["null-baseline", "nan-baseline", "candidate-range", "candidate-float", "candidate-triple", "entry-int", "entries-object", "unknown-group",
             "no-bit-ops", "rejected-list"],
    )
    def test_malformed_cache_field_is_cache_error(self, tmp_path, name, mutate):
        sim = calibrated_sim()
        ev = make_eval(sim)
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        mutate(doc)
        (tmp_path / name).write_text(json.dumps(doc))
        with pytest.raises(CacheError):
            choose_mixed_precision(calibrated_sim(), CANDS, ev, ev, 10.0, tmp_path, clean_start=False)

    def test_empty_accuracy_list_raises(self, tmp_path):
        sim = calibrated_sim()
        groups = find_layer_groups(sim)
        with pytest.raises(CacheError):
            build_pareto(sim, groups, [(8, 8), (8, 4)], [], 0.9, make_eval(sim), 10.0, tmp_path)


class TestConvBitOps:
    """MACs of a conv are weight elements times its output H x W."""

    @staticmethod
    def strided_sim():
        # conv1 keeps 8x8, conv2 halves it to 4x4: conv1 has fewer weights
        # (216 vs 576) but more MACs (216*64 = 13,824 vs 576*16 = 9,216)
        rng = np.random.default_rng(0)
        nodes = [
            Node("in", "input"),
            Node(
                "conv1",
                "conv2d",
                inputs=["in"],
                weights={"weight": rng.normal(size=(8, 3, 3, 3)), "bias": rng.normal(size=8)},
                attrs={"stride": 1, "padding": 1},
            ),
            Node("relu1", "relu", inputs=["conv1"]),
            Node(
                "conv2",
                "conv2d",
                inputs=["relu1"],
                weights={"weight": rng.normal(size=(8, 8, 3, 3)), "bias": rng.normal(size=8)},
                attrs={"stride": 2, "padding": 1},
            ),
            Node("out", "output", inputs=["conv2"]),
        ]
        sim = create_quantsim(GraphModel(nodes, name="strided"))
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=1))
        return sim

    def test_bit_ops_count_output_positions(self):
        sim = self.strided_sim()
        groups = find_layer_groups(sim)
        assert sim.mac_spatial == {"conv1": 64, "conv2": 16}
        assignment = {g.group_id: (8, 4) for g in groups}
        assert bit_ops(sim, assignment, groups) == (216 * 64 + 576 * 16) * 32

    def test_first_pareto_move_lowers_the_most_macs(self, tmp_path):
        from fixquant.amp import AccuracyEntry

        sim = self.strided_sim()
        groups = find_layer_groups(sim)
        by_node = {nid: g.group_id for g in groups for nid in g.node_ids}
        cands = [(8, 8), (8, 4)]
        # equal phase-1 drops, so the move saving the most bit-ops goes first
        acc = [AccuracyEntry(g.group_id, CandidatePair(8, 4), 0.9) for g in groups]
        x = toys.random_feed((2, 3, 8, 8), n_batches=1)[0]
        entries = build_pareto(sim, groups, cands, acc, 1.0, lambda s: -float(np.mean(s.forward(x) ** 2)), 1e9, tmp_path)
        assert entries[0].group_id == by_node["conv1"]
        assert entries[0].relative_bit_ops == pytest.approx(1 - 216 * 64 / (2 * (216 * 64 + 576 * 16)))


class TestResumedEvaluations:
    """Inside the search each evaluation resumes from the previous one."""

    @staticmethod
    def depthwise_search(out, outputs, conv2d):
        """The files of the search, with ``conv2d`` as tc.conv2d during it."""
        model = toys.depthwise_net(seed=0)
        sim = create_quantsim(model)
        compute_encodings(sim, toys.random_feed((8, 3, 6, 6), n_batches=2, seed=5))
        x = toys.random_feed((8, 3, 6, 6), n_batches=1, seed=6)[0]
        ref = model.forward(x)

        def score(s):
            return -float(np.mean((outputs(s, x) - ref) ** 2))

        # at 1e-4 the descent takes conv1+relu1 -> 8x16 and dw+relu2 -> 16x8,
        # then stops at conv1+relu1 -> 8x8
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tc, "conv2d", conv2d)
            choose_mixed_precision(sim, CANDS, score, score, 1e-4, out)
        return {name: (out / name).read_bytes() for name in CACHE_FILES}

    def test_resumed_search_writes_the_files_of_full_passes(self, tmp_path):
        calls = {}
        real = tc.conv2d

        def counted(x, w, *args, **kwargs):
            node = {(4, 3, 3, 3): "conv1", (4, 1, 3, 3): "dw", (4, 4, 1, 1): "conv2"}[w.shape]
            calls[node] = calls.get(node, 0) + 1
            return real(x, w, *args, **kwargs)

        resumed = self.depthwise_search(tmp_path / "a", lambda s, x: s.forward(x), counted)
        # 14 evaluations: the phase-1 baseline, 3 groups x 3 candidates, the
        # phase-2 baseline and 3 moves. A node runs when its input, weight
        # quantizer or output quantizer differs from the previous evaluation's.
        # conv1 (its output quantizer sits on relu1, so a8/w16 leaves it as
        #   it was): phase-1 baseline 1, its own group 3, back to 16 bits for
        #   conv2's first candidate 1, the rejected 8x8 move 1 = 6
        # dw: phase-1 baseline 1, after each of conv1's group 3 and conv2's
        #   first 1, its own group 3, the phase-2 baseline and the 3 moves 4 = 12
        # conv2, the last layer, runs in all 14
        assert calls == {"conv1": 6, "dw": 12, "conv2": 14}
        calls.clear()
        full = self.depthwise_search(
            tmp_path / "b", lambda s, x: s.graph.outputs(s.evaluate_all(x)), counted
        )
        assert calls == {"conv1": 14, "dw": 14, "conv2": 14}
        assert resumed == full

    def test_leaving_the_search_empties_the_slot_and_ends_reuse(self, tmp_path, monkeypatch):
        from fixquant import graph_ir

        sim = calibrated_sim()
        ev = make_eval(sim)
        seen = {1: [], 2: []}

        def record(phase):
            return lambda s: seen[phase].append(s) or ev(s)

        choose_mixed_precision(sim, CANDS, record(1), record(2), 10.0, tmp_path)
        # both phases hand their callbacks the search's own sim
        assert len(seen[1]) == 1 + 3 * 3 and len(seen[2]) > 1
        assert all(s is sim for s in seen[1] + seen[2])
        assert sim._resume is None
        calls = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda *a: calls.append(1) or real(*a))
        x = np.ones((2, 6))
        sim.forward(x)
        sim.forward(x)
        non_input = sum(n.kind != "input" for n in sim.graph.nodes.values())
        assert len(calls) == 2 * non_input

    def test_the_search_makes_no_clone(self, tmp_path, monkeypatch):
        from fixquant.quantsim import QuantSimModel

        sim = calibrated_sim()
        ev = Counting(make_eval(sim))
        clones = []
        real = QuantSimModel.clone
        monkeypatch.setattr(QuantSimModel, "clone", lambda s: clones.append(s) or real(s))
        choose_mixed_precision(sim, CANDS, ev, ev, 10.0, tmp_path)
        assert ev.calls > 1 + 3 * 3 and clones == []

    def test_a_raising_phase1_callback_leaves_the_all_max_state(self, tmp_path):
        sim = calibrated_sim()
        ev = Counting(make_eval(sim))

        def fourth_raises(s):
            if ev.calls == 3:
                raise RuntimeError("simulated crash")
            return ev(s)

        with pytest.raises(RuntimeError):
            choose_mixed_precision(sim, CANDS, fourth_raises, ev, 10.0, tmp_path)
        assert ev.calls == 3 and sim._resume is None
        assert quantizer_state(sim) == quantizer_state(at_all_max(calibrated_sim())) != quantizer_state(calibrated_sim())

    def test_a_raising_phase2_callback_leaves_the_last_cached_entry(self, tmp_path):
        sim = calibrated_sim()
        ev = make_eval(sim)
        calls, written = [], []

        def third_raises(s):
            calls.append(1)
            if len(calls) == 3:  # the baseline, one accepted move, then this one
                written.append((tmp_path / "pareto_list.json").read_bytes())
                raise RuntimeError("simulated crash")
            return ev(s)

        with pytest.raises(RuntimeError):
            choose_mixed_precision(sim, CANDS, ev, third_raises, 10.0, tmp_path)
        assert (tmp_path / "pareto_list.json").read_bytes() == written[0]
        entries = json.loads(written[0])["entries"]
        assert [(e["group"], e["candidate"]) for e in entries] == [("act1+fc1", [16, 8])]
        # the raising move had put fc2.weight at 8 bits
        assert sim.param_quantizers["fc2.weight"].bitwidth == 16
        assert quantizer_state(sim) == quantizer_state(at_entries(entries))


class TestNonFiniteScores:
    """A non-finite score is a NumericError before any cache holds it."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "phase, call, what",
        [
            (1, 0, re.escape("phase-1 baseline")),
            (1, 4, re.escape("group act1+fc1 at [16, 8]")),
            (2, 0, re.escape("phase-2 baseline")),
            (2, 2, r"group \S+ at \[\d+, \d+\]"),
        ],
        ids=["phase1-baseline", "phase1-move", "phase2-baseline", "phase2-move"],
    )
    def test_no_cache_holds_it_and_a_resume_completes_the_search(self, tmp_path, bad, phase, call, what):
        sim = calibrated_sim()
        ev = make_eval(sim)
        calls = {1: 0, 2: 0}

        def scorer(p):
            def score(s):
                calls[p] += 1
                return bad if p == phase and calls[p] == call + 1 else ev(s)

            return score

        with pytest.raises(NumericError, match=what):
            choose_mixed_precision(sim, CANDS, scorer(1), scorer(2), 10.0, tmp_path / "run")
        written = [p.read_text() for p in (tmp_path / "run").glob("*.json")]
        assert not any(word in text for text in written for word in ("NaN", "Infinity"))
        if phase == 1:
            assert quantizer_state(sim) == quantizer_state(at_all_max(calibrated_sim()))
        elif call:  # the scored move goes back, to the last cached entry
            entries = json.loads((tmp_path / "run" / "pareto_list.json").read_text())["entries"]
            assert quantizer_state(sim) == quantizer_state(at_entries(entries))
        if (phase, call) == (1, 0):
            assert written == []
            return
        choose_mixed_precision(calibrated_sim(), CANDS, ev, ev, 10.0, tmp_path / "run", clean_start=False)
        choose_mixed_precision(calibrated_sim(), CANDS, ev, ev, 10.0, tmp_path / "whole")
        for name in CACHE_FILES:
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


class TestFingerprint:
    """The fingerprint of a sim at all-max: what ties an AMP cache to it."""

    @staticmethod
    def conv_sim(model=None):
        model = model if model is not None else fold_batch_norms(toys.conv_bn_relu_conv(seed=0))
        sim = create_quantsim(model)
        compute_encodings(sim, toys.random_feed((4, 3, 8, 8), n_batches=1, seed=2))
        return at_all_max(sim)

    @staticmethod
    def nudge(sim, key):
        """One quantizer's first encoding with its scale one float32 ulp up."""
        spec = sim.all_quantizers()[key]
        e = spec.encodings[0]
        spec.encodings[0] = dataclasses.replace(e, scale=float(np.nextafter(np.float32(e.scale), np.float32(np.inf))))

    @staticmethod
    def flip_byte(sim, nid, name):
        sim.graph.nodes[nid].weights[name].reshape(-1).view(np.uint8)[3] ^= 1

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: TestFingerprint.flip_byte(s, "conv1", "weight"),
            lambda s: TestFingerprint.flip_byte(s, "conv2", "bias"),  # not quantized
            lambda s: s.graph.nodes["conv2"].attrs.update(padding=0),
            lambda s: s.graph.nodes["conv1"].attrs["folded_bn"]["gamma"].__setitem__(0, 0.5),
            lambda s: TestFingerprint.nudge(s, "conv1.weight"),
            lambda s: TestFingerprint.nudge(s, "conv2"),
            lambda s: s.__setattr__("scheme", RangeScheme(kind="sqnr")),
            lambda s: s.__setattr__("scheme", RangeScheme(per_channel=True)),
        ],
        ids=["weight-byte", "bias-byte", "attrs", "folded-bn", "weight-encoding", "output-encoding", "scheme-kind",
             "scheme-per-channel"],
    )
    def test_a_change_to_the_sim_changes_it(self, change):
        sim = self.conv_sim()
        before = fingerprint(sim, CANDS)
        change(sim)
        assert fingerprint(sim, CANDS) != before

    def test_another_candidate_list_changes_it(self):
        sim = self.conv_sim()
        assert fingerprint(sim, CANDS) != fingerprint(sim, CANDS[:3]) != fingerprint(sim, CANDS[::-1])

    def test_a_renamed_node_changes_it(self):
        model = fold_batch_norms(toys.conv_bn_relu_conv(seed=0))
        renamed = GraphModel(
            [
                dataclasses.replace(n, id="act1" if n.id == "relu1" else n.id,
                                    inputs=["act1" if i == "relu1" else i for i in n.inputs])
                for n in model.nodes.values()
            ],
            name=model.name,
        )
        assert fingerprint(self.conv_sim(renamed), CANDS) != fingerprint(self.conv_sim(model), CANDS)

    def test_a_rewired_input_changes_it(self):
        """Two identical branches have the same value keys, so only the
        input ids tell which one feeds which input of their add."""
        rng = np.random.default_rng(0)
        w = {"weight": rng.normal(size=(4, 4)), "bias": rng.normal(size=4)}

        def model(add_inputs):
            return GraphModel([
                Node("in", "input"),
                Node("a", "linear", ["in"], weights=w),
                Node("b", "linear", ["in"], weights={k: v.copy() for k, v in w.items()}),
                Node("c", "relu", ["a"]),
                Node("sum", "add", add_inputs),
                Node("out", "output", ["sum"]),
            ])

        def sim(m):
            s = create_quantsim(m)
            compute_encodings(s, toys.random_feed((8, 4), n_batches=1, seed=3))
            return at_all_max(s)

        assert fingerprint(sim(model(["c", "b"])), CANDS) != fingerprint(sim(model(["b", "c"])), CANDS)

    def test_equal_sims_share_it(self, tmp_path):
        sim = self.conv_sim()
        fp = fingerprint(sim, CANDS)
        assert fingerprint(self.conv_sim(), CANDS) == fp  # a fresh calibrated sim
        assert fingerprint(sim.clone(), CANDS) == fp
        x = toys.random_feed((4, 3, 8, 8), n_batches=1, seed=4)[0]
        sensitivity_analysis(sim, find_layer_groups(sim), CANDS, lambda s: -float(np.abs(s.forward(x)).sum()), tmp_path)
        assert fingerprint(sim, CANDS) == fp  # phase 1 restored all-max
        assert json.loads((tmp_path / "accuracy_list.json").read_text())["fingerprint"] == fp

    def test_a_stale_cache_raises_before_any_evaluation_and_leaves_all_max(self, tmp_path):
        sim = calibrated_sim()
        sensitivity_analysis(sim, find_layer_groups(sim), CANDS, make_eval(sim), tmp_path)
        blob = (tmp_path / "accuracy_list.json").read_bytes()
        other = calibrated_sim(seed=1)
        ev = Counting(make_eval(other))
        with pytest.raises(CacheError, match="different model, calibration or candidate set"):
            sensitivity_analysis(other, find_layer_groups(other), CANDS, ev, tmp_path)
        assert ev.calls == 0 and (tmp_path / "accuracy_list.json").read_bytes() == blob
        assert quantizer_state(other) == quantizer_state(at_all_max(calibrated_sim(seed=1)))
