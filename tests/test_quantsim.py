import copy
import dataclasses
import json

import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from fixquant import graph_ir, quantsim, toys
from fixquant.errors import CalibrationError, EncodingError, ModelFormatError
from fixquant.graph_ir import GraphModel, Node
from fixquant.ptq import fold_batch_norms
from fixquant.quantsim import (
    DEFAULT_CONFIG_DICT,
    EVERY_TENSOR_CONFIG_DICT,
    SimConfig,
    compute_activation_encodings,
    compute_encodings,
    compute_param_encodings,
    create_quantsim,
    encodings_to_dict,
    export,
    import_encodings,
)
from fixquant.range_setting import RangeScheme


def pool_graph():
    """conv -> relu -> maxpool -> avgpool -> linear, exercises pooling rules."""
    rng = np.random.default_rng(0)
    return GraphModel(
        [
            Node("in", "input"),
            Node(
                "conv",
                "conv2d",
                ["in"],
                attrs={"stride": 1, "padding": 1},
                weights={"weight": rng.normal(size=(4, 3, 3, 3)) * 0.3, "bias": rng.normal(size=4) * 0.1},
            ),
            Node("act", "relu", ["conv"]),
            Node("mp", "maxpool", ["act"], attrs={"kernel": 2, "stride": 2}),
            Node("ap", "avgpool", ["mp"], attrs={"kernel": 2, "stride": 2}),
            Node(
                "fc",
                "linear",
                ["ap"],
                weights={"weight": rng.normal(size=(2, 4 * 2 * 2)) * 0.2, "bias": np.zeros(2)},
            ),
            Node("out", "output", ["fc"]),
        ]
    )


def calibrated_mlp(seed=0, **kw):
    model = toys.mlp([4, 8, 3], seed=seed)
    sim = create_quantsim(model, **kw)
    compute_encodings(sim, toys.random_feed((16, 4), n_batches=3, seed=seed + 1))
    return model, sim


class TestSimConfig:
    def test_bias_not_quantized_by_default(self):
        cfg = SimConfig.default()
        assert not cfg.resolve_param("linear", "bias")["is_quantized"]
        assert cfg.resolve_param("linear", "weight")["is_quantized"]

    def test_weights_symmetric_outputs_asymmetric_by_default(self):
        cfg = SimConfig.default()
        assert cfg.resolve_param("conv2d", "weight")["is_symmetric"]
        assert not cfg.resolve_output("conv2d")["is_symmetric"]

    def test_op_type_overrides_defaults(self):
        cfg = SimConfig.from_dict({"op_type": {"relu": {"is_output_quantized": False}}})
        assert not cfg.resolve_output("relu")["is_output_quantized"]
        assert cfg.resolve_output("linear")["is_output_quantized"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ModelFormatError):
            SimConfig.from_dict({"quantizers": {}})

    def test_default_dict_passes_its_own_checks(self):
        assert SimConfig.from_dict(DEFAULT_CONFIG_DICT) == SimConfig.default()

    @pytest.mark.parametrize(
        "doc, where",
        [
            ([{"a": 1}], "must be an object"),
            ({"defaults": "x"}, "'defaults'"),
            ({"defaults": {"ops": {"is_symmetric": 1}}}, "defaults.ops: field 'is_symmetric'"),
            ({"params": {"bias": True}}, "params: field 'bias'"),
            ({"op_type": {"conv2d": {"params": {"weight": []}}}}, "op_type.conv2d.params: field 'weight'"),
            ({"supergroups": [1]}, "'supergroups'"),
            ({"supergroups": [["conv2d", 2]]}, "'supergroups'"),
            ({"model_input": {"is_input_quantized": None}}, "model_input: field"),
        ],
    )
    def test_every_field_is_type_checked(self, doc, where):
        with pytest.raises(ModelFormatError, match=where):
            SimConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"defaults": {"params": {"is_symetric": False}}}, "defaults.params: unknown field 'is_symetric'"),
            ({"defaults": {"ops": {"is_quantized": False}}}, "defaults.ops: unknown field 'is_quantized'"),
            ({"defaults": {"op": {}}}, "defaults: unknown field 'op'"),
            ({"params": {"weigth": {"is_quantized": False}}}, "params: unknown field 'weigth'"),
            ({"params": {"bias": {"is_output_quantized": True}}}, "params.bias: unknown field 'is_output_quantized'"),
            ({"op_type": {"Conv2d": {"is_output_quantized": False}}}, "op_type: unknown field 'Conv2d'"),
            ({"op_type": {"relu": {"is_quantized": False}}}, "op_type.relu: unknown field 'is_quantized'"),
            ({"op_type": {"conv2d": {"params": {"kernel": {}}}}}, "op_type.conv2d.params: unknown field 'kernel'"),
            # each kind's rule holds only what that kind has
            ({"op_type": {"maxpool": {"is_output_quantized": True}}}, "op_type: unknown field 'maxpool'"),
            ({"op_type": {"input": {"is_output_quantized": True}}}, "op_type: unknown field 'input'"),
            ({"op_type": {"output": {"is_symmetric": True}}}, "op_type: unknown field 'output'"),
            ({"op_type": {"relu": {"params": {"weight": {}}}}}, "op_type.relu.params: unknown field 'weight'"),
            ({"op_type": {"conv2d": {"params": {"gamma": {}}}}}, "op_type.conv2d.params: unknown field 'gamma'"),
            ({"op_type": {"batchnorm": {"params": {"weight": {}}}}}, "op_type.batchnorm.params: unknown field 'weight'"),
            ({"supergroups": [["conv2d"]]}, "field 'supergroups'"),
            ({"supergroups": [["conv2d", "Relu"]]}, "field 'supergroups'"),
            ({"model_input": {"is_output_quantized": True}}, "model_input: unknown field 'is_output_quantized'"),
            ({"model_output": {"is_input_quantized": True}}, "model_output: unknown field 'is_input_quantized'"),
        ],
    )
    def test_every_name_is_one_that_something_reads(self, doc, where):
        with pytest.raises(ModelFormatError, match=where):
            SimConfig.from_dict(doc)

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model_input": {"is_input_quantized": True}}))
        assert SimConfig.from_file(p).model_input["is_input_quantized"]


class TestPlacement:
    def test_default_mlp_quantizers(self):
        model = toys.mlp([4, 8, 3], seed=0)
        sim = create_quantsim(model)
        # one weight quantizer per linear layer, bias skipped
        assert sorted(sim.param_quantizers) == ["fc0.weight", "fc1.weight"]
        # relu follows each linear, so the linear outputs are supergroup-internal
        assert "fc0" not in sim.activation_quantizers
        assert "act0" in sim.activation_quantizers

    def test_model_input_not_quantized_by_default(self):
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        assert "in" not in sim.activation_quantizers

    def test_final_output_always_quantized(self):
        # fc1 feeds the output node; even with op outputs globally off it keeps
        # a quantizer because the model output section demands one
        cfg = SimConfig.from_dict({"defaults": {"ops": {"is_output_quantized": False}, "params": {"is_quantized": True, "is_symmetric": True}}})
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0), config=cfg)
        assert "fc1" in sim.activation_quantizers
        assert "act0" not in sim.activation_quantizers

    def test_maxpool_gets_no_quantizer(self):
        sim = create_quantsim(pool_graph())
        assert "mp" not in sim.activation_quantizers

    def test_avgpool_reuses_input_encoding(self):
        sim = create_quantsim(pool_graph())
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=2))
        ap = sim.activation_quantizers["ap"]
        # maxpool has no quantizer of its own, so there is nothing to reuse
        # and the avgpool output quantizer turns itself off
        assert not ap.enabled

    def test_avgpool_reuse_copies_source_encoding(self):
        rng = np.random.default_rng(1)
        g = GraphModel(
            [
                Node("in", "input"),
                Node(
                    "conv",
                    "conv2d",
                    ["in"],
                    attrs={"stride": 1, "padding": 1},
                    weights={"weight": rng.normal(size=(4, 3, 3, 3)), "bias": np.zeros(4)},
                ),
                Node("ap", "avgpool", ["conv"], attrs={"kernel": 2, "stride": 2}),
                Node("out", "output", ["ap"]),
            ]
        )
        sim = create_quantsim(g)
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=2, seed=2))
        assert sim.activation_quantizers["ap"].encodings == sim.activation_quantizers["conv"].encodings
        # re-deriving one tensor at another bitwidth carries the avgpool along
        sim.activation_quantizers["conv"].bitwidth = 4
        compute_activation_encodings(sim, keys=["conv"])
        assert sim.activation_quantizers["ap"].bitwidth == 4
        assert sim.activation_quantizers["ap"].encodings == sim.activation_quantizers["conv"].encodings
        assert sim.activation_quantizers["conv"].encodings[0].bitwidth == 4

    def test_activation_encodings_need_stored_statistics(self):
        sim = create_quantsim(toys.mlp([2, 4, 2], seed=0))
        with pytest.raises(CalibrationError, match="statistics"):
            compute_activation_encodings(sim)

    def test_per_channel_weights_when_configured(self):
        cfg = SimConfig.from_dict(
            {"defaults": {"ops": {"is_output_quantized": True, "is_symmetric": False}, "params": {"is_quantized": True, "is_symmetric": True}}}
        )
        model = toys.mlp([4, 8, 3], seed=0)
        sim = create_quantsim(model, scheme=RangeScheme(per_channel=True), config=cfg)
        compute_encodings(sim, toys.random_feed((16, 4), n_batches=2))
        spec = sim.param_quantizers["fc0.weight"]
        assert spec.per_channel
        assert len(spec.encodings) == 8  # one per output row

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_the_scheme_alone_gives_mac_weights_per_channel_grids(self, per_channel):
        cfg = SimConfig.from_dict({"params": {"bias": {"is_quantized": True}}})
        sim = create_quantsim(pool_graph(), scheme=RangeScheme(per_channel=per_channel), config=cfg)
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=2))
        weights = {"conv.weight": 4, "fc.weight": 2} if per_channel else {"conv.weight": 1, "fc.weight": 1}
        assert {k: len(s.encodings) for k, s in sim.param_quantizers.items()} == {
            **weights, "conv.bias": 1, "fc.bias": 1,
        }

    def test_a_config_cannot_set_the_weight_granularity(self):
        with pytest.raises(ModelFormatError, match="unknown field 'per_channel'"):
            SimConfig.from_dict({"defaults": {"params": {"is_quantized": True, "per_channel": True}}})

    def test_custom_supergroup_list(self):
        cfg = SimConfig.from_dict({"supergroups": []})
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0), config=cfg)
        assert "fc0" in sim.activation_quantizers  # no suppression now


class TestCalibration:
    def test_empty_feed_rejected(self):
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        with pytest.raises(CalibrationError):
            compute_encodings(sim, [])

    def test_a_feed_of_empty_batches_is_calibration_error(self):
        # the empty batch also records no float means, so nothing warns first
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        with pytest.raises(CalibrationError):
            compute_encodings(sim, [np.ones((0, 4))])

    def test_float_means_recorded_for_the_leading_bias_correction_batches_only(self):
        from fixquant import quantsim

        model = toys.mlp([4, 8, 3], seed=0)
        rows = quantsim.BIAS_CORRECT_SAMPLES // 2 - 1  # two batches hold too few samples, three enough
        feed = toys.random_feed((rows, 4), n_batches=5, seed=1)
        sim = create_quantsim(model)
        compute_encodings(sim, feed + [np.ones((0, 4))])

        def mac_keys(batch):
            keys = quantsim._float_keys(sim.graph, batch)
            return {nid: keys[nid] for nid in ("fc0", "fc1")}

        assert set(sim.float_means) == {k for b in feed[:3] for k in mac_keys(b).values()}
        for batch in feed[:3]:
            values = model.evaluate_all(batch)
            for nid, key in mac_keys(batch).items():
                assert sim.float_means[key].tobytes() == quantsim._channel_means(values[nid]).tobytes()
        compute_encodings(sim, feed[3:])  # a new calibration replaces the record
        assert set(sim.float_means) == {k for b in feed[3:] for k in mac_keys(b).values()}

    def test_every_enabled_quantizer_ready_after_calibration(self):
        _, sim = calibrated_mlp()
        sim.check_ready()  # should not raise

    def test_forward_before_calibration_rejected(self):
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        with pytest.raises(EncodingError):
            sim.forward(np.zeros((1, 4)))

    def test_activation_stats_retained(self):
        _, sim = calibrated_mlp()
        assert set(sim.activation_stats) == set(sim.activation_quantizers)
        assert all(acc.count > 0 for acc in sim.activation_stats.values())

    def test_frozen_encodings_survive_recalibration(self):
        _, sim = calibrated_mlp()
        spec = sim.param_quantizers["fc0.weight"]
        original = list(spec.encodings)
        spec.frozen = True
        sim.graph.nodes["fc0"].set_weight("weight", sim.graph.nodes["fc0"].weights["weight"] * 7)
        compute_encodings(sim, toys.random_feed((16, 4), n_batches=2, seed=9))
        assert sim.param_quantizers["fc0.weight"].encodings == original
        # unfrozen neighbours did move
        assert sim.activation_quantizers["fc1"].encodings is not None


class TestHistogramsOnlyWhereRead:
    """Only the sqnr scheme reads a distribution, so only a sqnr sim bins
    the values it observes; a min-max one keeps min, max and count."""

    @pytest.fixture
    def histogram_calls(self, monkeypatch):
        calls = []
        real = np.histogram

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "histogram", counted)
        return calls

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_min_max_calibration_never_bins_a_value(self, per_channel, histogram_calls):
        sim = create_quantsim(pool_graph(), scheme=RangeScheme(per_channel=per_channel))
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=2))
        for key, spec in sim.param_quantizers.items():
            node, name = key.rsplit(".", 1)
            assert quantsim.weight_encodings(sim.graph.nodes[node].weights[name], spec, sim.scheme) == spec.encodings
        sim.check_ready()
        assert histogram_calls == []

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_sqnr_calibration_still_bins_every_value(self, per_channel, histogram_calls):
        sim = create_quantsim(pool_graph(), scheme=RangeScheme("sqnr", per_channel=per_channel))
        compute_encodings(sim, toys.random_feed((2, 3, 8, 8), n_batches=2))
        assert len(histogram_calls) >= 2 * len(sim.activation_stats)

    def test_a_min_max_mixed_precision_search_never_bins_a_value(self, histogram_calls, monkeypatch, tmp_path):
        from fixquant.amp import choose_mixed_precision
        from fixquant.range_setting import RangeAccumulator

        observed = []
        real = RangeAccumulator.observe
        monkeypatch.setattr(RangeAccumulator, "observe", lambda acc, x: observed.append(1) or real(acc, x))
        model = toys.depthwise_net(seed=0)
        x = toys.random_feed((8, 3, 6, 6), n_batches=1, seed=3)[0]
        sim = compute_encodings(create_quantsim(model), [x])
        calibrated = len(observed)
        want = model.forward(x)

        def score(s):
            return -float(np.mean((s.forward(x) - want) ** 2))

        choose_mixed_precision(sim, [(16, 16), (8, 8), (4, 8)], score, score, 10.0, tmp_path)
        assert len(observed) > calibrated  # the search re-derived weight encodings
        assert histogram_calls == []

    def test_a_sqnr_derivation_after_min_max_calibration_names_the_missing_histograms(self):
        _, sim = calibrated_mlp()
        sim.scheme = RangeScheme("sqnr")
        with pytest.raises(CalibrationError, match="keeps no histograms"):
            compute_activation_encodings(sim)


class TestSimulatedForward:
    def test_all_disabled_matches_float_bit_exactly(self):
        model, sim = calibrated_mlp()
        for spec in sim.all_quantizers().values():
            spec.enabled = False
        x = np.random.default_rng(3).normal(size=(32, 4))
        assert np.array_equal(sim.forward(x), model.forward(x))

    def test_32bit_quantizers_track_float_closely(self):
        model = toys.mlp([4, 8, 3], seed=0)
        sim = create_quantsim(model, default_param_bw=32, default_output_bw=32)
        feed = toys.random_feed((16, 4), n_batches=3, seed=1)
        compute_encodings(sim, feed)
        # evaluated on in-range data; only grid rounding remains at 32 bits
        for x in feed:
            assert np.max(np.abs(sim.forward(x) - model.forward(x))) <= 1e-5

    def test_8bit_output_lands_on_output_grid(self):
        _, sim = calibrated_mlp()
        y = sim.forward(np.random.default_rng(5).normal(size=(8, 4)))
        (e,) = sim.activation_quantizers["fc1"].encodings
        k = y / e.scale + e.zero_point
        assert np.allclose(k, np.round(k), atol=1e-6)

    def test_weights_only_simulation(self):
        model, sim = calibrated_mlp()
        for spec in sim.activation_quantizers.values():
            spec.enabled = False
        x = np.random.default_rng(6).normal(size=(8, 4))
        got = sim.forward(x)
        # hand-built reference: qdq weights, then run in float
        ref_model = model.copy()
        for key, spec in sim.param_quantizers.items():
            nid, pname = key.rsplit(".", 1)
            from fixquant.quantizer import qdq

            ref_model.nodes[nid].set_weight(pname, qdq(ref_model.nodes[nid].weights[pname], spec))
        assert np.allclose(got, ref_model.forward(x), atol=1e-12)

    def test_a_stopped_pass_resumed_from_known_equals_the_full_pass(self):
        from test_graph_ir import branching_graph

        sim = create_quantsim(branching_graph(), default_param_bw=4)
        feed = toys.random_feed((2, 3, 6, 6), n_batches=2, seed=7)
        compute_encodings(sim, feed)
        full = sim.evaluate_all(feed[0])
        known = sim.evaluate_all(feed[0], stop="ra")
        values = sim.evaluate_all(feed[0], known=known, stop="mp")
        assert list(values) == ["in", "a", "ra", "b", "s", "c", "mp"]
        assert all(values[nid].tobytes() == full[nid].tobytes() for nid in values)


def resumable_sim():
    """A calibrated sim of the branching graph (two convs, add, concat, both
    pools, a linear head) and an input batch."""
    from test_graph_ir import branching_graph

    sim = create_quantsim(branching_graph(seed=2))
    compute_encodings(sim, toys.random_feed((2, 3, 6, 6), n_batches=2, seed=8))
    return sim, np.random.default_rng(9).normal(size=(2, 3, 6, 6))


def full_pass(sim, x):
    """The outputs of a fresh clone's pass, which no scope can resume."""
    fresh = sim.clone()
    return fresh.graph.outputs(fresh.evaluate_all(x))


class TestResumingForward:
    def test_a_forward_reruns_only_what_changed_and_what_reads_it(self, monkeypatch):
        sim, x = resumable_sim()
        ran = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda kind, *a: ran.append(kind) or real(kind, *a))
        with sim.resuming():
            sim.forward(x)
            assert len(ran) == 9
            ran.clear()
            sim.forward(x)
            assert ran == []
            sim.param_quantizers["b.weight"].enabled = False
            got = sim.forward(x)
            # b changed; a and ra keep their values, so s, c, mp, ap, fc and out rerun
            assert ran == ["conv2d", "add", "concat", "maxpool", "avgpool", "linear", "output"]
            assert got.tobytes() == full_pass(sim, x).tobytes()
            ran.clear()
            sim.graph.nodes["fc"].attrs["note"] = 1  # any attrs edit reruns the node
            sim.forward(x)
            assert ran == ["linear", "output"]
        ran.clear()
        sim.forward(x)
        assert len(ran) == 9

    def test_a_new_batch_runs_unkeyed_and_a_repeated_one_resumes_after_keying(self, monkeypatch):
        sim, x = resumable_sim()
        y = x + 1.0
        ran = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda kind, *a: ran.append(kind) or real(kind, *a))
        with sim.resuming():
            memo = sim._resume
            for batch, runs, keyed in ((x, 9, True), (y, 9, False), (x, 9, False), (x, 9, True), (x, 0, True)):
                ran.clear()
                got = sim.forward(batch)
                # an unkeyed forward leaves only its batch, under the batch's key
                assert len(ran) == runs and (len(memo) > 1) == keyed
                assert got.tobytes() == full_pass(sim, batch).tobytes()
                assert memo[graph_ir.array_key(batch)].tobytes() == batch.tobytes()

    def test_forward_hands_out_arrays_the_memo_does_not_hold(self):
        sim, x = resumable_sim()
        with sim.resuming():
            out = sim.forward(x)
            want = out.tobytes()
            out[...] = 7.0
            assert sim.forward(x).tobytes() == want == full_pass(sim, x).tobytes()

    def test_an_input_is_the_same_only_bit_for_bit(self):
        sim = create_quantsim(GraphModel([Node("in", "input"), Node("out", "output", ["in"])]))
        with sim.resuming():
            assert sim.forward(np.zeros(3)).tobytes() == np.zeros(3).tobytes()
            assert sim.forward(-np.zeros(3)).tobytes() == (-np.zeros(3)).tobytes()

    def test_a_scope_opened_inside_another_joins_it(self, monkeypatch):
        sim, x = resumable_sim()
        ran = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda kind, *a: ran.append(kind) or real(kind, *a))
        with sim.resuming():
            slot = sim._resume
            sim.forward(x)
            with sim.resuming():
                assert sim._resume is slot
                clone = sim.clone()
            assert sim._resume is slot and clone._resume is None
            # the clone is in no scope: its forward is a full pass, twice
            ran.clear()
            for _ in range(2):
                assert clone.forward(x).tobytes() == full_pass(sim, x).tobytes()
            assert len(ran) == 2 * 9 + 2 * 9  # the clone's passes and full_pass's
            ran.clear()
            sim.forward(x)
            assert ran == []
        assert sim._resume is None and clone._resume is None


STEPS = (
    "bitwidth", "enabled", "frozen", "nudge", "set_weight", "edit_weight", "replace_weight", "edit_attrs",
    "edit_input", "new_input", "clone",
)


def held(memo):
    """What a resuming memo holds: (key, value) for each entry."""
    return list(memo.items())


def nudge(spec):
    """Move the quantizer's first encoding's scale up by one float32 ulp."""
    e, *rest = spec.encodings
    spec.encodings = [dataclasses.replace(e, scale=float(np.nextafter(np.float32(e.scale), np.float32(np.inf)))), *rest]


def change(data, rng, sim, x, step):
    """Make one STEPS change other than "clone" to ``sim`` or ``x``; returns ``x``."""
    value = st.sampled_from([0.0, -0.0, 0.3, -1.7])
    quantizers = sim.all_quantizers()
    key = data.draw(st.sampled_from(sorted(k for k, spec in quantizers.items() if spec.encodings)))
    spec = quantizers[key]
    node = sim.graph.nodes[data.draw(st.sampled_from(["a", "b", "fc"]))]
    name = data.draw(st.sampled_from(sorted(node.weights)))
    if step == "bitwidth":
        spec.bitwidth = data.draw(st.sampled_from([4, 8, 16]))
        if key in sim.param_quantizers:
            compute_param_encodings(sim, keys=[key])
        else:
            compute_activation_encodings(sim, keys=[key])
    elif step in ("enabled", "frozen"):
        setattr(spec, step, not getattr(spec, step))
    elif step == "nudge":
        nudge(spec)
    elif step == "set_weight":
        node.set_weight(name, rng.normal(0, 0.3, node.weights[name].shape))
    elif step == "edit_weight":
        node.weights[name].flat[data.draw(st.integers(0, node.weights[name].size - 1))] = data.draw(value)
    elif step == "replace_weight":
        node.weights[name] = node.weights[name] * data.draw(st.sampled_from([1.0, -1.0, 0.5]))
    elif step == "edit_attrs":
        node.attrs["note"] = data.draw(value)  # read by no kernel, so the values stay
    elif step == "edit_input":
        x.flat[data.draw(st.integers(0, x.size - 1))] = data.draw(value)
    elif step == "new_input":
        x = rng.normal(size=x.shape)
    return x


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_resumed_forward_equals_a_full_pass_after_any_change(data):
    sim, x = resumable_sim()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    with sim.resuming():
        scope = sim._resume
        sim.forward(x)
        for step in data.draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=8)):
            if step == "clone":
                before = held(scope)
                sim = sim.clone()
                assert sim._resume is None
                assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes()
                after = held(scope)  # the scope's memo is not the clone's
                assert len(after) == len(before)
                assert all(a[0] == b[0] and a[1] is b[1] for a, b in zip(after, before))
            else:
                x = change(data, rng, sim, x, step)
            assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes(), step


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_plain_forward_equals_a_full_pass_after_any_change(data):
    """With no scope open, every forward reads the sim's kept weight images;
    they must give the bytes of a clone that quantizes every weight anew."""
    sim, x = resumable_sim()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    sim.forward(x)
    for step in data.draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=8)):
        if step == "clone":
            sim = sim.clone()
            assert sim._images == {}
        else:
            x = change(data, rng, sim, x, step)
        assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes(), step


def weight_qdqs(monkeypatch, sim) -> list:
    """The list to which each ``quantsim.qdq`` call on a weight of ``sim``
    appends the weight's quantizer key."""
    keys = {id(spec): key for key, spec in sim.param_quantizers.items()}
    calls, real = [], quantsim.qdq

    def counted(x, spec):
        if id(spec) in keys:
            calls.append(keys[id(spec)])
        return real(x, spec)

    monkeypatch.setattr(quantsim, "qdq", counted)
    return calls


class TestWeightImages:
    def test_forwards_of_an_unchanged_sim_quantize_each_weight_once(self, monkeypatch):
        _, sim = calibrated_mlp()
        calls = weight_qdqs(monkeypatch, sim)
        x = np.random.default_rng(3).normal(size=(8, 4))
        outs = [sim.forward(x).tobytes() for _ in range(5)]
        assert sorted(calls) == ["fc0.weight", "fc1.weight"]
        assert set(outs) == {full_pass(sim, x).tobytes()}

    def test_each_change_to_a_weight_or_its_encoding_costs_one_qdq(self, monkeypatch):
        _, sim = calibrated_mlp()
        node, spec = sim.graph.nodes["fc0"], sim.param_quantizers["fc0.weight"]
        x = np.random.default_rng(3).normal(size=(8, 4))
        sim.forward(x)
        calls = weight_qdqs(monkeypatch, sim)

        def make(step):
            w = node.weights["weight"]
            if step == "set_weight":
                node.set_weight("weight", w * 0.5)
            elif step in ("edit 0.0", "edit -0.0"):
                w.flat[0] = float(step.split()[1])
            elif step == "replace":
                node.weights["weight"] = w + 0.25
            elif step == "nudge":
                nudge(spec)
            elif step == "bitwidth":
                spec.bitwidth = 4
                compute_param_encodings(sim, keys=["fc0.weight"])
            else:  # the image goes while the quantizer is off
                spec.enabled = False
                assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes() and calls == []
                spec.enabled = True

        for step in ("set_weight", "edit 0.0", "edit -0.0", "replace", "nudge", "bitwidth", "toggle"):
            make(step)
            assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes(), step
            assert calls == ["fc0.weight"], step
            calls.clear()
            sim.forward(x)
            assert calls == [], step
        node.weights["weight"] = node.weights["weight"].copy()  # the same bytes keep the image
        sim.forward(x)
        assert calls == []

    def test_an_image_is_read_only_and_a_clone_shares_none(self):
        _, sim = calibrated_mlp()
        node = sim.graph.nodes["fc1"]
        image = sim.quantized_weights(node)["weight"]
        with pytest.raises(ValueError, match="read-only"):
            image[0, 0] = 1.0
        assert sim.quantized_weights(node)["weight"] is image
        clone = sim.clone()
        assert clone._images == {}
        copied = clone.quantized_weights(clone.graph.nodes["fc1"])["weight"]
        assert copied.tobytes() == image.tobytes() and not np.shares_memory(copied, image)
        assert sim.quantized_weights(node)["weight"] is image


class TestPassesHoldOnlyLiveValues:
    """The folded conv_bn_relu_conv (conv1 -> relu1 -> conv2, 16 channels of
    16 x 16) at batch 128. A pass that kept every value would hold three
    activations and the padded batch at conv2."""

    model = fold_batch_norms(toys.conv_bn_relu_conv(c_in=3, c_mid=16, c_out=16))
    x = np.random.default_rng(27).normal(size=(128, 3, 16, 16))
    act = 128 * 16 * 16 * 16 * 8
    conv = 4 * 9 * act // 128  # four copies of one sample's conv2 patch matrix

    def test_a_float_forward_holds_an_input_and_an_output_at_a_time(self):
        assert peak_bytes(self.model.forward, self.x) < 2 * self.act + self.conv

    def test_a_sim_forward_holds_an_output_and_its_quantizer_temporaries(self):
        sim = compute_encodings(create_quantsim(self.model), [self.x[:8]])
        assert peak_bytes(sim.forward, self.x) < 3 * self.act + self.conv

    def test_calibration_observes_each_value_as_it_appears(self):
        sim = create_quantsim(self.model)
        assert peak_bytes(compute_encodings, sim, [self.x]) < 2 * self.act + self.conv

    def test_a_streamed_calibration_equals_one_that_keeps_every_value(self, monkeypatch):
        feed = toys.random_feed((8, 3, 6, 6), n_batches=3, seed=4)
        streamed = compute_encodings(create_quantsim(self.model, scheme=RangeScheme("sqnr", per_channel=True)), feed)
        real = GraphModel.evaluate_all
        monkeypatch.setattr(GraphModel, "evaluate_all", lambda g, *a, stream=False, **k: real(g, *a, **k))
        kept = compute_encodings(create_quantsim(self.model, scheme=RangeScheme("sqnr", per_channel=True)), feed)
        encodings = [encodings_to_dict(s.activation_quantizers, s.param_quantizers) for s in (streamed, kept)]
        assert encodings[0] == encodings[1]
        assert streamed.mac_spatial == kept.mac_spatial == {"conv1": 36, "conv2": 36}
        assert list(streamed.float_means) == list(kept.float_means) and len(kept.float_means) == 6
        assert all(streamed.float_means[k].tobytes() == m.tobytes() for k, m in kept.float_means.items())


class TestEncodingsFile:
    def test_export_files_and_format_tag(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        doc = json.loads(paths["encodings"].read_text())
        assert doc["format"] == "fixquant-encodings-v1"
        assert "param_encodings" in doc and "activation_encodings" in doc

    def test_offset_field_is_zero_point_and_min_max_are_grid_limits(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        doc = json.loads(paths["encodings"].read_text())
        entry = doc["activation_encodings"]["fc1"][0]
        (e,) = sim.activation_quantizers["fc1"].encodings
        assert entry["offset"] == e.zero_point
        assert entry["min"] == e.grid_min
        assert entry["max"] == e.grid_max
        assert entry["scale"] == e.scale

    def test_disabled_quantizer_omitted_from_file(self, tmp_path):
        _, sim = calibrated_mlp()
        sim.activation_quantizers["act0"].enabled = False
        paths = export(sim, tmp_path / "m")
        doc = json.loads(paths["encodings"].read_text())
        assert "act0" not in doc["activation_encodings"]

    def test_round_trip_reproduces_outputs_bit_exactly(self, tmp_path):
        from fixquant.graph_ir import load_model

        _, sim = calibrated_mlp()
        x = np.random.default_rng(7).normal(size=(16, 4))
        y = sim.forward(x)
        paths = export(sim, tmp_path / "m")

        model2 = load_model(tmp_path / "m")
        sim2 = create_quantsim(model2)
        import_encodings(sim2, paths["encodings"])
        assert np.array_equal(sim2.forward(x), y)

    def test_import_restores_disabled_state(self, tmp_path):
        _, sim = calibrated_mlp()
        sim.activation_quantizers["act0"].enabled = False
        paths = export(sim, tmp_path / "m")
        _, sim2 = calibrated_mlp()
        # start from a sim where act0 is enabled but uncalibrated
        sim3 = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        import_encodings(sim3, paths["encodings"])
        assert not sim3.activation_quantizers["act0"].enabled
        sim3.check_ready()

    def test_unknown_tensor_name_rejected(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        doc = json.loads(paths["encodings"].read_text())
        doc["param_encodings"]["ghost.weight"] = doc["param_encodings"]["fc0.weight"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        _, sim2 = calibrated_mlp()
        with pytest.raises(EncodingError):
            import_encodings(sim2, bad)

    def test_file_bitwidths_are_adopted(self, tmp_path):
        _, sim = calibrated_mlp()
        sim.param_quantizers["fc0.weight"].bitwidth = 4
        sim.activation_quantizers["act0"].bitwidth = 16
        compute_param_encodings(sim)
        compute_activation_encodings(sim)
        x = np.random.default_rng(7).normal(size=(16, 4))
        paths = export(sim, tmp_path / "m")
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0), default_param_bw=8, default_output_bw=8)
        import_encodings(sim2, paths["encodings"])
        bitwidths = {k: s.bitwidth for k, s in sim2.all_quantizers().items()}
        assert bitwidths == {k: s.bitwidth for k, s in sim.all_quantizers().items()}
        assert bitwidths["fc0.weight"] == 4 and bitwidths["act0"] == 16
        assert np.array_equal(sim2.forward(x), sim.forward(x))

    @pytest.mark.parametrize("change, match", [
        ({"bitwidth": 4}, r"bitwidth \[4, 8\]"),
        ({"symmetric": False, "signed": False, "offset": 128}, r"symmetric \[False, True\]"),  # the same 8-bit grid
    ], ids=["bitwidth", "symmetric"])
    def test_entries_of_one_tensor_that_disagree_rejected(self, change, match):
        _, sim = calibrated_mlp(scheme=RangeScheme(per_channel=True))
        doc = encodings_to_dict(sim.activation_quantizers, sim.param_quantizers)
        entries = doc["param_encodings"]["fc0.weight"]
        assert all(e["bitwidth"] == 8 and e["symmetric"] for e in entries)
        entries[3] = {**entries[3], **change}
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        with pytest.raises(EncodingError, match=rf"fc0.weight.*{match}"):
            import_encodings(sim2, doc)

    def test_a_failed_import_leaves_every_quantizer_as_it_was(self):
        _, source = calibrated_mlp(default_output_bw=16, scheme=RangeScheme(per_channel=True))
        doc = encodings_to_dict(source.activation_quantizers, source.param_quantizers)
        doc["param_encodings"]["fc1.weight"] = doc["param_encodings"]["fc1.weight"][:2]  # 3 channels
        _, sim = calibrated_mlp()
        before = copy.deepcopy((sim.activation_quantizers, sim.param_quantizers))
        with pytest.raises(EncodingError, match=r"fc1.weight.*2 encodings"):
            import_encodings(sim, doc)
        assert (sim.activation_quantizers, sim.param_quantizers) == before

    @pytest.mark.parametrize("section, key, count", [
        ("param_encodings", "fc0.weight", 3),
        ("param_encodings", "fc0.bias", 2),
        ("activation_encodings", "act0", 2),
        ("activation_encodings", "act0", 8),
    ])
    def test_entry_counts_fitting_no_granularity_rejected(self, section, key, count):
        _, sim = calibrated_mlp(config=SimConfig.from_dict({"params": {}}))
        doc = encodings_to_dict(sim.activation_quantizers, sim.param_quantizers)
        doc[section][key] = doc[section][key][:1] * count
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0), config=SimConfig.from_dict(EVERY_TENSOR_CONFIG_DICT))
        with pytest.raises(EncodingError, match=rf"{section}\['{key}'\]: {count} encodings"):
            import_encodings(sim2, doc)

    def test_import_that_does_not_freeze_leaves_a_frozen_quantizer_as_it_was(self):
        """A per-tensor file must not turn a frozen per-channel weight into
        a per-tensor quantizer that still holds one encoding per channel."""
        model = toys.mlp([2, 16, 16, 2], seed=0)
        feed = toys.random_feed((32, 2), n_batches=2, seed=1)
        per_channel = compute_encodings(create_quantsim(model, scheme=RangeScheme(per_channel=True)), feed)
        per_tensor = compute_encodings(create_quantsim(model), feed)
        frozen = per_channel.param_quantizers["fc0.weight"]
        frozen.frozen = True
        before = copy.deepcopy(frozen)
        x = feed[0]
        want = per_tensor.clone()
        want.param_quantizers["fc0.weight"] = copy.deepcopy(frozen)
        import_encodings(per_channel, encodings_to_dict(per_tensor.activation_quantizers, per_tensor.param_quantizers))
        assert per_channel.param_quantizers["fc0.weight"] == before
        assert np.array_equal(per_channel.forward(x), want.forward(x))

    def test_freeze_on_import_pins_encodings(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        import_encodings(sim2, paths["encodings"], freeze=True)
        before = list(sim2.param_quantizers["fc0.weight"].encodings)
        sim2.graph.nodes["fc0"].set_weight("weight", sim2.graph.nodes["fc0"].weights["weight"] * 5)
        compute_encodings(sim2, toys.random_feed((16, 4), n_batches=2, seed=8))
        assert sim2.param_quantizers["fc0.weight"].encodings == before
