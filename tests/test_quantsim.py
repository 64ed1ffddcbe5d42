import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixquant import graph_ir, toys
from fixquant.errors import CalibrationError, EncodingError, ModelFormatError
from fixquant.graph_ir import GraphModel, Node
from fixquant.quantsim import (
    DEFAULT_CONFIG_DICT,
    SimConfig,
    compute_activation_encodings,
    compute_encodings,
    compute_param_encodings,
    create_quantsim,
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
            ({"op_type": {"relu": {"params": {"weight": []}}}}, "op_type.relu.params: field 'weight'"),
            ({"supergroups": [1]}, "'supergroups'"),
            ({"supergroups": [["conv2d", 2]]}, "'supergroups'"),
            ({"model_input": {"is_input_quantized": None}}, "model_input: field"),
        ],
    )
    def test_every_field_is_type_checked(self, doc, where):
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
        cfg = SimConfig.from_dict({"defaults": {"ops": {"is_output_quantized": False}, "params": {"is_quantized": True, "is_symmetric": True, "per_channel": False}}})
        sim = create_quantsim(toys.mlp([4, 8, 3], seed=0), config=cfg)
        assert "fc1" in sim.activation_quantizers
        assert "act0" not in sim.activation_quantizers

    def test_maxpool_gets_no_quantizer(self):
        sim = create_quantsim(pool_graph())
        assert "mp" not in sim.activation_quantizers

    def test_avgpool_reuses_input_encoding(self):
        sim = create_quantsim(pool_graph())
        assert sim.avgpool_reuse == {"ap": "mp"}
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
            {"defaults": {"ops": {"is_output_quantized": True, "is_symmetric": False}, "params": {"is_quantized": True, "is_symmetric": True, "per_channel": True}}}
        )
        model = toys.mlp([4, 8, 3], seed=0)
        sim = create_quantsim(model, scheme=RangeScheme(per_channel=True), config=cfg)
        compute_encodings(sim, toys.random_feed((16, 4), n_batches=2))
        spec = sim.param_quantizers["fc0.weight"]
        assert spec.per_channel
        assert len(spec.encodings) == 8  # one per output row

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
        key = quantsim.graph_digest(sim.graph)
        assert set(sim.float_means) == {(key, quantsim._batch_digest(sim.graph, b)) for b in feed[:3]}
        for batch in feed[:3]:
            values = model.evaluate_all(batch)
            recorded = sim.float_means[key, quantsim._batch_digest(sim.graph, batch)]
            assert set(recorded) == {"fc0", "fc1"}
            for nid, means in recorded.items():
                assert means.tobytes() == quantsim._channel_means(values[nid]).tobytes()
        compute_encodings(sim, feed[3:])  # a new calibration replaces the record
        assert set(sim.float_means) == {(key, quantsim._batch_digest(sim.graph, b)) for b in feed[3:]}

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

    def test_a_resumed_pass_reports_only_the_recomputed_nodes(self):
        from test_graph_ir import branching_graph

        sim = create_quantsim(branching_graph(), default_param_bw=4)
        feed = toys.random_feed((2, 3, 6, 6), n_batches=2, seed=7)
        compute_encodings(sim, feed)
        full, full_raw, full_used = sim.evaluate_all(feed[0], capture_raw=True)
        known = sim.evaluate_all(feed[0], stop="ra")
        values, raw, used = sim.evaluate_all(feed[0], capture_raw=True, known=known, stop="mp")
        assert list(values) == ["in", "a", "ra", "b", "s", "c", "mp"]
        assert list(raw) == ["b", "s", "c", "mp"] and list(used) == ["b"]
        assert all(values[nid].tobytes() == full[nid].tobytes() for nid in values)
        assert all(raw[nid].tobytes() == full_raw[nid].tobytes() for nid in raw)
        assert all(w.tobytes() == full_used["b"][k].tobytes() for k, w in used["b"].items())


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
            slot = sim._resume
            for batch, runs, keyed in ((x, 9, True), (y, 9, False), (x, 9, False), (x, 9, True), (x, 0, True)):
                ran.clear()
                got = sim.forward(batch)
                assert len(ran) == runs and bool(slot.keys) == bool(slot.values) == keyed
                assert got.tobytes() == full_pass(sim, batch).tobytes()
                assert slot.feed["in"].tobytes() == batch.tobytes()

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


STEPS = ("bitwidth", "enabled", "frozen", "set_weight", "edit_weight", "edit_input", "new_input", "clone")


def held(slot):
    """What a resuming slot holds: (field, key, value) for each entry."""
    return [(name, k, v) for name in ("keys", "values", "feed") for k, v in getattr(slot, name).items()]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_resumed_forward_equals_a_full_pass_after_any_change(data):
    sim, x = resumable_sim()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    value = st.sampled_from([0.0, -0.0, 0.3, -1.7])
    with sim.resuming():
        scope = sim._resume
        sim.forward(x)
        for step in data.draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=8)):
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
            elif step == "set_weight":
                node.set_weight(name, rng.normal(0, 0.3, node.weights[name].shape))
            elif step == "edit_weight":
                node.weights[name].flat[data.draw(st.integers(0, node.weights[name].size - 1))] = data.draw(value)
            elif step == "edit_input":
                x.flat[data.draw(st.integers(0, x.size - 1))] = data.draw(value)
            elif step == "new_input":
                x = rng.normal(size=x.shape)
            else:
                before = held(scope)
                sim = sim.clone()
                assert sim._resume is None
                assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes()
                after = held(scope)  # the scope's slot is not the clone's
                assert len(after) == len(before)
                assert all(a[:2] == b[:2] and a[2] is b[2] for a, b in zip(after, before))
            assert sim.forward(x).tobytes() == full_pass(sim, x).tobytes(), step


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

    def test_bitwidth_mismatch_rejected(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0), default_param_bw=4)
        with pytest.raises(EncodingError):
            import_encodings(sim2, paths["encodings"])

    def test_freeze_on_import_pins_encodings(self, tmp_path):
        _, sim = calibrated_mlp()
        paths = export(sim, tmp_path / "m")
        sim2 = create_quantsim(toys.mlp([4, 8, 3], seed=0))
        import_encodings(sim2, paths["encodings"], freeze=True)
        before = list(sim2.param_quantizers["fc0.weight"].encodings)
        sim2.graph.nodes["fc0"].set_weight("weight", sim2.graph.nodes["fc0"].weights["weight"] * 5)
        compute_encodings(sim2, toys.random_feed((16, 4), n_batches=2, seed=8))
        assert sim2.param_quantizers["fc0.weight"].encodings == before
