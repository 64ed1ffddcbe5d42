import json
import warnings

import numpy as np
import pytest

from fixquant import toys
from fixquant.errors import CalibrationError, ModelFormatError, NumericError, ShapeError
from fixquant.graph_ir import GraphModel, Node, eval_kind
from fixquant.ptq import (
    AdaRoundParams,
    CLEReport,
    PtqOptions,
    absorb_high_bias,
    adaround,
    bias_correct,
    cross_layer_scale,
    equalize_model,
    fold_batch_norms,
    fold_batch_norms_detailed,
    replace_relu6_with_relu,
    run_ptq_pipeline,
    _out_channel_ranges,
    _in_channel_ranges,
    _rectified_gaussian_mean,
)
from fixquant.quantizer import qdq
from fixquant.quantsim import SimConfig, compute_encodings, create_quantsim
from fixquant.range_setting import RangeScheme
from fixquant.tensor_core import f32


class TestBatchNormFolding:
    def test_folded_model_matches_original(self):
        g = toys.conv_bn_relu_conv(seed=3)
        folded = fold_batch_norms(g)
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6))
        assert np.allclose(folded.forward(x), g.forward(x), atol=1e-5)

    def test_bn_node_removed_and_rewired(self):
        g = toys.conv_bn_relu_conv(seed=3)
        folded, rep = fold_batch_norms_detailed(g)
        assert rep["folded"] == [{"layer": "conv1", "batchnorm": "bn1"}]
        assert "bn1" not in folded.nodes
        assert folded.nodes["relu1"].inputs == ["conv1"]

    def test_folded_stats_attached(self):
        g = toys.conv_bn_relu_conv(seed=3)
        folded = fold_batch_norms(g)
        st = folded.nodes["conv1"].attrs["folded_bn"]
        bn = g.nodes["bn1"]
        assert np.allclose(st["beta"], bn.weights["beta"])
        assert np.allclose(st["gamma"], np.abs(bn.weights["gamma"]))
        # stats must survive a JSON round trip (they ride in node attrs)
        import json

        json.dumps(st)

    @pytest.mark.parametrize("eps, error", [("x", ShapeError), (None, ShapeError), (-10.0, NumericError)])
    def test_bad_eps_is_an_error_without_a_warning(self, eps, error):
        g = toys.conv_bn_relu_conv(seed=3)
        g.nodes["bn1"].attrs["eps"] = eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="eps"):
                fold_batch_norms(g)

    def test_bn_after_nonmac_layer_skipped(self):
        rng = np.random.default_rng(1)
        bn_w = {
            "gamma": rng.uniform(0.5, 2, 3),
            "beta": rng.normal(size=3),
            "mean": rng.normal(size=3),
            "var": rng.uniform(0.5, 2, 3),
        }
        g = GraphModel(
            [
                Node("in", "input"),
                Node("r", "relu", ["in"]),
                Node("bn", "batchnorm", ["r"], weights=bn_w),
                Node("out", "output", ["bn"]),
            ]
        )
        folded, rep = fold_batch_norms_detailed(g)
        assert rep["skipped"] == ["bn"]
        assert "bn" in folded.nodes

    def test_bn_not_folded_when_conv_has_other_consumers(self):
        rng = np.random.default_rng(2)
        bn_w = {
            "gamma": rng.uniform(0.5, 2, 4),
            "beta": rng.normal(size=4),
            "mean": rng.normal(size=4),
            "var": rng.uniform(0.5, 2, 4),
        }
        g = GraphModel(
            [
                Node("in", "input"),
                Node(
                    "conv",
                    "conv2d",
                    ["in"],
                    attrs={"padding": 1},
                    weights={"weight": rng.normal(size=(4, 3, 3, 3)), "bias": np.zeros(4)},
                ),
                Node("bn", "batchnorm", ["conv"], weights=bn_w),
                Node("skip", "add", ["bn", "conv"]),
                Node("out", "output", ["skip"]),
            ]
        )
        folded, rep = fold_batch_norms_detailed(g)
        assert rep["skipped"] == ["bn"]
        x = rng.normal(size=(1, 3, 5, 5))
        assert np.allclose(folded.forward(x), g.forward(x))


@pytest.mark.parametrize(
    "folded_bn",
    [
        lambda c: "x",
        lambda c: None,
        lambda c: {"beta": [0.0] * c},
        lambda c: {"beta": [0.0] * c, "gamma": [1.0] * (c - 1)},
        lambda c: {"beta": [0.0] * c, "gamma": ["x"] * c},
        lambda c: {"beta": [float("nan")] * c, "gamma": [1.0] * c},
    ],
    ids=["string", "null", "no-gamma", "short-gamma", "gamma-strings", "nan-beta"],
)
def test_malformed_folded_bn_is_format_error(folded_bn):
    g = fold_batch_norms(toys.conv_bn_relu_conv(seed=3))
    g.nodes["conv1"].attrs["folded_bn"] = folded_bn(g.nodes["conv1"].weights["weight"].shape[0])
    with pytest.raises(ModelFormatError, match="folded_bn"):
        equalize_model(g)
    sim = create_quantsim(g)
    compute_encodings(sim, [np.random.default_rng(0).normal(size=(4, 3, 6, 6))])
    with pytest.raises(ModelFormatError, match="folded_bn"):
        bias_correct(sim, mode="analytic_then_empirical", feed=[np.ones((2, 3, 6, 6))])


def test_equalize_rejects_a_conv_weight_that_is_not_4d():
    g = fold_batch_norms(toys.conv_bn_relu_conv(seed=3))
    w = g.nodes["conv2"].weights["weight"]
    g.nodes["conv2"].weights["weight"] = w.reshape(w.shape[:2] + (-1,))
    with pytest.raises(ShapeError, match="4-d"):
        cross_layer_scale(g, CLEReport())


def test_relu6_replacement():
    g = toys.mlp([4, 6, 2], seed=0, activation="relu6")
    out = replace_relu6_with_relu(g)
    kinds = {n.kind for n in out.nodes.values()}
    assert "relu6" not in kinds and "relu" in kinds


class TestCrossLayerScale:
    def test_ranges_equalized_after_one_pass(self):
        g = fold_batch_norms(toys.conv_bn_relu_conv(seed=5))
        out = cross_layer_scale(g, CLEReport())
        r1 = _out_channel_ranges(out.nodes["conv1"])
        r2 = _in_channel_ranges(out.nodes["conv2"])
        assert np.allclose(r1, r2, rtol=1e-6)

    def test_function_preserved_through_relu(self):
        g = fold_batch_norms(toys.conv_bn_relu_conv(seed=5))
        out = cross_layer_scale(g, CLEReport())
        x = np.random.default_rng(3).normal(size=(2, 3, 6, 6))
        assert np.allclose(out.forward(x), g.forward(x), atol=1e-5)

    def test_second_pass_is_identity(self):
        g = fold_batch_norms(toys.conv_bn_relu_conv(seed=5))
        once = cross_layer_scale(g, CLEReport())
        rep = CLEReport()
        cross_layer_scale(once, rep)
        for pair in rep.pairs:
            assert np.allclose(pair["scale"], 1.0, atol=1e-7)

    def test_depthwise_chain_scaled(self):
        g = toys.depthwise_net(seed=4)
        rep = CLEReport()
        out = cross_layer_scale(g, rep)
        assert len(rep.pairs) == 2  # conv->dw and dw->1x1
        x = np.random.default_rng(4).normal(size=(2, 3, 6, 6))
        assert np.allclose(out.forward(x), g.forward(x), atol=1e-5)

    def test_scale_formula(self):
        g = fold_batch_norms(toys.conv_bn_relu_conv(seed=6))
        rep = CLEReport()
        cross_layer_scale(g, rep)
        p = rep.pairs[0]
        r1, r2 = np.array(p["r1_before"]), np.array(p["r2_before"])
        assert np.allclose(p["scale"], np.sqrt(r1 * r2) / r2)


class TestHighBiasAbsorption:
    def high_bias_model(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(3, 4)) * 0.5
        w2 = rng.normal(size=(2, 3)) * 0.5
        g = GraphModel(
            [
                Node("in", "input"),
                Node("fc1", "linear", ["in"], weights={"weight": w1, "bias": [6.0, 0.1, 5.0]}),
                Node("r", "relu", ["fc1"]),
                Node("fc2", "linear", ["r"], weights={"weight": w2, "bias": np.zeros(2)}),
                Node("out", "output", ["fc2"]),
            ]
        )
        # folded stats say the pre-activations sit high above zero
        g.nodes["fc1"].attrs["folded_bn"] = {"beta": [6.0, 0.1, 5.0], "gamma": [1.0, 1.0, 0.5]}
        return g

    def test_absorbs_c_and_preserves_function_on_high_inputs(self):
        g = self.high_bias_model()
        rep = CLEReport()
        out = absorb_high_bias(g, rep)
        (entry,) = rep.absorbed
        assert np.allclose(entry["absorbed"], [3.0, 0.0, 3.5])  # max(0, beta - 3 gamma)
        assert np.allclose(out.nodes["fc1"].weights["bias"], [3.0, 0.1, 1.5])
        # function unchanged when every channel stays above its absorbed shift
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16, 4)) * 0.1
        assert np.allclose(out.forward(x), g.forward(x), atol=1e-9)

    def test_skip_without_relu(self):
        rng = np.random.default_rng(9)
        g = GraphModel(
            [
                Node("in", "input"),
                Node("fc1", "linear", ["in"], weights={"weight": rng.normal(size=(3, 4)), "bias": np.zeros(3)}),
                Node("fc2", "linear", ["fc1"], weights={"weight": rng.normal(size=(2, 3)), "bias": np.zeros(2)}),
                Node("out", "output", ["fc2"]),
            ]
        )
        rep = CLEReport()
        absorb_high_bias(g, rep)
        assert rep.absorption_skipped[0]["reason"] == "no relu between layers"

    def test_skip_without_stats(self):
        g = self.high_bias_model()
        del g.nodes["fc1"].attrs["folded_bn"]
        rep = CLEReport()
        absorb_high_bias(g, rep)
        assert rep.absorption_skipped[0]["reason"] == "no batch-norm statistics available"

    def test_skip_when_no_channel_exceeds_threshold(self):
        g = self.high_bias_model()
        g.nodes["fc1"].attrs["folded_bn"] = {"beta": [0.1, 0.1, 0.1], "gamma": [1.0, 1.0, 1.0]}
        rep = CLEReport()
        absorb_high_bias(g, rep)
        assert rep.absorption_skipped[0]["reason"] == "no high bias (c == 0)"


def test_equalize_model_end_to_end():
    g = toys.conv_bn_relu_conv(seed=11)
    out, rep = equalize_model(g)
    assert rep.folded and rep.pairs
    # gamma in [0.5, 2] and beta in [-1, 1] keep beta - 3 gamma negative,
    # so absorption has nothing to move and equalization is exact
    assert rep.absorption_skipped and not rep.absorbed
    x = np.random.default_rng(12).normal(size=(2, 3, 6, 6))
    assert np.max(np.abs(out.forward(x) - g.forward(x))) <= 1e-5


def test_rectified_gaussian_mean_matches_simulation():
    rng = np.random.default_rng(13)
    mu, sigma = np.array([-1.0, 0.0, 0.5, 2.0]), np.array([0.5, 1.0, 2.0, 0.1])
    z = rng.normal(size=(200_000, 4)) * sigma + mu
    sim_mean = np.maximum(z, 0).mean(axis=0)
    assert np.allclose(_rectified_gaussian_mean(mu, sigma), sim_mean, atol=5e-3)


class TestBiasCorrection:
    def quantized_sim(self, seed=14):
        model = toys.mlp([4, 12, 3], seed=seed)
        sim = create_quantsim(model, default_param_bw=4)
        feed = toys.random_feed((64, 4), n_batches=4, seed=seed + 1)
        compute_encodings(sim, feed)
        return model, sim, feed

    def test_empirical_restores_mean_preactivations(self):
        model, sim, feed = self.quantized_sim()
        float_model = model.copy()
        bias_correct(sim, mode="empirical", feed=feed)
        # after correction the quantized model's mean raw pre-activation
        # matches the float model's on the calibration data
        for nid in ("fc0", "fc1"):
            fp, q = [], []
            for batch in feed:
                fp.append(float_model.evaluate_all(batch)[nid])
                _, raw, _ = sim.evaluate_all(batch, capture_raw=True)
                q.append(raw[nid])
            fp_mean = np.concatenate(fp).mean(axis=0)
            q_mean = np.concatenate(q).mean(axis=0)
            assert np.allclose(fp_mean, q_mean, atol=1e-7)

    def test_empirical_needs_feed(self):
        _, sim, _ = self.quantized_sim()
        with pytest.raises(CalibrationError):
            bias_correct(sim, mode="empirical", feed=None)

    def test_analytic_handles_layers_with_stats(self):
        g = fold_batch_norms(toys.conv_bn_relu_conv(seed=15))
        sim = create_quantsim(g, default_param_bw=4)
        feed = toys.random_feed((8, 3, 6, 6), n_batches=2, seed=16)
        compute_encodings(sim, feed)
        b_before = g.nodes["conv2"].weights["bias"].copy()
        bias_correct(sim, mode="analytic_then_empirical", feed=feed)
        # conv2 sits behind relu(conv1 with stats): handled in closed form
        assert not np.allclose(sim.graph.nodes["conv2"].weights["bias"], b_before)

    @pytest.mark.parametrize("c_out, groups", [(4, 1), (4, 2), (4, 4), (8, 4)])
    def test_analytic_correction_sums_each_group_of_input_channels(self, c_out, groups):
        rng = np.random.default_rng(c_out + groups)
        stats = {"beta": list(rng.uniform(-1, 1, 4)), "gamma": list(rng.uniform(0.5, 2, 4))}
        w2, b2 = rng.normal(0, 0.5, (c_out, 4 // groups, 3, 3)), rng.normal(0, 0.1, c_out)
        g = GraphModel(
            [
                Node("in", "input"),
                Node(
                    "conv1", "conv2d", ["in"], attrs={"padding": 1, "folded_bn": stats},
                    weights={"weight": rng.normal(0, 0.5, (4, 3, 3, 3)), "bias": rng.normal(0, 0.1, 4)},
                ),
                Node("relu1", "relu", ["conv1"]),
                Node(
                    "conv2", "conv2d", ["relu1"], attrs={"padding": 1, "groups": groups},
                    weights={"weight": w2, "bias": b2},
                ),
                Node("out", "output", ["conv2"]),
            ]
        )
        sim = create_quantsim(g, default_param_bw=4)
        feed = toys.random_feed((8, 3, 6, 6), n_batches=2, seed=16)
        compute_encodings(sim, feed)
        conv2 = sim.graph.nodes["conv2"]
        w, before = conv2.weights["weight"], conv2.weights["bias"].copy()
        err = qdq(w, sim.param_quantizers["conv2.weight"]) - w
        ex = _rectified_gaussian_mean(np.array(stats["beta"]), np.array(stats["gamma"]))
        bias_correct(sim, mode="analytic_then_empirical", feed=feed)

        og, ig = c_out // groups, 4 // groups
        exact = [sum(err[o, i].sum() * ex[o // og * ig + i] for i in range(ig)) for o in range(c_out)]
        assert np.allclose(before - conv2.weights["bias"], exact, rtol=0, atol=1e-6)
        if groups == 1:  # the dense and the plain depthwise formula keep their bits
            assert np.array_equal(conv2.weights["bias"], f32(before - np.einsum("oikl,i->o", err, ex)))
        elif c_out == groups:
            assert np.array_equal(conv2.weights["bias"], f32(before - err.sum(axis=(1, 2, 3)) * ex))

    def test_unknown_mode_rejected(self):
        _, sim, feed = self.quantized_sim()
        with pytest.raises(Exception):
            bias_correct(sim, mode="magic", feed=feed)


class TestAdaRound:
    def small_params(self):
        return AdaRoundParams(num_iterations=400, step_size=5e-2)

    def test_weights_land_on_their_grid(self):
        model = toys.mlp([4, 8, 3], seed=17)
        feed = toys.random_feed((32, 4), n_batches=2, seed=18)
        out, doc = adaround(model, feed, self.small_params(), param_bw=4, seed=0)
        for key, entries in doc["param_encodings"].items():
            nid = key.rsplit(".", 1)[0]
            w = out.nodes[nid].weights["weight"]
            s = entries[0]["scale"]
            k = w / s
            assert np.allclose(k, np.round(k), atol=1e-5)

    def test_rounding_differs_from_nearest_and_helps(self):
        model = toys.mlp([6, 16, 4], seed=19)
        feed = toys.random_feed((64, 6), n_batches=2, seed=20)
        out, doc = adaround(model, feed, self.small_params(), param_bw=4, seed=1)

        # nearest-rounding baseline at the very same encodings
        nearest = model.copy()
        from fixquant.quantizer import QuantizerSpec
        from fixquant.quantsim import _encoding_from_json

        for key, entries in doc["param_encodings"].items():
            nid = key.rsplit(".", 1)[0]
            encs = [_encoding_from_json(d) for d in entries]
            spec = QuantizerSpec(bitwidth=encs[0].bitwidth, symmetric=True)
            spec.set_encodings(encs)
            nearest.nodes[nid].set_weight("weight", qdq(nearest.nodes[nid].weights["weight"], spec))

        x = np.concatenate(feed)
        ref = model.forward(x)
        mse_ada = float(np.mean((out.forward(x) - ref) ** 2))
        mse_nearest = float(np.mean((nearest.forward(x) - ref) ** 2))
        assert mse_ada <= mse_nearest

    def test_deterministic_for_fixed_seed(self):
        model = toys.mlp([4, 8, 3], seed=21)
        feed = toys.random_feed((16, 4), n_batches=2, seed=22)
        out1, doc1 = adaround(model, feed, self.small_params(), param_bw=4, seed=5)
        out2, doc2 = adaround(model, feed, self.small_params(), param_bw=4, seed=5)
        assert doc1 == doc2
        for nid in out1.nodes:
            for name, arr in out1.nodes[nid].weights.items():
                assert np.array_equal(arr, out2.nodes[nid].weights[name])

    def test_doc_shape_and_frozen_flag(self, tmp_path):
        model = toys.mlp([4, 8, 3], seed=23)
        feed = toys.random_feed((16, 4), n_batches=2, seed=24)
        path = tmp_path / "ada.encodings.json"
        _, doc = adaround(model, feed, self.small_params(), param_bw=8, seed=0, encodings_path=path)
        assert doc["format"] == "fixquant-encodings-v1"
        assert doc["activation_encodings"] == {}
        assert all(e["frozen"] for v in doc["param_encodings"].values() for e in v)
        assert path.exists()

    def test_empty_feed_rejected(self):
        with pytest.raises(CalibrationError):
            adaround(toys.mlp([4, 8, 3], seed=0), [], self.small_params())

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, iterations):
        feed = toys.random_feed((4, 4), n_batches=1)
        with pytest.raises(CalibrationError, match="iteration"):
            adaround(toys.mlp([4, 8, 3], seed=0), feed, AdaRoundParams(num_iterations=iterations))


# ---------------------------------------------------------------------------
# AdaRound oracle: the per-iteration path that the patch GEMMs replaced. It
# runs each layer through the graph kernel and takes the conv weight gradient
# from qat.conv2d_backward; adaround must round to exactly the same weights.


def _adaround_oracle(model, feed, params, param_bw, scheme, seed):
    from fixquant import ptq
    from fixquant.qat import conv2d_backward
    from fixquant.quantsim import ENCODINGS_FORMAT, _encoding_to_json
    from fixquant.range_setting import WEIGHT_CHANNEL_AXIS, RangeAccumulator, compute_encodings_from_accumulator

    def layer_forward(node, w, x):
        return eval_kind(node.kind, node.attrs, {**node.weights, "weight": w}, [x])

    def weight_grad(node, x, gy):
        if node.kind == "linear":
            return gy.T @ (x.reshape(x.shape[0], -1) if x.ndim != 2 else x)
        a = node.attrs
        gw, _, _ = conv2d_backward(
            gy, x, node.weights["weight"], stride=a.get("stride", 1), padding=a.get("padding", 0),
            groups=a.get("groups", 1),
        )
        return gw

    batches = list(feed)
    rng = np.random.default_rng(seed)
    out = model.copy()
    param_encodings = {}
    for nid in [n for n in out.topo_order() if out.nodes[n].kind in ("linear", "conv2d")]:
        node = out.nodes[nid]
        w = node.weights["weight"]
        acc = RangeAccumulator(channel_axis=WEIGHT_CHANNEL_AXIS if scheme.per_channel else None)
        acc.observe(w)
        encs = compute_encodings_from_accumulator(acc, param_bw, symmetric=True, scheme=scheme)
        shape = [len(encs)] + [1] * (w.ndim - 1) if scheme.per_channel else [1] * w.ndim
        s, zp, q_lo, q_hi = (
            np.array([float(getattr(e, a)) for e in encs]).reshape(shape)
            for a in ("scale", "zero_point", "q_lo", "q_hi")
        )
        w_floor = np.floor(w / s)
        rest = np.clip(w / s - w_floor, 1e-4, 1.0 - 1e-4)
        v = np.log((rest - ptq._SIG_GAMMA) / (ptq._SIG_ZETA - ptq._SIG_GAMMA - rest + ptq._SIG_GAMMA))
        xs = [np.asarray(out.evaluate_all(b)[node.inputs[0]], dtype=np.float64) for b in batches]
        targets_y = [layer_forward(node, w, x) for x in xs]
        for it in range(params.num_iterations):
            bi = int(rng.integers(0, len(xs)))
            x, y_ref = xs[bi], targets_y[bi]
            h = ptq._rect_sigmoid(v)
            w_soft = s * (np.clip(w_floor + zp + h, q_lo, q_hi) - zp)
            diff = layer_forward(node, w_soft, x) - y_ref
            g_h = weight_grad(node, x, (2.0 / diff.size) * diff) * s
            g_h = g_h * ((w_floor + zp + h > q_lo) & (w_floor + zp + h < q_hi))
            beta = ptq._beta_at(it, params)
            if it >= int(params.warm_start * params.num_iterations):
                t = np.abs(2.0 * h - 1.0)
                g_h = g_h - params.reg_param * beta * np.power(t, beta - 1.0) * 2.0 * np.sign(2.0 * h - 1.0)
            v = v - params.step_size * g_h * ptq._rect_sigmoid_grad(v)
        h_final = (ptq._rect_sigmoid(v) >= 0.5).astype(np.float64)
        node.set_weight("weight", s * (np.clip(w_floor + zp + h_final, q_lo, q_hi) - zp))
        param_encodings[f"{nid}.weight"] = [_encoding_to_json(e, frozen=True) for e in encs]
    return out, {"format": ENCODINGS_FORMAT, "activation_encodings": {}, "param_encodings": param_encodings}


def _conv_linear_net(groups, stride, padding, seed=0):
    """conv2d (4 -> 4 channels, 3x3) -> relu -> linear on the flattened 4-d map."""
    rng = np.random.default_rng(seed)
    side = (6 + 2 * padding - 3) // stride + 1
    return GraphModel(
        [
            Node("in", "input"),
            Node(
                "cv", "conv2d", inputs=["in"], attrs={"stride": stride, "padding": padding, "groups": groups},
                weights={"weight": rng.normal(0, 0.5, size=(4, 4 // groups, 3, 3)), "bias": rng.normal(0, 0.1, 4)},
            ),
            Node("r", "relu", inputs=["cv"]),
            Node(
                "fc", "linear", inputs=["r"],
                weights={"weight": rng.normal(0, 0.3, size=(3, 4 * side * side)), "bias": rng.normal(0, 0.1, 3)},
            ),
            Node("out", "output", inputs=["fc"]),
        ],
        name="conv_linear",
    )


def _assert_same_rounding(model, feed, params, bw, scheme, seed):
    got, doc = adaround(model, feed, params, param_bw=bw, scheme=scheme, seed=seed)
    want, want_doc = _adaround_oracle(model, feed, params, bw, scheme, seed)
    assert json.dumps(doc, sort_keys=True) == json.dumps(want_doc, sort_keys=True)
    for nid, node in want.nodes.items():
        for name, arr in node.weights.items():
            assert got.nodes[nid].weights[name].tobytes() == arr.tobytes(), (nid, name)


@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_adaround_equals_per_iteration_oracle(groups, stride, padding):
    model = _conv_linear_net(groups, stride, padding)
    rng = np.random.default_rng(7)
    feed = [rng.normal(size=(4, 4, 6, 6)) for _ in range(2)]
    params = AdaRoundParams(num_iterations=40, step_size=5e-2)
    case = groups + stride + padding  # spreads the grid over bitwidths, schemes and seeds
    for bw, per_channel, seed in [((3, 4, 8)[case % 3], case % 2 == 0, 0), ((8, 3, 4)[case % 3], case % 2 == 1, 1)]:
        _assert_same_rounding(model, feed, params, bw, RangeScheme(kind="sqnr", per_channel=per_channel), seed)


def test_adaround_equals_oracle_on_a_long_run_with_large_steps():
    model = fold_batch_norms(toys.conv_bn_relu_conv(c_in=3, c_mid=4, c_out=4, seed=2))
    rng = np.random.default_rng(8)
    feed = [rng.normal(size=(4, 3, 6, 6)) for _ in range(3)]
    params = AdaRoundParams(num_iterations=300, step_size=0.5)
    _assert_same_rounding(model, feed, params, 4, RangeScheme(kind="min_max", per_channel=True), 3)


@pytest.mark.parametrize("budget", [0, 60_000])  # no batch laid out once; only the first
def test_adaround_past_the_patch_budget_equals_oracle(monkeypatch, budget):
    from fixquant import ptq

    model = _conv_linear_net(2, 1, 1, seed=3)
    rng = np.random.default_rng(9)
    feed = [rng.normal(size=(4, 4, 6, 6)) for _ in range(3)]  # 41,472 patch bytes per conv batch
    monkeypatch.setattr(ptq, "_PATCH_BYTES", budget)
    _assert_same_rounding(model, feed, AdaRoundParams(num_iterations=40, step_size=5e-2), 4, RangeScheme(), 2)


def test_adaround_takes_each_layer_target_from_its_input_pass(monkeypatch):
    from fixquant import tensor_core as tc

    model = fold_batch_norms(toys.conv_bn_relu_conv(seed=3))
    feed = toys.random_feed((2, 3, 8, 8), n_batches=2)
    calls = []
    real = tc.conv2d
    monkeypatch.setattr(tc, "conv2d", lambda *a, **k: calls.append(1) or real(*a, **k))
    adaround(model, feed, AdaRoundParams(num_iterations=1))
    # per batch, conv1 for the first layer's pass, then the rounded conv1 and conv2
    assert len(calls) == 2 * 3


def _conv_chain(n=6, seed=0):
    """n padded 3x3 convs (3 -> 4 -> ... -> 4 channels), a relu after each
    but the last. Every even conv carries folded batch-norm statistics, so
    analytic bias correction handles the odd convs behind them in closed
    form and leaves the even ones to the empirical sweep."""
    rng = np.random.default_rng(seed)
    nodes, src = [Node("in", "input")], "in"
    for i in range(n):
        attrs = {"padding": 1}
        if i % 2 == 0:
            attrs["folded_bn"] = {"beta": rng.uniform(-1, 1, 4).tolist(), "gamma": rng.uniform(0.5, 2, 4).tolist()}
        weights = {"weight": rng.normal(0, 0.2, (4, 3 if i == 0 else 4, 3, 3)), "bias": rng.normal(0, 0.1, 4)}
        nodes.append(Node(f"conv{i}", "conv2d", [src], attrs=attrs, weights=weights))
        src = f"conv{i}"
        if i < n - 1:
            nodes.append(Node(f"relu{i}", "relu", [src]))
            src = f"relu{i}"
    nodes.append(Node("out", "output", [src]))
    return GraphModel(nodes, name="conv_chain")


def _branching_net():
    from test_graph_ir import branching_graph

    return branching_graph(seed=4)


def _folded_conv_bn_relu_conv():
    return fold_batch_norms(toys.conv_bn_relu_conv(seed=15))


@pytest.mark.parametrize("make", [_conv_chain, _branching_net])
def test_adaround_on_deep_and_branching_models_equals_oracle(make):
    rng = np.random.default_rng(10)
    feed = [rng.normal(size=(3, 3, 6, 6)) for _ in range(2)]
    # 2 bits and long steps, so a later layer fed unrounded inputs rounds differently
    params = AdaRoundParams(num_iterations=100, step_size=0.2)
    _assert_same_rounding(make(), feed, params, 2, RangeScheme(kind="sqnr", per_channel=True), 1)


def _count_conv_calls(monkeypatch) -> list:
    from fixquant import tensor_core as tc

    calls = []
    real = tc.conv2d
    monkeypatch.setattr(tc, "conv2d", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_per_batch_conv_calls_of_adaround_and_bias_correction(monkeypatch):
    feed = toys.random_feed((2, 3, 6, 6), n_batches=2, seed=11)
    sim = create_quantsim(_conv_chain(), default_param_bw=4)
    compute_encodings(sim, feed)
    calls = _count_conv_calls(monkeypatch)
    # per batch, layer k's pass runs conv k and, from k = 1 on, the rounded conv k - 1: 6 + 5
    adaround(_conv_chain(), feed, AdaRoundParams(num_iterations=1))
    assert len(calls) == 2 * 11
    calls.clear()
    # the float means come from calibration; each conv's kernel runs once, its bias re-added
    bias_correct(sim, mode="empirical", feed=feed)
    assert len(calls) == 2 * 6


def test_bias_correction_runs_its_own_float_pass_for_another_feed(monkeypatch):
    feed = toys.random_feed((2, 3, 6, 6), n_batches=2, seed=11)
    sim = create_quantsim(_conv_chain(), default_param_bw=4)
    compute_encodings(sim, toys.random_feed((2, 3, 6, 6), n_batches=2, seed=12))
    calls = _count_conv_calls(monkeypatch)
    bias_correct(sim, mode="empirical", feed=feed)
    assert len(calls) == 2 * (6 + 6)  # per batch, a float pass of all six, then the quantized sweep


def test_bias_correction_runs_its_own_float_pass_for_a_weight_edited_in_place(monkeypatch):
    feed = toys.random_feed((2, 3, 6, 6), n_batches=2, seed=11)
    sim = create_quantsim(_conv_chain(), default_param_bw=4)
    compute_encodings(sim, feed)
    sim.graph.nodes["conv3"].weights["weight"][0, 0, 0, 0] += 0.25  # same shape, new bytes
    calls = _count_conv_calls(monkeypatch)
    bias_correct(sim, mode="empirical", feed=feed)
    assert len(calls) == 2 * (6 + 6)


def test_a_resumed_sweep_keeps_only_the_values_a_later_pass_reads():
    from fixquant.ptq import _forget

    g = _branching_net()
    values = g.evaluate_all(np.ones((1, 3, 6, 6)), stop="s")
    assert list(values) == ["in", "a", "ra", "b", "s"]
    _forget(values, "s", g.consumers())
    # s is stale; a feeds only ra, which is held; in still feeds c, ra and b feed s
    assert list(values) == ["in", "ra", "b"]


# ---------------------------------------------------------------------------
# Bias-correction oracle: the sweep that resumed passes replaced, one full
# quantized pass per layer and batch; bias_correct must set the same biases.


def _bias_correct_oracle(sim, mode, feed):
    from fixquant import ptq

    graph = sim.graph
    remaining = [nid for nid in graph.topo_order() if graph.nodes[nid].kind in ("linear", "conv2d")]
    analytic = {}
    for nid in list(remaining) if mode == "analytic_then_empirical" else []:
        node = graph.nodes[nid]
        ex = ptq._analytic_input_mean(sim, node)
        if ex is not None:
            analytic[nid] = ptq._input_channel_sum(node, ptq._weight_quant_error(sim, node), ex)
            remaining.remove(nid)
    # the float means of the model as given, before any analytic shift
    batches = ptq._limit_samples(list(feed), ptq.BIAS_CORRECT_SAMPLES)
    fp_mean = {
        nid: np.mean(np.stack([ptq._channel_means(graph.evaluate_all(b)[nid]) for b in batches]), axis=0)
        for nid in remaining
    }
    for nid, err in analytic.items():
        graph.nodes[nid].set_weight("bias", graph.nodes[nid].weights["bias"] - err)
    for nid in remaining:
        q = [ptq._channel_means(sim.evaluate_all(b, capture_raw=True)[1][nid]) for b in batches]
        node = graph.nodes[nid]
        node.set_weight("bias", node.weights["bias"] + (fp_mean[nid] - np.mean(np.stack(q), axis=0)))
    return graph


# Beside the default placement and calibration on the correction feed: a
# quantized bias, so each bias re-add goes through the bias quantizer, and
# calibration on another feed, which leaves no float means to reuse.
@pytest.mark.parametrize(
    "make, mode, case",
    [
        pytest.param(make, mode, case, id="-".join([make.__name__, mode] + [case] * bool(case)))
        for case in ("", "quantized_bias", "other_calibration_feed")
        for make in (_folded_conv_bn_relu_conv, _conv_chain, _branching_net)
        for mode in ("empirical", "analytic_then_empirical")
    ],
)
def test_bias_correct_equals_full_pass_oracle(make, mode, case):
    model = make()
    feed = toys.random_feed((4, 3, 6, 6), n_batches=3, seed=12)
    config = SimConfig.from_dict({"params": {"bias": {"is_quantized": True}}}) if case == "quantized_bias" else None
    calibration = toys.random_feed((4, 3, 6, 6), n_batches=3, seed=13) if case == "other_calibration_feed" else feed
    got, want = (create_quantsim(model.copy(), default_param_bw=4, config=config) for _ in range(2))
    assert any(key.endswith(".bias") for key in got.param_quantizers) == (case == "quantized_bias")
    for sim in (got, want):
        compute_encodings(sim, calibration)
    bias_correct(got, mode=mode, feed=feed)
    _bias_correct_oracle(want, mode, feed)
    for nid, node in want.graph.nodes.items():
        for name, arr in node.weights.items():
            assert got.graph.nodes[nid].weights[name].tobytes() == arr.tobytes(), (nid, name)
    layers = [nid for nid, node in model.nodes.items() if node.kind in ("linear", "conv2d")]
    assert all(not np.array_equal(got.graph.nodes[nid].weights["bias"], model.nodes[nid].weights["bias"]) for nid in layers)


@pytest.mark.parametrize("mode", ["empirical", "analytic_then_empirical", "adaround"])
def test_a_batch_with_no_samples_is_calibration_error_before_any_weight_moves(mode):
    model = _conv_chain()
    feed = [np.ones((2, 3, 6, 6)), np.ones((0, 3, 6, 6))]
    sim = create_quantsim(model.copy(), default_param_bw=4)
    compute_encodings(sim, feed[:1])
    with pytest.raises(CalibrationError, match="batch 1 holds no samples"):
        if mode == "adaround":
            adaround(sim.graph, feed, AdaRoundParams(num_iterations=1))
        else:
            bias_correct(sim, mode=mode, feed=feed)
    for nid, node in model.nodes.items():
        for name, arr in node.weights.items():
            assert sim.graph.nodes[nid].weights[name].tobytes() == arr.tobytes(), (nid, name)


def test_a_non_finite_quantized_layer_output_is_numeric_error():
    # The float output, 20 * 0.51e37 * 1e270, is finite (its mean over the
    # two rows is not, which calibration must not warn about); with the
    # weight rounded up to the frozen grid's 1e37 the accumulator overflows.
    from fixquant.quantizer import QuantEncoding

    g = GraphModel(
        [
            Node("in", "input"),
            Node("fc", "linear", ["in"], weights={"weight": np.full((1, 20), 0.51e37), "bias": np.zeros(1)}),
            Node("out", "output", ["fc"]),
        ]
    )
    config = SimConfig.from_dict(
        {"defaults": {"ops": {"is_output_quantized": False}}, "model_output": {"is_output_quantized": False}}
    )
    sim = create_quantsim(g, config=config)
    feed = [np.full((2, 20), 1e270)]
    compute_encodings(sim, feed)
    spec = sim.param_quantizers["fc.weight"]
    spec.set_encodings([QuantEncoding(scale=1e37, bitwidth=8, signed=True, symmetric=True)])
    spec.frozen = True
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="linear output"):
        bias_correct(sim, mode="empirical", feed=feed)


def test_analytic_mode_corrects_empirical_layers_toward_the_model_as_given():
    """conv2 and conv4 sit behind the analytically corrected conv1 and conv3;
    their quantized mean pre-activations must meet the original float
    model's, not those of a float model with conv1 and conv3 shifted."""
    from fixquant import ptq

    model = _conv_chain()
    feed = toys.random_feed((16, 3, 6, 6), n_batches=4, seed=13)
    sim = create_quantsim(model.copy(), default_param_bw=4)
    compute_encodings(sim, feed)
    bias_correct(sim, mode="analytic_then_empirical", feed=feed)
    batches = ptq._limit_samples(feed, ptq.BIAS_CORRECT_SAMPLES)
    for nid in ("conv2", "conv4"):
        fp = np.mean([ptq._channel_means(model.evaluate_all(b)[nid]) for b in batches], axis=0)
        q = np.mean([ptq._channel_means(sim.evaluate_all(b, capture_raw=True)[1][nid]) for b in batches], axis=0)
        assert np.max(np.abs(q - fp)) <= 1e-6, nid


def test_adaround_rejects_bad_layer_shapes_before_iterating():
    model = _conv_linear_net(2, 1, 1)
    model.nodes["cv"].attrs["groups"] = 3  # 4 channels do not split into 3 groups
    feed = [np.ones((2, 4, 6, 6))]
    with pytest.raises(ShapeError, match="groups"):
        adaround(model, feed, AdaRoundParams(num_iterations=1))


def test_adaround_non_finite_layer_output_is_numeric_error():
    # the first weight gradient overflows, so the second forward pass is NaN
    model = toys.mlp([4, 8, 3], seed=0)
    feed = [np.full((4, 4), 1e300)]
    params = AdaRoundParams(num_iterations=3)
    with np.errstate(all="ignore"):
        for run in (adaround, _adaround_oracle):
            with pytest.raises(NumericError):
                run(model, feed, params, 8, RangeScheme(kind="sqnr"), 0)


def test_run_ptq_pipeline_produces_ready_sim():
    model = toys.mlp([4, 10, 3], seed=25)
    feed = toys.random_feed((32, 4), n_batches=3, seed=26)
    opts = PtqOptions(
        param_bw=4,
        adaround_params=AdaRoundParams(num_iterations=200),
        use_bias_correction=True,
    )
    sim = run_ptq_pipeline(model, feed, opts)
    sim.check_ready()
    # adaround encodings came in frozen
    assert sim.param_quantizers["fc0.weight"].frozen
    y = sim.forward(feed[0])
    assert np.isfinite(y).all()
