import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixquant import ptq, qat
from fixquant import tensor_core as tc
from fixquant import toys
from fixquant.errors import CalibrationError, NumericError, ShapeError
from fixquant.graph_ir import GraphModel, Node
from fixquant.qat import (
    QatOptions,
    _avgpool_grad,
    _maxpool_grad,
    backward,
    conv2d_backward,
    forward_with_tape,
    mse_loss,
    qat_train,
    softmax_cross_entropy,
)
from fixquant.quantsim import SimConfig, compute_encodings, create_quantsim


def mixed_graph(seed=0):
    """Touches every differentiable kind: conv, bn, relu6, pools, add, concat, linear."""
    rng = np.random.default_rng(seed)
    c = 3
    return GraphModel(
        [
            Node("in", "input"),
            Node(
                "conv",
                "conv2d",
                ["in"],
                attrs={"stride": 1, "padding": 1},
                weights={"weight": rng.normal(size=(4, c, 3, 3)) * 0.4, "bias": rng.normal(size=4) * 0.1},
            ),
            Node(
                "bn",
                "batchnorm",
                ["conv"],
                weights={
                    "gamma": rng.uniform(0.5, 1.5, 4),
                    "beta": rng.normal(size=4) * 0.2,
                    "mean": rng.normal(size=4) * 0.2,
                    "var": rng.uniform(0.5, 1.5, 4),
                },
            ),
            Node("act", "relu6", ["bn"]),
            Node("mp", "maxpool", ["act"], attrs={"kernel": 2, "stride": 2}),
            Node("ap", "avgpool", ["act"], attrs={"kernel": 2, "stride": 2}),
            Node("cat", "concat", ["mp", "ap"], attrs={"axis": 1}),
            Node("skip", "add", ["cat", "cat"]),
            Node(
                "fc",
                "linear",
                ["skip"],
                weights={"weight": rng.normal(size=(3, 8 * 3 * 3)) * 0.2, "bias": np.zeros(3)},
            ),
            Node("out", "output", ["fc"]),
        ]
    )


def calibrated_sim(model, feed_shape, seed=0, **kw):
    sim = create_quantsim(model, **kw)
    compute_encodings(sim, toys.random_feed(feed_shape, n_batches=2, seed=seed))
    return sim


def numeric_weight_grad(f, w, eps=1e-6):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        g[i] = (f(wp) - f(wm)) / (2 * eps)
        it.iternext()
    return g


class TestTapeForward:
    def test_disabled_quantizers_make_tape_bit_identical_to_graph(self):
        model = mixed_graph(seed=1)
        sim = calibrated_sim(model, (2, 3, 6, 6), seed=2)
        for spec in sim.all_quantizers().values():
            spec.enabled = False
        x = np.random.default_rng(3).normal(size=(2, 3, 6, 6))
        tape = forward_with_tape(sim, x)
        assert np.array_equal(tape.values[tape.output_id], model.forward(x))

    def test_tape_matches_sim_forward_when_quantized(self):
        model = mixed_graph(seed=4)
        x = np.random.default_rng(6).normal(size=(2, 3, 6, 6))
        for config in (None, SimConfig.from_dict({"model_input": {"is_input_quantized": True}})):
            sim = calibrated_sim(model, (2, 3, 6, 6), seed=5, config=config)
            tape = forward_with_tape(sim, x)
            assert np.array_equal(tape.values[tape.output_id], sim.forward(x))

    def test_the_tape_records_each_raw_output_before_its_quantizer(self):
        model = mixed_graph(seed=14)
        sim = calibrated_sim(model, (2, 3, 6, 6), seed=15, default_param_bw=4)
        x = np.random.default_rng(16).normal(size=(2, 3, 6, 6))
        tape = forward_with_tape(sim, x)
        full = sim.evaluate_all(x)
        assert list(tape.raw) == list(tape.values) == list(full) == list(model.nodes)
        for nid, y in tape.raw.items():
            assert sim.quantize_output(nid, y).tobytes() == tape.values[nid].tobytes() == full[nid].tobytes()

    def test_weights_are_quantized_once_per_step(self, monkeypatch):
        from fixquant.quantsim import QuantSimModel

        model = mixed_graph(seed=7)
        sim = calibrated_sim(model, (8, 3, 6, 6), seed=8)
        calls = []
        original = QuantSimModel.quantized_weights
        monkeypatch.setattr(
            QuantSimModel, "quantized_weights", lambda self, node: calls.append(node.id) or original(self, node)
        )
        x = np.random.default_rng(9).normal(size=(8, 3, 6, 6))
        qat_train(sim, x, model.forward(x), loss_fn=mse_loss, options=QatOptions(epochs=2, batch_size=4))
        weighted = sorted(nid for nid, n in model.nodes.items() if n.weights)
        assert sorted(calls) == sorted(weighted * 4)  # 2 epochs x 2 steps

    def test_backward_uses_the_weights_the_forward_ran_with(self):
        model = mixed_graph(seed=10)
        sim = calibrated_sim(model, (2, 3, 6, 6), seed=11, default_param_bw=4)
        x = np.random.default_rng(12).normal(size=(2, 3, 6, 6))
        tape = forward_with_tape(sim, x)
        gy = np.random.default_rng(13).normal(size=tape.values[tape.output_id].shape)
        fresh = {nid: sim.quantized_weights(n) for nid, n in sim.graph.nodes.items() if n.weights}
        assert sorted(tape.weights) == sorted(fresh)
        for nid, w in fresh.items():
            assert all(np.array_equal(w[k], tape.weights[nid][k]) for k in w)
        requantized = type(tape)(tape.values, tape.raw, tape.output_id, fresh)
        got, want = backward(sim, tape, gy), backward(sim, requantized, gy)
        assert sorted(got) == sorted(want)
        for nid in want:
            for k in ("weight", "bias"):
                assert np.array_equal(got[nid][k], want[nid][k])


class TestConvBackward:
    def test_weight_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        gy = rng.normal(size=(2, 4, 3, 3))

        def out_sum(wv):
            return float(np.sum(tc.conv2d(x, wv, np.zeros(4), stride=2, padding=1) * gy))

        gw, gx, gb = conv2d_backward(gy, x, w, stride=(2, 2), padding=(1, 1), groups=1)
        assert np.allclose(gw, numeric_weight_grad(out_sum, w), atol=1e-5)
        assert np.allclose(gb, gy.sum(axis=(0, 2, 3)))

    def test_input_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        gy = rng.normal(size=(1, 3, 4, 4))

        def out_sum(xv):
            return float(np.sum(tc.conv2d(xv, w, np.zeros(3), padding=1) * gy))

        _, gx, _ = conv2d_backward(gy, x, w, stride=(1, 1), padding=(1, 1), groups=1)
        assert np.allclose(gx, numeric_weight_grad(out_sum, x), atol=1e-5)

    def test_grouped_grads(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 4, 4))
        w = rng.normal(size=(4, 1, 3, 3)) * 0.5
        gy = rng.normal(size=(2, 4, 4, 4))

        def out_sum(wv):
            return float(np.sum(tc.conv2d(x, wv, np.zeros(4), padding=1, groups=4) * gy))

        gw, gx, _ = conv2d_backward(gy, x, w, stride=(1, 1), padding=(1, 1), groups=4)
        assert np.allclose(gw, numeric_weight_grad(out_sum, w), atol=1e-5)

        def in_sum(xv):
            return float(np.sum(tc.conv2d(xv, w, np.zeros(4), padding=1, groups=4) * gy))

        assert np.allclose(gx, numeric_weight_grad(in_sum, x), atol=1e-5)


# The patch-slicing gradients that tc.windows / tc.windows_adjoint replaced,
# kept as oracles.


def _pad2d(x, padding):
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _conv2d_patches(x, kh, kw, stride):
    sh, sw = stride
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    sn, sc, sy, sx = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, ho, wo, kh, kw), strides=(sn, sc, sy * sh, sx * sw, sy, sx), writeable=False
    )


def _conv2d_backward_loop(gy, x, w, stride, padding, groups):
    stride = tc._pair(stride, "stride")
    padding = tc._pair(padding, "padding")
    oc, icg, kh, kw = w.shape
    xp = _pad2d(x, padding)
    ocg = oc // groups
    patches = _conv2d_patches(xp, kh, kw, stride)
    gw = np.empty(w.shape, dtype=np.float64)
    for g in range(groups):
        pg = patches[:, g * icg : (g + 1) * icg]
        gg = gy[:, g * ocg : (g + 1) * ocg]
        gw[g * ocg : (g + 1) * ocg] = np.einsum("nchwkl,nohw->ockl", pg, gg)
    gb = gy.sum(axis=(0, 2, 3))
    gxp = np.zeros_like(xp)
    sh, sw = stride
    ho, wo = gy.shape[2], gy.shape[3]
    for g in range(groups):
        wg = w[g * ocg : (g + 1) * ocg]
        gg = gy[:, g * ocg : (g + 1) * ocg]
        contrib = np.einsum("nohw,ockl->nchwkl", gg, wg)
        for i in range(kh):
            for j in range(kw):
                gxp[:, g * icg : (g + 1) * icg, i : i + ho * sh : sh, j : j + wo * sw : sw] += contrib[
                    :, :, :, :, i, j
                ]
    ph, pw = padding
    gx = gxp[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]]
    return gw, gx, gb


def _pool_geometry(attrs):
    kernel = attrs["kernel"]
    return (
        tc._pair(kernel, "kernel"),
        tc._pair(attrs.get("stride", kernel), "stride"),
        tc._pair(attrs.get("padding", 0), "padding"),
    )


def _maxpool_grad_loop(gy, x, attrs):
    kernel, stride, padding = _pool_geometry(attrs)
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    patches = _conv2d_patches(xp, kernel[0], kernel[1], stride)
    n, c, ho, wo, kh, kw = patches.shape
    arg = patches.reshape(n, c, ho, wo, kh * kw).argmax(axis=-1)
    h, w = x.shape[2], x.shape[3]
    gxp = np.zeros((n, c, h + 2 * padding[0], w + 2 * padding[1]))
    oy = np.arange(ho)[None, None, :, None] * stride[0]
    ox = np.arange(wo)[None, None, None, :] * stride[1]
    rows = (oy + arg // kernel[1]).ravel()
    cols = (ox + arg % kernel[1]).ravel()
    ni = np.repeat(np.arange(n), c * ho * wo)
    ci = np.tile(np.repeat(np.arange(c), ho * wo), n)
    np.add.at(gxp, (ni, ci, rows, cols), gy.ravel())
    return gxp[:, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w]


def _avgpool_grad_loop(gy, in_shape, attrs):
    kernel, stride, padding = _pool_geometry(attrs)
    n, c, h, w = in_shape
    gxp = np.zeros((n, c, h + 2 * padding[0], w + 2 * padding[1]))
    ho, wo = gy.shape[2], gy.shape[3]
    share = gy / (kernel[0] * kernel[1])
    for i in range(kernel[0]):
        for j in range(kernel[1]):
            gxp[:, :, i : i + ho * stride[0] : stride[0], j : j + wo * stride[1] : stride[1]] += share
    return gxp[:, :, padding[0] : padding[0] + h, padding[1] : padding[1] + w]


def _assert_backward_equals_loop(gy, x, w, stride, padding, groups):
    want = _conv2d_backward_loop(gy, x, w, stride, padding, groups)
    for a, b in zip(conv2d_backward(gy, x, w, stride, padding, groups), want):
        assert np.array_equal(a, b)
    gw, gx, gb = conv2d_backward(gy, x, w, stride, padding, groups, need_input_grad=False)
    assert gx is None and np.array_equal(gw, want[0]) and np.array_equal(gb, want[2])


@st.composite
def conv_cases(draw):
    """(x shape, w shape, stride, padding, groups, seed) of a conv that fits."""
    n, groups = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cg, og = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    h = draw(st.integers(max(1, kh - 2 * padding[0]), 20))
    w = draw(st.integers(max(1, kw - 2 * padding[1]), 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, groups * cg, h, w), (groups * og, cg, kh, kw), stride, padding, groups, seed


class TestWindowedGradsEqualLoopOracles:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("stride", [1, 2, (2, 1)])
    @pytest.mark.parametrize("padding", [0, 1, (0, 1)])
    def test_conv2d_backward(self, groups, stride, padding):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(2, 4, 7, 6))
        for kh, kw in [(1, 1), (3, 3), (2, 3), (3, 1)]:
            w = rng.normal(size=(6 if groups < 4 else 4, 4 // groups, kh, kw))
            gy = rng.normal(size=tc.conv2d(x, w, stride=stride, padding=padding, groups=groups).shape)
            _assert_backward_equals_loop(gy, x, w, stride, padding, groups)

    # The workloads' shapes: the input gradient's inner loop runs over n*h*w
    # elements, so these pin both the vector body and the tail of that loop.
    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, padding, groups",
        [
            ((16, 16, 16, 16), (16, 16, 3, 3), 1, 1, 1),
            ((16, 3, 16, 16), (16, 3, 3, 3), 1, 1, 1),
            ((32, 16, 16, 16), (16, 1, 3, 3), 1, 1, 16),
            ((32, 16, 16, 16), (16, 1, 3, 3), 2, 1, 16),
            ((32, 16, 16, 16), (16, 16, 1, 1), 1, 0, 1),
        ],
        ids=["conv2", "conv1", "depthwise", "depthwise_s2", "pointwise"],
    )
    def test_conv2d_backward_at_workload_shapes(self, x_shape, w_shape, stride, padding, groups):
        rng = np.random.default_rng(31)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gy = rng.normal(size=tc.conv2d(x, w, stride=stride, padding=padding, groups=groups).shape)
        _assert_backward_equals_loop(gy, x, w, stride, padding, groups)

    # Both sides of the contiguous-copy guard: a w stride of 1 with kw > 1
    # takes the copy, a wider stride or kw == 1 the strided view.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=conv_cases())
    @example(case=((2, 4, 7, 6), (6, 2, 3, 3), (1, 1), (1, 1), 2, 0))
    @example(case=((2, 4, 7, 6), (6, 2, 3, 3), (1, 2), (1, 1), 2, 0))
    def test_conv2d_backward_equals_loop_over_drawn_shapes(self, case):
        x_shape, w_shape, stride, padding, groups, seed = case
        rng = np.random.default_rng(seed)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gy = rng.normal(size=tc.conv2d(x, w, stride=stride, padding=padding, groups=groups).shape)
        _assert_backward_equals_loop(gy, x, w, stride, padding, groups)

    def test_window_copy_is_freed_before_the_input_gradient_is_summed(self):
        rng = np.random.default_rng(32)
        x, w = rng.normal(size=(32, 16, 16, 16)), rng.normal(size=(16, 16, 3, 3))
        gy = rng.normal(size=x.shape)
        # The (n, c, h, kh, kw, w) window copy and the (c, kh, kw, n, h, w)
        # contribution each hold kh*kw times the input.
        copy_bytes = contrib_bytes = 9 * x.nbytes
        peak = peak_bytes(lambda: conv2d_backward(gy, x, w, stride=1, padding=1, need_input_grad=True))
        assert peak < copy_bytes + contrib_bytes

    @pytest.mark.parametrize("stride", [None, 1, 2, 3, (2, 1)])
    @pytest.mark.parametrize("padding", [0, 1, (0, 1)])
    def test_pool_grads(self, stride, padding):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 7, 6))
        for kernel in [2, 3, (2, 3), (3, 2)]:
            attrs = {"kernel": kernel, "padding": padding}
            if stride is not None:
                attrs["stride"] = stride
            kh, kw = tc._pair(kernel, "kernel")
            sh, sw = tc._pair(attrs.get("stride", kernel), "stride")
            gy = rng.normal(size=tc.elementwise("maxpool", [x], **attrs).shape)
            assert np.array_equal(_avgpool_grad(gy, x.shape, attrs), _avgpool_grad_loop(gy, x.shape, attrs))
            got, want = _maxpool_grad(gy, x, attrs), _maxpool_grad_loop(gy, x, attrs)
            if sh >= kh and sw >= kw:
                assert np.array_equal(got, want), kernel
            else:
                # Overlapping windows: several gradients can land on one
                # input, summed in kernel-offset order, not output order.
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(gy).max()), kernel
            if stride is None:
                # An explicit null stride means the kernel, as in the forward pass.
                null = {**attrs, "stride": None}
                assert np.array_equal(_maxpool_grad(gy, x, null), got)
                assert np.array_equal(_avgpool_grad(gy, x.shape, null), _avgpool_grad(gy, x.shape, attrs))

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_overlapping_padded_pool_grads_match_finite_differences(self, kind):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(2, 2, 5, 4))
        attrs = {"kernel": 3, "stride": 1, "padding": 1}
        gy = rng.normal(size=tc.elementwise(kind, [x], **attrs).shape)

        def out_sum(xv):
            return float(np.sum(tc.elementwise(kind, [xv], **attrs) * gy))

        got = _maxpool_grad(gy, x, attrs) if kind == "maxpool" else _avgpool_grad(gy, x.shape, attrs)
        assert np.allclose(got, numeric_weight_grad(out_sum, x), atol=1e-6)


class TestBackwardThroughGraph:
    def test_float_path_gradcheck_all_kinds(self):
        model = mixed_graph(seed=10)
        sim = calibrated_sim(model, (2, 3, 6, 6), seed=11)
        for spec in sim.all_quantizers().values():
            spec.enabled = False
        x = np.random.default_rng(12).normal(size=(2, 3, 6, 6))
        target = np.random.default_rng(13).normal(size=(2, 3))

        tape = forward_with_tape(sim, x)
        _, gy = mse_loss(tape.values[tape.output_id], target)
        grads = backward(sim, tape, gy)

        for nid in ("conv", "fc"):
            w = model.nodes[nid].weights["weight"]

            def loss_at(wv, nid=nid):
                g2 = model.copy()
                # raw assignment: set_weight would snap the probe step to the
                # float32 grid and corrupt the finite difference
                g2.nodes[nid].weights["weight"] = wv
                return mse_loss(g2.forward(x), target)[0]

            num = numeric_weight_grad(loss_at, w, eps=1e-6)
            rel = np.abs(grads[nid]["weight"] - num).max() / max(np.abs(num).max(), 1e-12)
            assert rel < 1e-4, f"{nid} weight grad off by {rel}"

    def test_bias_grads(self):
        model = mixed_graph(seed=14)
        sim = calibrated_sim(model, (2, 3, 6, 6), seed=15)
        for spec in sim.all_quantizers().values():
            spec.enabled = False
        x = np.random.default_rng(16).normal(size=(2, 3, 6, 6))
        target = np.random.default_rng(17).normal(size=(2, 3))
        tape = forward_with_tape(sim, x)
        _, gy = mse_loss(tape.values[tape.output_id], target)
        grads = backward(sim, tape, gy)

        b = model.nodes["fc"].weights["bias"]

        def loss_at(bv):
            g2 = model.copy()
            g2.nodes["fc"].weights["bias"] = bv
            return mse_loss(g2.forward(x), target)[0]

        assert np.allclose(grads["fc"]["bias"], numeric_weight_grad(loss_at, b, eps=1e-6), atol=1e-6)

    def test_skipping_unused_input_gradients_keeps_parameter_gradients(self, monkeypatch):
        # conv1 reads the graph input: nothing upstream of it has parameters
        sim = calibrated_sim(toys.conv_bn_relu_conv(seed=21), (4, 3, 8, 8), seed=22)
        x = np.random.default_rng(23).normal(size=(4, 3, 8, 8))
        tape = forward_with_tape(sim, x)
        gy = np.random.default_rng(24).normal(size=tape.values[tape.output_id].shape)
        asked = []

        def counting(*args, need_input_grad=True, **kw):
            asked.append(need_input_grad)
            return conv2d_backward(*args, need_input_grad=need_input_grad, **kw)

        def always_full(*args, need_input_grad=True, **kw):
            return conv2d_backward(*args, need_input_grad=True, **kw)

        monkeypatch.setattr(qat, "conv2d_backward", counting)
        skipped = backward(sim, tape, gy)
        assert asked == [True, False]  # conv2, then conv1
        monkeypatch.setattr(qat, "conv2d_backward", always_full)
        full = backward(sim, tape, gy)
        assert skipped.keys() == full.keys() == {"conv1", "conv2"}
        for nid, grads in full.items():
            for name, g in grads.items():
                assert np.array_equal(skipped[nid][name], g), (nid, name)

    def test_ste_blocks_gradient_for_clipped_weights(self):
        # one weight far outside the quantization grid gets zero gradient
        model = toys.mlp([2, 3, 2], seed=18)
        w = model.nodes["fc0"].weights["weight"].copy()
        w[0, 0] = 50.0  # will clip at the symmetric grid edge... unless it sets the range
        model.nodes["fc0"].set_weight("weight", w)
        sim = create_quantsim(model)
        compute_encodings(sim, toys.random_feed((8, 2), n_batches=2, seed=19))
        # shrink the grid by hand so the outlier is genuinely clipped
        from fixquant.quantizer import QuantEncoding

        spec = sim.param_quantizers["fc0.weight"]
        spec.set_encodings(QuantEncoding(scale=1.0 / 127, zero_point=0, bitwidth=8, signed=True, symmetric=True))
        x = np.random.default_rng(20).normal(size=(4, 2))
        tape = forward_with_tape(sim, x)
        _, gy = mse_loss(tape.values[tape.output_id], np.zeros((4, 2)))
        grads = backward(sim, tape, gy)
        assert grads["fc0"]["weight"][0, 0] == 0.0
        assert np.any(grads["fc0"]["weight"] != 0.0)


class TestLosses:
    def test_mse_loss_value_and_grad(self):
        y = np.array([[1.0, 2.0]])
        t = np.array([[0.0, 0.0]])
        loss, gy = mse_loss(y, t)
        assert loss == pytest.approx(2.5)
        assert np.allclose(gy, 2 * (y - t) / y.size)

    def test_softmax_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        loss, gy = softmax_cross_entropy(logits, labels)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ref = -np.mean([np.log(p[0, 0]), np.log(p[1, 2])])
        assert loss == pytest.approx(ref)
        onehot = np.zeros_like(p)
        onehot[0, 0] = onehot[1, 2] = 1
        assert np.allclose(gy, (p - onehot) / 2)

    def test_mse_loss_rejects_targets_of_another_shape(self):
        # (4, 1) against (4,) would broadcast to (4, 4)
        with pytest.raises(ShapeError, match="does not fit"):
            mse_loss(np.zeros((4, 1)), np.zeros(4))

    @pytest.mark.parametrize(
        "logits, labels",
        [(np.zeros((2, 3)), [0, 3]), (np.zeros((2, 3)), [-1, 0]), (np.zeros(3), [0]), (np.zeros((2, 3)), [[0], [1]])],
    )
    def test_softmax_cross_entropy_rejects_labels_off_the_logits(self, logits, labels):
        with pytest.raises(ShapeError, match="label"):
            softmax_cross_entropy(logits, np.array(labels))

    def test_softmax_stable_for_large_logits(self):
        loss, gy = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss) and np.isfinite(gy).all()


class TestQatTrain:
    def spiral_sim(self, bw=8):
        ds = toys.spiral_dataset(n_per_class=60, seed=0)
        model = toys.mlp([2, 16, 2], seed=1)
        sim = create_quantsim(model, default_param_bw=bw)
        compute_encodings(sim, [ds.x[:64]])
        return sim, ds

    def test_loss_decreases(self):
        sim, ds = self.spiral_sim()
        log = qat_train(sim, ds.x, ds.y, options=QatOptions(epochs=6, learning_rate=0.05), seed=0)
        assert log[-1]["loss"] < log[0]["loss"]

    def test_lr_decays_on_schedule(self):
        sim, ds = self.spiral_sim()
        log = qat_train(
            sim, ds.x, ds.y, options=QatOptions(epochs=7, learning_rate=0.01, lr_decay_every=3), seed=0
        )
        assert log[0]["lr"] == pytest.approx(0.01)
        assert log[3]["lr"] == pytest.approx(0.001)
        assert log[6]["lr"] == pytest.approx(0.0001)

    def test_empty_data_rejected(self):
        sim, ds = self.spiral_sim()
        with pytest.raises(CalibrationError):
            qat_train(sim, ds.x[:0], ds.y[:0], options=QatOptions(epochs=1))

    @pytest.mark.parametrize(
        "bad",
        [
            {"learning_rate": -1.0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"epochs": 0},
            {"epochs": -1},
            {"batch_size": 0},
            {"batch_size": -1},
        ],
        ids=str,
    )
    def test_bad_options_rejected_before_any_step(self, bad):
        sim, ds = self.spiral_sim()
        before = {nid: dict(n.weights) for nid, n in sim.graph.nodes.items()}
        with pytest.raises(CalibrationError):
            qat_train(sim, ds.x, ds.y, options=QatOptions(**{"epochs": 1, **bad}), seed=0)
        for nid, node in sim.graph.nodes.items():
            assert all(node.weights[k] is w for k, w in before[nid].items())

    @pytest.mark.parametrize("n_targets", [7, 13])
    def test_target_count_mismatch_rejected_before_any_step(self, n_targets):
        sim, ds = self.spiral_sim()
        before = {nid: dict(n.weights) for nid, n in sim.graph.nodes.items()}
        y = np.resize(ds.y, n_targets)
        with pytest.raises(ShapeError, match=f"one target per input, got 10 and {n_targets}"):
            qat_train(sim, ds.x[:10], y, options=QatOptions(epochs=1, batch_size=4), seed=0)
        for nid, node in sim.graph.nodes.items():
            assert all(node.weights[k] is w for k, w in before[nid].items())

    def test_divergence_raises_numeric_error(self):
        # mse against an overflowing target: loss hits inf on the first batch
        sim, ds = self.spiral_sim()
        from fixquant.qat import mse_loss

        targets = np.full((ds.x.shape[0], 2), 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            qat_train(sim, ds.x, targets, loss_fn=mse_loss, options=QatOptions(epochs=1), seed=0)

    def test_csv_log_written(self, tmp_path):
        sim, ds = self.spiral_sim()
        p = tmp_path / "log.csv"
        log = qat_train(sim, ds.x, ds.y, options=QatOptions(epochs=2, log_path=str(p)), seed=0)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,lr"
        assert len(lines) == 1 + len(log)

    def test_weights_stay_on_float32_values(self):
        sim, ds = self.spiral_sim()
        qat_train(sim, ds.x, ds.y, options=QatOptions(epochs=1), seed=0)
        w = sim.graph.nodes["fc0"].weights["weight"]
        assert np.array_equal(w, w.astype(np.float32).astype(np.float64))

    def test_frozen_encodings_survive_range_refresh(self):
        sim, ds = self.spiral_sim()
        spec = sim.param_quantizers["fc0.weight"]
        spec.frozen = True
        before = list(spec.encodings)
        qat_train(
            sim, ds.x, ds.y, options=QatOptions(epochs=2, refresh_ranges=True, learning_rate=0.05), seed=0
        )
        assert spec.encodings == before
        # non-frozen weight quantizers were re-derived
        assert sim.param_quantizers["fc1.weight"].encodings is not None

    def test_range_refresh_computes_each_weight_encoding_once_per_epoch(self, monkeypatch):
        sim, ds = self.spiral_sim()
        calls = dict.fromkeys(sim.param_quantizers, 0)
        for key, spec in sim.param_quantizers.items():

            def counted(*args, _key=key, _set=spec.set_encodings, **kwargs):
                calls[_key] += 1
                return _set(*args, **kwargs)

            monkeypatch.setattr(spec, "set_encodings", counted)
        qat_train(sim, ds.x, ds.y, options=QatOptions(epochs=3, refresh_ranges=True), seed=0)
        assert calls == dict.fromkeys(sim.param_quantizers, 3)

    def test_deterministic_given_seed(self):
        sim1, ds = self.spiral_sim()
        sim2, _ = self.spiral_sim()
        log1 = qat_train(sim1, ds.x, ds.y, options=QatOptions(epochs=3), seed=7)
        log2 = qat_train(sim2, ds.x, ds.y, options=QatOptions(epochs=3), seed=7)
        assert log1 == log2
        w1 = sim1.graph.nodes["fc0"].weights["weight"]
        w2 = sim2.graph.nodes["fc0"].weights["weight"]
        assert np.array_equal(w1, w2)


def _conv_geometry(node):
    return node.attrs.get("stride", 1), node.attrs.get("padding", 0), node.attrs.get("groups", 1)


def _conv_chain_sgd_oracle(model, x, t, epochs, bs, lr, decay_every, seed):
    """Hand-rolled minibatch SGD with an MSE loss for a chain of conv2d and
    relu nodes: the float forward, the loop oracle's gradients, the trainer's
    shuffle stream and learning-rate schedule, and the float32 value snap
    applied to stored weights. Returns {conv id: (weight, bias)} and, per
    step, {conv id: (weight gradient, bias gradient)}."""
    chain = [model.nodes[nid] for nid in list(model.nodes) if model.nodes[nid].kind in ("conv2d", "relu")]
    assert {n.kind for n in model.nodes.values()} == {"input", "conv2d", "relu", "output"}
    params = {n.id: (n.weights["weight"].copy(), n.weights["bias"].copy()) for n in chain if n.kind == "conv2d"}
    rng, steps = np.random.default_rng(seed), []
    for epoch in range(epochs):
        if epoch > 0 and decay_every > 0 and epoch % decay_every == 0:
            lr *= 0.1
        order = rng.permutation(len(x))
        for start in range(0, len(x), bs):
            idx = order[start : start + bs]
            acts, grads = [x[idx]], {}
            steps.append(grads)
            for node in chain:
                if node.kind == "relu":
                    acts.append(np.maximum(acts[-1], 0.0))
                else:
                    stride, padding, groups = _conv_geometry(node)
                    acts.append(tc.conv2d(acts[-1], *params[node.id], stride, padding, groups))
            diff = acts[-1] - t[idx]
            g = (2.0 / diff.size) * diff
            for node, a in zip(reversed(chain), reversed(acts[:-1])):
                if node.kind == "relu":
                    g = g * (a > 0).astype(np.float64)
                else:
                    w, b = params[node.id]
                    gw, g, gb = _conv2d_backward_loop(g, a, w, *_conv_geometry(node))
                    grads[node.id] = (gw, gb)
                    params[node.id] = (tc.f32(w - lr * gw), tc.f32(b - lr * gb))
    return params, steps


class TestConvPlainSgdParity:
    @pytest.mark.parametrize(
        "model",
        [ptq.fold_batch_norms(toys.conv_bn_relu_conv(seed=4)), toys.depthwise_net(seed=4)],
        ids=lambda m: m.name,
    )
    def test_disabled_quantizers_train_as_plain_sgd_bit_for_bit(self, model, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 3, 8, 8))
        t = rng.normal(size=model.forward(x).shape)
        want, want_steps = _conv_chain_sgd_oracle(model, x, t, epochs=3, bs=8, lr=0.05, decay_every=2, seed=13)

        # The float32 snap of each update hides a gradient's last bits, so
        # every step's gradients are compared as well as the weights.
        steps, real_backward = [], qat.backward
        monkeypatch.setattr(qat, "backward", lambda *a: steps.append(real_backward(*a)) or steps[-1])
        sim = create_quantsim(model)
        for spec in [*sim.activation_quantizers.values(), *sim.param_quantizers.values()]:
            spec.enabled = False
        options = QatOptions(epochs=3, batch_size=8, learning_rate=0.05, lr_decay_every=2)
        qat_train(sim, x, t, loss_fn=mse_loss, options=options, seed=13)
        assert len(steps) == len(want_steps) == 9
        for got, grads in zip(steps, want_steps):
            assert got.keys() == grads.keys()
            for nid, (gw, gb) in grads.items():
                assert np.array_equal(got[nid]["weight"], gw) and np.array_equal(got[nid]["bias"], gb), nid
        for nid, (w, b) in want.items():
            weights = sim.graph.nodes[nid].weights
            assert not np.array_equal(w, model.nodes[nid].weights["weight"]), nid  # training moved it
            assert np.array_equal(weights["weight"], w) and np.array_equal(weights["bias"], b), nid
