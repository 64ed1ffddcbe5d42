import warnings

import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fixquant import tensor_core as tc
from fixquant.errors import NumericError, ShapeError


def test_f32_snaps_to_float32_grid():
    x = tc.f32(0.1)
    assert x.dtype == np.float64
    assert x.item() == float(np.float32(0.1))


def test_ensure_finite_rejects_nan_and_inf():
    with pytest.raises(NumericError):
        tc.ensure_finite(np.array([1.0, np.nan]), "x")
    with pytest.raises(NumericError):
        tc.ensure_finite(np.array([np.inf]), "x")


class TestLinear:
    def test_matches_manual_affine(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=(4,))
        assert np.allclose(tc.linear(x, w, b), x @ w.T + b)

    def test_flattens_feature_maps(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2)
        w = np.ones((1, 12))
        y = tc.linear(x, w)
        assert y.shape == (2, 1)
        assert np.allclose(y[:, 0], x.reshape(2, -1).sum(axis=1))

    def test_bad_feature_count(self):
        with pytest.raises(ShapeError):
            tc.linear(np.ones((2, 3)), np.ones((4, 5)))


class TestConv2d:
    def test_scalar_example(self):
        # 1x1 kernel over a single pixel: 2*3 + 1
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        assert tc.conv2d(x, w, [1.0])[0, 0, 0, 0] == 7.0

    def test_against_explicit_loops(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        y = tc.conv2d(x, w, b, stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        n, _, hp, wp = xp.shape
        ho = (hp - 3) // 2 + 1
        wo = (wp - 3) // 2 + 1
        ref = np.zeros((n, 4, ho, wo))
        for ni in range(n):
            for oc in range(4):
                for i in range(ho):
                    for j in range(wo):
                        patch = xp[ni, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                        ref[ni, oc, i, j] = np.sum(patch * w[oc]) + b[oc]
        assert np.allclose(y, ref)

    def test_depthwise_groups(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4, 4))
        w = rng.normal(size=(4, 1, 3, 3))
        y = tc.conv2d(x, w, np.zeros(4), padding=1, groups=4)
        # each channel convolved independently
        for c in range(4):
            yc = tc.conv2d(x[:, c : c + 1], w[c : c + 1], [0.0], padding=1)
            assert np.allclose(y[:, c : c + 1], yc)

    def test_group_divisibility_checked(self):
        with pytest.raises(ShapeError):
            tc.conv2d(np.ones((1, 3, 4, 4)), np.ones((4, 1, 3, 3)), np.zeros(4), groups=2)


def test_batchnorm_matches_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4, 4))
    g, b = rng.normal(size=3), rng.normal(size=3)
    m, v = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    y = tc.batchnorm(x, g, b, m, v)
    ref = g[:, None, None] * (x - m[:, None, None]) / np.sqrt(v[:, None, None] + 1e-5) + b[:, None, None]
    assert np.allclose(y, ref)


def test_batchnorm_rejects_negative_variance():
    with pytest.raises(NumericError):
        tc.batchnorm(np.ones((1, 2)), [1, 1], [0, 0], [0, 0], [1.0, -0.1])


def test_relu6_clips_both_sides():
    assert np.array_equal(tc.relu6([-1.0, 3.0, 9.0]), [0.0, 3.0, 6.0])


def test_add_requires_matching_shapes():
    with pytest.raises(ShapeError):
        tc.add(np.ones(3), np.ones(4))


def test_maxpool_pads_with_neg_inf():
    # all-negative input: zero padding would fake a 0 maximum
    x = np.full((1, 1, 2, 2), -5.0)
    y = tc.maxpool(x, kernel=2, stride=2, padding=1)
    assert y.max() == -5.0


def test_avgpool_counts_padding():
    x = np.full((1, 1, 2, 2), 4.0)
    y = tc.avgpool(x, kernel=2, stride=2, padding=1)
    # corner windows hold one real value and three zero pads
    assert y[0, 0, 0, 0] == 1.0


def test_concat_axis():
    a, b = np.ones((1, 2, 2, 2)), np.zeros((1, 3, 2, 2))
    assert tc.concat([a, b], axis=1).shape == (1, 5, 2, 2)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 4),
    cin=st.integers(1, 3),
    h=st.integers(3, 6),
    data=st.data(),
)
def test_conv2d_linearity(n, cin, h, data):
    """conv(a*x1 + x2) == a*conv(x1) + conv(x2) with zero bias."""
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(n, cin, h, h))
    x2 = rng.normal(size=(n, cin, h, h))
    w = rng.normal(size=(2, cin, 3, 3))
    a = float(rng.normal())
    zeros = np.zeros(2)
    lhs = tc.conv2d(a * x1 + x2, w, zeros, padding=1)
    rhs = a * tc.conv2d(x1, w, zeros, padding=1) + tc.conv2d(x2, w, zeros, padding=1)
    assert np.allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# Window helper. The loop kernels below are the implementations that
# tc.windows replaced, kept as oracles: the windowed kernels must equal them
# bit for bit.


def _conv2d_loop(x, w, stride, padding, groups):
    sh, sw = tc._pair(stride, "stride")
    ph, pw = tc._pair(padding, "padding")
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.empty((n, o, oh, ow), dtype=np.float64)
    og = o // groups
    for g in range(groups):
        xg = xp[:, g * cg : (g + 1) * cg]
        wg = w[g * og : (g + 1) * og]
        for i in range(oh):
            for j in range(ow):
                patch = xg[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                out[:, g * og : (g + 1) * og, i, j] = np.einsum("ncij,ocij->no", patch, wg)
    return out


def _pool_loop(x, kernel, stride, padding, kind):
    kh, kw = tc._pair(kernel, "kernel")
    sh, sw = tc._pair(kernel if stride is None else stride, "stride")
    ph, pw = tc._pair(padding, "padding")
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    fill = -np.inf if kind == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    out = np.empty((n, c, oh, ow), dtype=np.float64)
    inv = 1.0 / (kh * kw)
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            out[:, :, i, j] = patch.max(axis=(2, 3)) if kind == "max" else patch.sum(axis=(2, 3)) * inv
    return out


WINDOW_KERNELS = [(1, 1), (3, 3), (2, 3), (3, 1)]


@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("stride", [1, 2, (2, 1)])
@pytest.mark.parametrize("padding", [0, 1, (0, 1)])
def test_conv2d_equals_loop_oracle(groups, stride, padding):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 4, 7, 6))
    for kh, kw in WINDOW_KERNELS:
        w = rng.normal(size=(6 if groups < 4 else 4, 4 // groups, kh, kw))
        y = tc.conv2d(x, w, stride=stride, padding=padding, groups=groups)
        assert np.array_equal(y, _conv2d_loop(x, w, stride, padding, groups)), (kh, kw)


@pytest.mark.parametrize("kind", ["max", "avg"])
@pytest.mark.parametrize("stride", [None, 1, 2, (2, 1)])
@pytest.mark.parametrize("padding", [0, 1, (0, 1)])
def test_pools_equal_loop_oracle(kind, stride, padding):
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 3, 7, 6))
    pool = tc.maxpool if kind == "max" else tc.avgpool
    for kernel in [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)]:
        y = pool(x, kernel, stride, padding)
        assert np.array_equal(y, _pool_loop(x, kernel, stride, padding, kind)), kernel


@pytest.mark.parametrize("stride", [1, 2, (2, 1), (1, 3)])
@pytest.mark.parametrize("padding", [0, 1, (0, 2)])
def test_windows_adjoint_is_the_transpose(stride, padding):
    """<windows(x), c> == <x, windows_adjoint(c)> for zero-padded windows."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 3, 8, 7))
    for kernel in WINDOW_KERNELS:
        win = tc.windows(x, kernel, stride, padding)
        c = rng.normal(size=win.shape)
        back = tc.windows_adjoint(c, x.shape, stride, padding)
        assert back.shape == x.shape
        lhs, rhs = float(np.sum(win * c)), float(np.sum(x * back))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), kernel


def test_windows_layout_and_read_only():
    x = np.arange(2 * 3 * 5 * 4, dtype=float).reshape(2, 3, 5, 4)
    win = tc.windows(x, (3, 2), (2, 1), (1, 0), fill=-7.0)
    assert win.shape == (2, 3, 3, 3, 3, 2)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 0)), constant_values=-7.0)
    assert np.array_equal(win[1, 2, 2, 1], xp[1, 2, 4:7, 1:3])
    assert not win.flags.writeable


def test_windows_views_an_unpadded_input_in_place():
    x = np.arange(2 * 3 * 5 * 4, dtype=float).reshape(2, 3, 5, 4)
    before = x.copy()
    win = tc.windows(x, (3, 2), (2, 1), 0)
    assert np.shares_memory(win, x) and not win.flags.writeable
    assert np.array_equal(win[1, 2, 1, 2], x[1, 2, 2:5, 2:4])
    assert np.array_equal(x, before)
    # a padded input, one padded into a buffer, or one that is not C-contiguous is copied
    assert not np.shares_memory(tc.windows(x, (3, 2), 1, (1, 0)), x)
    assert not np.shares_memory(tc.windows(x, (3, 2), 1, 0, out=tc._pad(x, (0, 0))), x)
    x_f = np.asfortranarray(x)
    assert not np.shares_memory(tc.windows(x_f, (3, 2), 1, 0), x_f)
    assert np.array_equal(tc.windows(x_f, (3, 2), 1, 0), tc.windows(x, (3, 2), 1, 0))


@pytest.mark.parametrize(
    "name, value",
    [
        ("stride", 0),
        ("stride", (1, 0)),
        ("kernel", 0),
        ("padding", -1),
        ("padding", (0, -1)),
        ("stride", 1.5),
        ("kernel", 2.0),
        ("padding", "1"),
        ("stride", True),
        ("kernel", (2,)),
        ("kernel", (2, 2, 2)),
    ],
)
def test_bad_window_attributes_are_shape_errors(name, value):
    x = np.ones((1, 2, 4, 4))
    attrs = {"kernel": 2, "stride": 1, "padding": 0, name: value}
    with pytest.raises(ShapeError, match=name):
        tc.windows(x, attrs["kernel"], attrs["stride"], attrs["padding"])
    with pytest.raises(ShapeError):
        tc.elementwise("maxpool", [x], **attrs)
    with pytest.raises(ShapeError):
        tc.avgpool(x, attrs["kernel"], attrs["stride"], attrs["padding"])
    if name != "kernel":
        with pytest.raises(ShapeError):
            tc.conv2d(x, np.ones((1, 2, 2, 2)), stride=attrs["stride"], padding=attrs["padding"])


def test_windows_rejects_oversized_kernel_and_non_4d_input():
    with pytest.raises(ShapeError, match="does not fit"):
        tc.windows(np.ones((1, 1, 3, 3)), (4, 2), 1, 0)
    assert tc.windows(np.ones((1, 1, 3, 3)), (4, 2), 1, (1, 0)).shape == (1, 1, 2, 2, 4, 2)
    with pytest.raises(ShapeError, match="4-d"):
        tc.windows(np.ones((3, 3)), 2, 1, 0)


@pytest.mark.parametrize(
    "shape, out_channels, groups, kernel, stride, padding",
    [
        ((32, 16, 16, 16), 16, 16, 3, 1, 1),  # depthwise, benchmark shape
        ((32, 16, 16, 16), 16, 16, 3, 2, 1),
        ((32, 16, 16, 16), 16, 1, 1, 1, 0),  # 1x1, 16 -> 16 channels
        ((32, 16, 16, 16), 16, 1, 1, 2, 0),
        ((3, 5, 1, 7), 6, 1, 1, 1, 0),  # 1x1 with a 1-high output
        ((3, 5, 9, 1), 6, 1, 1, 2, 0),  # 1x1 with a 1-wide output
        ((2, 6, 5, 7), 9, 3, 1, 1, 1),  # grouped 1x1, two in and three out per group
        ((4, 12, 1, 1), 8, 2, 1, 1, 0),  # grouped 1x1 on a 1x1 map
        ((1, 7, 8, 5), 7, 7, 4, 2, 0),  # depthwise with a 1-wide output: loop
        ((2, 4, 7, 6), 8, 4, 3, 1, 1),  # two output channels per group: loop
    ],
)
def test_conv2d_single_einsum_shapes_equal_loop_oracle(shape, out_channels, groups, kernel, stride, padding):
    rng = np.random.default_rng(24)
    x = rng.normal(size=shape)
    kh, kw = tc._pair(kernel, "kernel")
    w = rng.normal(size=(out_channels, shape[1] // groups, kh, kw))
    y = tc.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    assert np.array_equal(y, _conv2d_loop(x, w, stride, padding, groups))


@st.composite
def conv_cases(draw):
    """(x shape, w shape, stride, padding, groups, seed) of a conv that fits.
    Half the draws have n, og, cg, kh and kw all above 1 and take the patch
    contraction; the rest mostly take the loop or the single einsum."""
    lo = 2 if draw(st.booleans()) else 1
    n, og, cg, kh, kw = (draw(st.integers(lo, 5)) for _ in range(5))
    groups = draw(st.integers(1, 3))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    h = draw(st.integers(max(1, kh - 2 * padding[0]), 20))
    w = draw(st.integers(max(1, kw - 2 * padding[1]), 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, groups * cg, h, w), (groups * og, cg, kh, kw), stride, padding, groups, seed


def _workload_case(n, c):
    return (n, c, 16, 16), (16, c, 3, 3), 1, 1, 1, n + c


# A stride above the kernel: windows skip input rows and columns.
SKIPPING_CASE = (2, 4, 9, 11), (6, 2, 2, 2), (3, 3), (1, 0), 2, 27


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=conv_cases())
@example(case=_workload_case(8, 3))
@example(case=_workload_case(8, 16))
@example(case=_workload_case(16, 3))
@example(case=_workload_case(16, 16))
@example(case=_workload_case(32, 3))
@example(case=_workload_case(32, 16))
@example(case=_workload_case(128, 3))
@example(case=_workload_case(128, 16))
@example(case=SKIPPING_CASE)
def test_conv2d_equals_loop_oracle_over_drawn_shapes(case):
    x_shape, w_shape, stride, padding, groups, seed = case
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    y = tc.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    assert np.array_equal(y, _conv2d_loop(x, w, stride, padding, groups))
    # the same weight in Fortran order gives the same bits
    w_f = np.asfortranarray(w)
    assert np.array_equal(tc.conv2d(x, w_f, stride=stride, padding=padding, groups=groups), y)


@st.composite
def depthwise_cases(draw):
    """(x shape, w shape, stride, padding, groups, seed, samples per chunk, zeros) of a
    depthwise conv that fits. Rows of 8 or more columns take the blocked order, n up to 9
    over a chunk of 1 to 4 samples leaves a partial last chunk, and outputs with a side of
    1 stay on the loop. With ``zeros``, signed zeros test the sign of a sum of zeros."""
    c, n = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    kh, kw = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    h = draw(st.integers(max(1, kh - 2 * padding[0]), kh + 8))
    w = draw(st.integers(max(1, kw - 2 * padding[1]), kw + 8))
    seed, chunk, zeros = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4)), draw(st.booleans())
    return (n, c, h, w), (c, 1, kh, kw), stride, padding, c, seed, chunk, zeros


def _amp_search_case(stride):
    """amp_search's depthwise conv (depthwise_net(channels=16), batch 32), in chunks of the default size."""
    return (32, 16, 16, 16), (16, 1, 3, 3), stride, 1, 16, stride, None, False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=depthwise_cases())
@example(case=_amp_search_case(1))
@example(case=_amp_search_case(2))
def test_depthwise_conv2d_equals_loop_oracle_bit_for_bit(case):
    x_shape, w_shape, stride, padding, groups, seed, chunk, zeros = case
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    if zeros:
        x[np.abs(x) < 1.2], w[w < 0.3] = -0.0, 0.0  # -0 * w is -0: many windows sum to -0 alone
    ref = _conv2d_loop(x, w, stride, padding, groups)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(tc, "_MAP_BYTES", chunk * ref[0].nbytes)
        y = tc.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    assert y.tobytes() == ref.tobytes()  # the sign of every zero too


def test_depthwise_conv2d_overflow_is_a_numeric_error_without_a_warning():
    # einsum never warned; the whole-map multiply-adds would, and pytest fails on a RuntimeWarning
    x, w = np.full((2, 3, 4, 4), 1e300), np.full((3, 1, 3, 3), 1e10)
    with pytest.raises(NumericError, match="conv2d output"):
        tc.conv2d(x, w, padding=1, groups=3)
    with pytest.raises(NumericError, match="conv2d output"):
        tc.conv2d(x * np.inf, w, padding=1, groups=3)  # inf * 0 on the padding: invalid


@pytest.mark.parametrize(
    "w_shape, padding, groups, out_hw",
    [
        ((4, 1, 3, 3), 1, 4, (6, 6)),  # depthwise, whole maps
        ((4, 1, 3, 3), (0, 1), 4, (4, 6)),
        ((8, 4, 1, 1), 0, 1, (6, 6)),  # 1x1
        ((8, 2, 3, 3), 1, 2, (6, 6)),  # the loop: n is not above 1
        ((4, 1, 6, 3), 0, 4, (1, 4)),  # depthwise with an output side of 1: the loop
    ],
)
def test_conv2d_of_an_empty_batch_is_empty(w_shape, padding, groups, out_hw):
    # compute_encodings feeds empty batches through evaluate_all
    y = tc.conv2d(np.ones((0, 4, 6, 6)), np.ones(w_shape), padding=padding, groups=groups)
    assert y.shape == (0, w_shape[0], *out_hw)


def test_einsum_dot_sums_in_the_order_of_numpys_einsum():
    """conv2d's depthwise path assumes that numpy's einsum sums a contiguous two-operand
    product in 128-bit lanes without FMA, 8 columns at a time back to front (see
    tc._einsum_dot). A numpy that sums another way fails here, not in a conv oracle."""
    rng = np.random.default_rng(31)
    for length in range(1, 41):
        for _ in range(10):
            a = rng.normal(size=length) * 10.0 ** rng.integers(-6, 7, size=length)
            b = rng.normal(size=length)
            dot = tc._einsum_dot(a.reshape(1, 1, -1), b.reshape(1, 1, -1), np.empty(1))  # one 1xL window
            assert dot[0] == np.einsum("i,i->", a, b), f"einsum's summation order moved at length {length}"


def test_depthwise_conv2d_pads_a_few_samples_at_a_time():
    rng = np.random.default_rng(30)
    x, w = rng.normal(size=(128, 16, 16, 16)), rng.normal(size=(16, 1, 3, 3))
    peak = peak_bytes(lambda: tc.conv2d(x, w, padding=1, groups=16))
    # A chunk's padded samples and three scratch maps add 1.1 MB to the output;
    # the whole padded batch would add 5.3 MB.
    assert peak < x.nbytes + 6 * tc._MAP_BYTES


def test_conv2d_lays_out_one_sample_of_patches_at_a_time():
    rng = np.random.default_rng(26)
    x, w = rng.normal(size=(128, 16, 16, 16)), rng.normal(size=(16, 16, 3, 3))
    out_bytes, padded_sample_bytes = x.nbytes, x[0].nbytes // 256 * 18 * 18
    sample_patch_bytes = 9 * x[0].nbytes
    peak = peak_bytes(lambda: tc.conv2d(x, w, padding=1))
    # The padded batch would add 5.3 MB, the whole batch's patch matrix 37.7 MB.
    assert peak < out_bytes + padded_sample_bytes + 4 * sample_patch_bytes


@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_patches_gemm_is_conv2d(groups, stride, padding):
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3, 4, 7, 6))
    w = rng.normal(size=(8, 4 // groups, 3, 2))
    p = tc.conv_patches(x, w.shape, stride, padding, groups)
    y = tc.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    n, o, oh, ow = y.shape
    assert p.shape == (groups, n * oh * ow, (4 // groups) * 6)
    assert p.flags.c_contiguous
    gemm = p @ w.reshape(groups, o // groups, -1).transpose(0, 2, 1)
    back = gemm.reshape(groups, n, oh, ow, o // groups).transpose(1, 0, 4, 2, 3).reshape(y.shape)
    assert np.allclose(back, y, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError, match="groups"):
        tc.conv_patches(x, (8, 4, 3, 3), stride, padding, 3)


def _window_view_rows(x, kernel, stride, padding, groups):
    """conv_patches' layout, built from numpy's own window view of np.pad."""
    (sh, sw), (ph, pw) = tc._pair(stride, "stride"), tc._pair(padding, "padding")
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, kernel, axis=(2, 3))[:, :, ::sh, ::sw]
    n, c, oh, ow, kh, kw = win.shape
    win = win.reshape(n, groups, c // groups, oh, ow, kh, kw).transpose(1, 0, 3, 4, 2, 5, 6)
    return win.reshape(groups, n * oh * ow, -1)


@pytest.mark.parametrize(
    "x_shape, kernel, groups, stride, padding",
    [((3, 4, 7, 6), (3, 2), g, s, p) for g in (1, 2, 4) for s in (1, 2) for p in (0, 1)]
    + [((8, 16, 16, 16), (3, 3), 1, 1, 1)],
)
def test_conv_patches_lays_out_the_window_view(x_shape, kernel, groups, stride, padding):
    x = np.random.default_rng(27).normal(size=x_shape)
    w_shape = (8, x_shape[1] // groups, *kernel)
    p = tc.conv_patches(x, w_shape, stride, padding, groups)
    assert p.flags.c_contiguous
    assert np.array_equal(p, _window_view_rows(x, kernel, stride, padding, groups))


def test_conv_patches_pads_and_lays_out_one_sample_at_a_time():
    x = np.random.default_rng(28).normal(size=(32, 16, 16, 16))
    p_bytes = 32 * 16 * 16 * 16 * 9 * 8
    padded_sample_bytes, sample_patch_bytes = 16 * 18 * 18 * 8, 9 * x[0].nbytes
    peak = peak_bytes(tc.conv_patches, x, (16, 16, 3, 3), 1, 1)
    # A whole padded batch, or a whole-batch copy of the window view, adds 1.3 MB or more.
    assert peak - p_bytes < padded_sample_bytes + 2 * sample_patch_bytes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=conv_cases())
@example(case=SKIPPING_CASE)
def test_patch_index_is_the_row_layout_of_a_window_view(case):
    (_, c, h, w), (_, _, kh, kw), stride, (ph, pw), groups, _ = case
    hp, wp = h + 2 * ph, w + 2 * pw
    at = tc._patch_index(tc.windows(np.zeros((1, c, h, w)), (kh, kw), stride, (ph, pw)), groups)
    image = np.arange(c * hp * wp).reshape(1, c, hp, wp)
    assert np.array_equal(at, _window_view_rows(image, (kh, kw), stride, 0, groups))
    # conv2d takes with mode="clip", which would hide a position out of range
    assert 0 <= at.min() and at.max() < c * hp * wp


@pytest.mark.parametrize("kernel, padding", [((1, 1), (1, 1)), (2, 2), ((3, 2), (0, 2)), ((2, 3), (3, 1))])
def test_pool_padding_reaching_the_kernel_is_shape_error(kernel, padding):
    x = np.ones((1, 2, 5, 5))
    for pool in (tc.maxpool, tc.avgpool):
        with pytest.raises(ShapeError, match="padding"):
            pool(x, kernel, 1, padding)
    with pytest.raises(ShapeError, match="padding"):
        tc.elementwise("avgpool", [x], kernel=kernel, padding=padding)


@pytest.mark.parametrize("groups", ["x", 1.5, True, None])
def test_conv2d_groups_must_be_an_integer(groups):
    with pytest.raises(ShapeError, match="groups"):
        tc.conv2d(np.ones((1, 2, 4, 4)), np.ones((2, 2, 3, 3)), groups=groups)


@pytest.mark.parametrize("eps", ["x", None, [1e-5], True])
def test_batchnorm_eps_must_be_a_number(eps):
    with pytest.raises(ShapeError, match="eps"):
        tc.batchnorm(np.ones((1, 2)), [1, 1], [0, 0], [0, 0], [1, 1], eps=eps)


@pytest.mark.parametrize("var, eps", [([1.0, 1.0], -10.0), ([0.0, 1.0], 0.0), ([1.0, -2.0], 1.0)])
def test_batchnorm_needs_positive_variance_plus_eps_without_a_warning(var, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="variance plus eps"):
            tc.batchnorm(np.ones((1, 2)), [1, 1], [0, 0], [0, 0], var, eps=eps)


@pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
def test_pool_without_a_kernel_is_shape_error(kind):
    with pytest.raises(ShapeError, match="kernel"):
        tc.elementwise(kind, [np.ones((1, 2, 4, 4))], stride=1)


@pytest.mark.parametrize("axis", ["x", None, {}, [], 1.5, True])
def test_concat_axis_must_be_an_integer(axis):
    with pytest.raises(ShapeError, match="axis"):
        tc.elementwise("concat", [np.ones((1, 2)), np.ones((1, 3))], axis=axis)
