import warnings

import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from fixquant import quantizer as q
from fixquant.errors import EncodingError, NumericError, ShapeError
from fixquant.quantizer import QuantEncoding, QuantizerSpec


def asym(scale, zero_point=0, bitwidth=8):
    return QuantEncoding(scale=scale, zero_point=zero_point, bitwidth=bitwidth)


def sym(scale, bitwidth=8, signed=True):
    return QuantEncoding(scale=scale, zero_point=0, bitwidth=bitwidth, signed=signed, symmetric=True)


class TestEncodingValidation:
    def test_scale_snapped_to_float32(self):
        e = asym(0.1)
        assert e.scale == float(np.float32(0.1))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(EncodingError):
            asym(0.0)
        with pytest.raises(EncodingError):
            asym(-1.0)

    def test_signed_requires_symmetric(self):
        with pytest.raises(EncodingError):
            QuantEncoding(scale=0.1, zero_point=0, bitwidth=8, signed=True, symmetric=False)

    def test_symmetric_pins_zero_point(self):
        with pytest.raises(EncodingError):
            QuantEncoding(scale=0.1, zero_point=3, bitwidth=8, symmetric=True)

    def test_zero_point_must_sit_on_grid(self):
        with pytest.raises(EncodingError):
            asym(0.1, zero_point=256)
        with pytest.raises(EncodingError):
            asym(0.1, zero_point=-1)

    def test_bitwidth_bounds(self):
        for bw in (1, 33):
            with pytest.raises(EncodingError):
                asym(0.1, bitwidth=bw)

    def test_integer_range_unsigned(self):
        e = asym(0.5, zero_point=10)
        assert (e.q_lo, e.q_hi) == (0, 255)

    def test_integer_range_signed(self):
        e = sym(0.5)
        assert (e.q_lo, e.q_hi) == (-128, 127)

    def test_grid_limits(self):
        e = asym(0.5, zero_point=10)
        assert e.grid_min == 0.5 * (0 - 10)
        assert e.grid_max == 0.5 * (255 - 10)


def test_round_half_away_from_zero():
    got = q.round_half_away(np.array([0.5, 1.5, -0.5, -1.5, 2.4]))
    assert got.tolist() == [1, 2, -1, -2, 2]


def test_quantize_int_worked_scalar():
    # round(1.3 / 0.5) + 10 = 3 + 10
    assert q.quantize_int(1.3, asym(0.5, zero_point=10)) == 13


def test_quantize_int_zero_maps_to_zero_point():
    for e in (asym(0.3, zero_point=77), sym(0.1)):
        assert q.quantize_int(0.0, e) == e.zero_point


def test_quantize_int_saturates_at_grid_edge():
    e = asym(1.0)
    assert q.quantize_int(300.2, e) == 255
    assert q.quantize_int(-5.0, e) == 0


def test_dequantize_worked_scalar():
    assert q.dequantize(13, asym(0.5, zero_point=10)) == 1.5


def test_dequantize_rejects_off_grid_values():
    with pytest.raises(EncodingError):
        q.dequantize(np.array([256]), asym(0.5))
    with pytest.raises(EncodingError):
        q.dequantize(np.array([1.5]), asym(0.5))


def test_qdq_error_bounded_by_half_scale_inside_grid():
    e = asym(0.03, zero_point=128)
    x = np.linspace(e.grid_min, e.grid_max, 1001)
    err = np.abs(q.qdq_tensor(x, e) - x)
    assert err.max() <= e.scale / 2 + 1e-12


def test_qdq_idempotent():
    e = asym(0.07, zero_point=31)
    rng = np.random.default_rng(0)
    x = rng.normal(scale=3.0, size=500)
    once = q.qdq_tensor(x, e)
    assert np.array_equal(q.qdq_tensor(once, e), once)


def test_quantize_rejects_nan():
    with pytest.raises(NumericError):
        q.quantize_int(np.array([np.nan]), asym(0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qdq_rejects_non_finite_input_per_tensor_and_per_channel(bad):
    x = np.array([[bad, 1.0], [2.0, 3.0]])
    per_tensor = QuantizerSpec()
    per_tensor.set_encodings(asym(0.1))
    per_channel = QuantizerSpec(channel_axis=0)
    per_channel.set_encodings([asym(0.1), asym(0.2)])
    for spec in (per_tensor, per_channel):
        with pytest.raises(NumericError):
            q.qdq(x, spec)
        with pytest.raises(NumericError):
            q.qdq(x[::-1], spec)  # the bad value in the other channel


def test_qdq_clips_finite_input_whose_quotient_overflows():
    e = sym(1e-30, bitwidth=8)
    spec = QuantizerSpec(symmetric=True)
    spec.set_encodings(e)
    x = np.array([1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing division stays silent
        y = q.qdq_tensor(x, e)
        assert q.qdq(x, spec).tolist() == y.tolist() == [e.grid_max, e.grid_min]
        assert q.quantize_int(x, e).tolist() == [e.q_hi, e.q_lo]


def test_qdq_returns_a_fresh_array():
    x = np.array([0.25, -0.5])
    spec = QuantizerSpec()
    spec.set_encodings(asym(0.25, zero_point=2))
    y = q.qdq(x, spec)
    assert y is not x and not np.shares_memory(y, x)
    assert np.array_equal(x, [0.25, -0.5])


class TestQuantizerSpec:
    def test_disabled_spec_is_identity(self):
        spec = QuantizerSpec(enabled=False)
        x = np.array([0.123456789, -3.21])
        assert np.array_equal(q.qdq(x, spec), x)

    def test_enabled_spec_requires_encodings(self):
        with pytest.raises(EncodingError):
            q.qdq(np.ones(3), QuantizerSpec())

    def test_set_encodings_checks_bitwidth(self):
        spec = QuantizerSpec(bitwidth=8)
        with pytest.raises(EncodingError):
            spec.set_encodings(asym(0.1, bitwidth=4))

    def test_per_tensor_spec_holding_several_encodings_is_rejected(self):
        spec = QuantizerSpec()
        spec.set_encodings([asym(0.1), asym(0.2)])
        with pytest.raises(EncodingError, match="per-tensor quantizer holds 2 encodings"):
            q.qdq(np.ones((2, 3)), spec)

    def test_frozen_spec_ignores_plain_updates(self):
        spec = QuantizerSpec()
        spec.set_encodings(asym(0.5), frozen=True)
        spec.set_encodings(asym(0.25))
        assert spec.encodings[0].scale == 0.5

    def test_frozen_spec_accepts_explicit_frozen_update(self):
        spec = QuantizerSpec()
        spec.set_encodings(asym(0.5), frozen=True)
        spec.set_encodings(asym(0.25), frozen=True)
        assert spec.encodings[0].scale == 0.25


def test_ste_mask_flags_clipped_entries():
    spec = QuantizerSpec()
    spec.set_encodings(asym(1.0, zero_point=128))
    x = np.array([-200.0, 0.0, 500.0])
    assert q.ste_mask(x, spec).tolist() == [0.0, 1.0, 0.0]


def test_ste_mask_all_ones_when_disabled():
    spec = QuantizerSpec(enabled=False)
    assert q.ste_mask(np.full(4, 1e9), spec).tolist() == [1.0] * 4


class TestPerChannel:
    def row_spec(self, w):
        encs = [
            QuantEncoding(scale=max(np.abs(r).max(), 1e-8) / 127, signed=True, symmetric=True)
            for r in w
        ]
        spec = QuantizerSpec(symmetric=True, channel_axis=0)
        spec.set_encodings(encs)
        return spec

    def test_each_row_gets_own_scale(self):
        w = np.array([[0.1, -0.1], [10.0, -10.0]])
        spec = self.row_spec(w)
        assert spec.encodings[0].scale < spec.encodings[1].scale

    def test_qdq_matches_rowwise_qdq(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 5)) * np.array([[1.0], [5.0], [0.2]])
        spec = self.row_spec(w)
        y = q.qdq(w, spec)
        for i, e in enumerate(spec.encodings):
            assert np.array_equal(y[i], q.qdq_tensor(w[i], e))

    def test_channel_count_checked(self):
        spec = self.row_spec(np.ones((3, 5)))
        with pytest.raises(EncodingError):
            q.qdq(np.ones((4, 5)), spec)

    def test_ste_mask_uses_per_channel_grids(self):
        w = np.array([[0.1], [10.0]])
        spec = self.row_spec(w)
        x = np.array([[5.0], [5.0]])  # clips on the narrow row only
        assert q.ste_mask(x, spec).ravel().tolist() == [0.0, 1.0]


class TestIntegerMatmulAsymmetric:
    def test_symmetric_case_is_plain_scaled_matmul(self):
        ew, ex = sym(0.5), asym(0.1)
        wi = np.array([[1, 2], [3, 4]], dtype=np.int64)
        xi = np.array([1, 1], dtype=np.int64)
        y = q.integer_matmul_asymmetric(wi, xi, ew, ex)
        assert np.allclose(y, 0.5 * 0.1 * (wi @ xi))

    def test_matches_dequantized_matmul(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 6))
        x = rng.normal(size=(6, 4)) + 0.7
        ew = sym(np.abs(w).max() / 127)
        ex = asym((x.max() - min(x.min(), 0.0)) / 255, zero_point=60)
        wi = q.quantize_int(w, ew)
        xi = q.quantize_int(x, ex)
        y = q.integer_matmul_asymmetric(wi, xi, ew, ex)
        ref = q.dequantize(wi, ew) @ q.dequantize(xi, ex)
        assert np.allclose(y, ref, rtol=1e-9, atol=1e-12)

    def test_rejects_integers_off_their_grid(self):
        with pytest.raises(EncodingError):
            q.integer_matmul_asymmetric(
                np.array([[999]]), np.array([1]), sym(1.0), asym(1.0)
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            q.integer_matmul_asymmetric(
                np.ones((2, 3), np.int64), np.ones(4, np.int64), sym(1.0), asym(1.0)
            )

    def test_product_magnitude_precheck(self):
        e = QuantEncoding(scale=1.0, bitwidth=32, symmetric=True)
        big = np.array([[2**31]], dtype=np.int64)
        with pytest.raises(NumericError):
            q.integer_matmul_asymmetric(big, big.ravel(), e, e)


class TestIntegerMac:
    def test_worked_example(self):
        # acc stays integer; dequantizing by s_w*s_x recovers the real product
        ew, ex = sym(0.5), asym(0.1)
        wi = np.array([[1, 2], [3, 4]], dtype=np.int64)
        xi = np.array([1, 1], dtype=np.int64)
        acc = q.integer_mac(wi, xi, None, ew, ex)
        assert acc.tolist() == [3, 7]
        assert np.allclose(ew.scale * ex.scale * acc, [0.15, 0.35])

    def test_bias_enters_pre_quantized(self):
        ew, ex = sym(0.5), asym(0.1)
        wi = np.array([[1, 2], [3, 4]], dtype=np.int64)
        xi = np.array([1, 1], dtype=np.int64)
        bias_int = np.array([100, -100], dtype=np.int64)
        acc = q.integer_mac(wi, xi, bias_int, ew, ex)
        assert acc.tolist() == [103, -93]

    def test_zero_point_correction_matches_dequantized_math(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 5))
        x = rng.uniform(0.0, 2.0, size=(5, 3))
        ew = sym(np.abs(w).max() / 127)
        ex = asym(x.max() / 255, zero_point=0)
        ex = QuantEncoding(scale=(x.max() - 0.0) / 255, zero_point=0, bitwidth=8)
        wi, xi = q.quantize_int(w, ew), q.quantize_int(x, ex)
        acc = q.integer_mac(wi, xi, None, ew, ex)
        ref = q.dequantize(wi, ew) @ q.dequantize(xi, ex)
        assert np.allclose(ew.scale * ex.scale * acc, ref, atol=1e-9)

    def test_requires_symmetric_weights(self):
        with pytest.raises(EncodingError):
            q.integer_mac(
                np.ones((1, 1), np.int64), np.ones(1, np.int64), None, asym(0.5, zero_point=3), asym(0.1)
            )

    def test_int32_accumulator_overflow_raises(self):
        e32 = QuantEncoding(scale=1.0, bitwidth=32, symmetric=True, signed=True)
        wi = np.array([[2**20]], dtype=np.int64)
        xi = np.array([2**20], dtype=np.int64)
        with pytest.raises(NumericError):
            q.integer_mac(wi, xi, None, e32, e32)

    def test_bias_shape_checked(self):
        ew, ex = sym(0.5), asym(0.1)
        with pytest.raises(ShapeError):
            q.integer_mac(
                np.ones((2, 2), np.int64), np.ones(2, np.int64), np.ones(3, np.int64), ew, ex
            )

    def test_2d_activation_with_a_zero_point_matches_the_asymmetric_kernel_and_an_oracle(self):
        # both kernels run one accumulation; at z_w == 0 they differ only in the final scale
        rng = np.random.default_rng(8)
        ew, ex = sym(0.02), asym(0.05, zero_point=37)
        wi = rng.integers(ew.q_lo, ew.q_hi + 1, size=(5, 7))
        xi = rng.integers(ex.q_lo, ex.q_hi + 1, size=(7, 3))
        oracle = sum(np.outer(wi[:, j], xi[j] - 37) for j in range(7))  # int64, one term at a time
        acc = q.integer_mac(wi, xi, None, ew, ex)
        real = q.integer_matmul_asymmetric(wi, xi, ew, ex)
        assert acc.dtype == oracle.dtype == np.int64 and np.array_equal(acc, oracle)
        assert real.tobytes() == ((ew.scale * ex.scale) * oracle.astype(np.float64)).tobytes()
        assert np.array_equal(np.rint(real / (ew.scale * ex.scale)), acc)


# hypothesis invariants


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=64),
    scale=st.floats(1e-4, 1e3),
    bitwidth=st.integers(2, 16),
    data=st.data(),
)
def test_quantize_output_always_on_integer_grid(x, scale, bitwidth, data):
    zp = data.draw(st.integers(0, 2**bitwidth - 1))
    e = QuantEncoding(scale=scale, zero_point=zp, bitwidth=bitwidth)
    xq = q.quantize_int(np.array(x), e)
    assert xq.min() >= e.q_lo and xq.max() <= e.q_hi


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=32),
    scale=st.floats(0.01, 10.0),
    zp=st.integers(0, 255),
)
def test_clipping_happens_iff_outside_grid(x, scale, zp):
    e = QuantEncoding(scale=scale, zero_point=zp, bitwidth=8)
    x = np.array(x)
    y = q.qdq_tensor(x, e)
    inside = (x >= e.grid_min) & (x <= e.grid_max)
    assert np.all(np.abs(y[inside] - x[inside]) <= e.scale / 2 + 1e-9)
    outside_err = np.abs(y[~inside] - x[~inside])
    clipped_to_edge = np.isin(y[~inside], [e.grid_min, e.grid_max])
    assert np.all(clipped_to_edge | (outside_err <= e.scale / 2 + 1e-9))


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(0.01, 10.0),
    zp=st.integers(0, 255),
)
def test_qdq_zero_is_exact(scale, zp):
    e = QuantEncoding(scale=scale, zero_point=zp, bitwidth=8)
    assert q.qdq_tensor(np.array([0.0]), e)[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(-50, 50), min_size=1, max_size=32))
def test_qdq_lands_on_grid(x):
    e = asym(0.25, zero_point=100)
    y = q.qdq_tensor(np.array(x), e)
    k = y / e.scale + e.zero_point
    assert np.allclose(k, np.round(k), atol=1e-6)


@st.composite
def _encodings(d, bitwidth=None, kind=None):
    """Unsigned, signed-symmetric and asymmetric (any zero-point) encodings,
    at every bitwidth (or the given one), on float32 scales from tiny to huge."""
    bitwidth = d(st.integers(2, 32)) if bitwidth is None else bitwidth
    scale = d(
        st.one_of(
            st.floats(1e-38, 1e38),
            st.integers(2**23, 2**24 - 1).map(lambda m: m * 2.0**-30),  # full float32 mantissas
            st.integers(-40, 40).map(lambda k: 2.0**k),  # exact ties
        )
    )
    kind = d(st.sampled_from(["unsigned", "signed", "asymmetric"])) if kind is None else kind
    if kind == "asymmetric":
        return QuantEncoding(scale=scale, zero_point=d(st.integers(0, 2**bitwidth - 1)), bitwidth=bitwidth)
    return QuantEncoding(scale=scale, bitwidth=bitwidth, signed=kind == "signed", symmetric=True)


@st.composite
def _inputs(d, e):
    """Inputs that stress the kernel: exact and near ties, signed zeros,
    subnormals, values past the grid and quotients that overflow."""
    span = e.q_hi - e.q_lo
    k = st.integers(e.q_lo - e.zero_point - span, e.q_hi - e.zero_point + span)
    value = st.one_of(
        k.map(lambda k: (k + 0.5) * e.scale),
        k.map(lambda k: k * e.scale),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308]),
        st.floats(-1e-300, 1e-300),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return np.array(d(st.lists(value, min_size=1, max_size=48)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fake_quant_kernel_matches_the_integer_pair_bit_for_bit(data):
    e = data.draw(_encodings())
    x = data.draw(_inputs(e))
    want = q.dequantize(q.quantize_int(x, e), e)
    spec = QuantizerSpec(bitwidth=e.bitwidth, symmetric=e.symmetric)
    spec.set_encodings(e)
    for got in (q.qdq_tensor(x, e), q.qdq(x, spec)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fake_quant_kernel_matches_the_integer_pair_on_every_shape_it_serves(data):
    """Per-channel grids on either axis, the sqnr search's (k, 1) grids
    against (bins,) centers, and 0-d input, each bit for bit (sign of zero
    included) against quantize_int then dequantize."""
    bitwidth = data.draw(st.integers(2, 32))
    kind = data.draw(st.sampled_from(["unsigned", "signed", "asymmetric"]))
    encs = data.draw(st.lists(_encodings(bitwidth, kind), min_size=1, max_size=4))
    columns = [data.draw(_inputs(e)) for e in encs]
    x = np.stack([c[: min(map(len, columns))] for c in columns])
    want = np.stack([q.dequantize(q.quantize_int(row, e), e) for row, e in zip(x, encs)])
    for axis in (0, 1):
        spec = QuantizerSpec(bitwidth=bitwidth, symmetric=kind != "asymmetric", channel_axis=axis)
        spec.set_encodings(encs)
        _assert_same_bits(q.qdq(x if axis == 0 else x.T, spec), want if axis == 0 else want.T)

    centers = np.concatenate(columns)
    scale = np.array([e.scale for e in encs])
    zp = np.array([e.zero_point for e in encs], dtype=np.float64)
    rows = q._fake_quant(centers, scale[:, None], zp[:, None], encs[0].q_lo, encs[0].q_hi)
    assert rows.shape == (len(encs), centers.size)
    for row, e in zip(rows, encs):
        _assert_same_bits(row, q.qdq_tensor(centers, e))
        _assert_same_bits(row, q.dequantize(q.quantize_int(centers, e), e))

    e = encs[0]
    spec = QuantizerSpec(bitwidth=bitwidth, symmetric=kind != "asymmetric")
    spec.set_encodings(e)
    for value in columns[0]:
        x0 = np.array(value)
        for got in (q.qdq_tensor(x0, e), q.qdq(x0, spec)):
            _assert_same_bits(got, q.dequantize(q.quantize_int(x0, e), e))


def test_qdq_allocates_only_its_result():
    x = np.random.default_rng(33).normal(size=(32, 16, 16, 16))
    per_tensor = QuantizerSpec()
    per_tensor.set_encodings(asym(0.02, zero_point=128))
    per_channel = QuantizerSpec(channel_axis=1)
    per_channel.set_encodings([asym(0.02 * (1 + c / 16), zero_point=100 + c) for c in range(16)])
    for spec in (per_tensor, per_channel):
        assert peak_bytes(q.qdq, x, spec) <= 1.1 * x.nbytes


def test_qdq_result_is_a_writeable_array_that_never_aliases_its_input():
    e = asym(0.25, zero_point=2)
    per_tensor = QuantizerSpec()
    per_tensor.set_encodings(e)
    per_channel = QuantizerSpec(channel_axis=0)
    per_channel.set_encodings([e, asym(0.5, zero_point=3)])
    frozen = np.array([[0.25, -0.5], [-0.0, 7.0]])
    frozen.flags.writeable = False  # as quantized_weights hands out its images
    for x in (frozen, frozen[:, ::-1], frozen.T):
        before = x.copy()
        for y in (q.qdq(x, per_tensor), q.qdq(x, per_channel), q.qdq_tensor(x, e)):
            assert y.flags.writeable and not np.shares_memory(y, x)
        assert np.array_equal(x, before)
    for y in (q.qdq(np.float64(-0.3), per_tensor), q.qdq_tensor(np.array(-0.3), e)):
        assert type(y) is np.ndarray and y.shape == () and y.flags.writeable
        assert y.item() == -0.25
