import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixquant import range_setting as rs
from fixquant.errors import CalibrationError, EncodingError
from fixquant.quantizer import qdq_tensor
from fixquant.range_setting import RangeAccumulator, RangeScheme


def test_scheme_names_validated():
    with pytest.raises(EncodingError):
        RangeScheme(kind="entropy")


def test_accumulator_tracks_extrema_across_batches():
    acc = RangeAccumulator()
    acc.observe(np.array([1.0, 2.0]))
    acc.observe(np.array([-3.0, 0.5]))
    (mn, mx, n), = acc.channel_stats()
    assert (mn, mx, n) == (-3.0, 2.0, 4.0)


def test_accumulator_rejects_non_finite():
    with pytest.raises(CalibrationError):
        RangeAccumulator().observe(np.array([1.0, np.inf]))


def test_empty_accumulator_has_no_stats():
    with pytest.raises(CalibrationError):
        RangeAccumulator().channel_stats()


def test_histogram_count_preserved_by_range_growth():
    acc = RangeAccumulator(bins=64)
    acc.observe(np.linspace(0, 1, 100))
    acc.observe(np.linspace(5, 9, 50))  # forces a rebin of the first batch
    h = acc.histograms()[0]
    assert h.counts.sum() == pytest.approx(150.0)
    assert (h.mn, h.mx) == (0.0, 9.0)


def test_histogram_exact_when_range_static():
    acc = RangeAccumulator(bins=16)
    data = np.repeat(np.linspace(0, 1, 17)[:-1] + 0.01, 3)
    acc.observe(np.array([0.0, 1.0]))  # pin the range first
    acc.observe(data)
    h = acc.histograms()[0]
    assert h.counts.sum() == data.size + 2


def test_per_channel_accumulator_slices_along_axis():
    acc = RangeAccumulator(channel_axis=1)
    x = np.zeros((2, 3, 4))
    x[:, 1] = 5.0
    x[:, 2] = -2.0
    acc.observe(x)
    stats = acc.channel_stats()
    assert len(stats) == 3
    assert stats[1][1] == 5.0
    assert stats[2][0] == -2.0


def test_per_channel_count_change_rejected():
    acc = RangeAccumulator(channel_axis=0)
    acc.observe(np.ones((2, 4)))
    with pytest.raises(CalibrationError):
        acc.observe(np.ones((3, 4)))


def test_per_channel_axis_out_of_range_rejected():
    with pytest.raises(CalibrationError, match="channel_axis 2 out of range"):
        RangeAccumulator(channel_axis=2).observe(np.ones((2, 4)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("bins", [0, rs.HISTOGRAM_BINS])
def test_a_non_finite_batch_leaves_the_accumulator_as_it_was(bad, bins):
    fresh, seen = RangeAccumulator(channel_axis=0, bins=bins), RangeAccumulator(channel_axis=0, bins=bins)
    seen.observe(np.array([[1.0, 2.0], [3.0, 4.0]]))
    before = seen.channel_stats()
    for acc in (fresh, seen):
        with pytest.raises(CalibrationError, match="non-finite"):
            acc.observe(np.array([[0.0, bad], [9.0, -9.0]]))
    with pytest.raises(CalibrationError, match="no observations"):
        fresh.channel_stats()
    assert seen.channel_stats() == before


@pytest.mark.parametrize("channel_axis", [None, 0, 1, 2])
def test_min_max_encodings_do_not_depend_on_the_histogram(channel_axis):
    """A bin-less accumulator keeps the same (min, max, count) floats as one
    with histograms, and so derives the same min-max encodings, while the
    range grows over several batches (and through an empty one)."""
    rng = np.random.default_rng(5)
    binned, binless = RangeAccumulator(channel_axis), RangeAccumulator(channel_axis, bins=0)
    batches = [rng.normal(size=(4, 3, 5)) * s + s for s in (0.1, 1.0, 0.5, 4.0, -8.0)]
    across = 1 if channel_axis == 2 else 2  # an axis that is not the channels'
    batches.insert(2, np.ones((4, 3, 5)).take([], axis=across))
    for x in batches:
        binned.observe(x)
        binless.observe(x)
        assert binless.channel_stats() == binned.channel_stats()
    whole = np.concatenate(batches, axis=across)
    axes = None if channel_axis is None else tuple(a for a in range(3) if a != channel_axis)
    n = float(whole.size if channel_axis is None else whole.size // whole.shape[channel_axis])
    mins, maxs = np.ravel(whole.min(axis=axes)).tolist(), np.ravel(whole.max(axis=axes)).tolist()
    assert binless.channel_stats() == [(mn, mx, n) for mn, mx in zip(mins, maxs)]
    for bitwidth in (4, 8):
        for symmetric in (False, True):
            assert rs.compute_minmax(binless, bitwidth, symmetric) == rs.compute_minmax(binned, bitwidth, symmetric)


def test_sqnr_from_a_binless_accumulator_names_the_missing_histograms():
    acc = RangeAccumulator(bins=0).observe(np.linspace(-1.0, 1.0, 50))
    with pytest.raises(CalibrationError, match="keeps no histograms"):
        rs.compute_sqnr(acc, 8, False)
    with pytest.raises(CalibrationError, match="keeps no histograms"):
        rs.compute_encodings_from_accumulator(acc, 8, False, RangeScheme("sqnr"))


class TestEncodingFromRange:
    def test_worked_asymmetric_example(self):
        e = rs.encoding_from_range(-1.0, 2.0, 8, symmetric=False)
        assert e.scale == pytest.approx(3.0 / 255.0, rel=1e-6)
        assert e.zero_point == 85

    def test_asymmetric_grid_always_contains_zero(self):
        e = rs.encoding_from_range(1.0, 2.0, 8, symmetric=False)
        assert e.grid_min <= 0.0 <= e.grid_max

    def test_symmetric_with_negatives_uses_signed_grid(self):
        e = rs.encoding_from_range(-1.0, 2.0, 8, symmetric=True)
        assert e.signed and e.zero_point == 0
        assert e.scale == pytest.approx(2.0 / 127.0, rel=1e-6)

    def test_symmetric_nonnegative_uses_unsigned_grid(self):
        e = rs.encoding_from_range(0.0, 2.0, 8, symmetric=True)
        assert not e.signed
        assert e.scale == pytest.approx(2.0 / 255.0, rel=1e-6)

    def test_degenerate_range_still_positive_scale(self):
        for v in (0.0, 3.0, -3.0):
            e = rs.encoding_from_range(v, v, 8, symmetric=False)
            assert e.scale > 0
            assert e.grid_min <= v <= e.grid_max


def test_compute_minmax_covers_observed_range():
    acc = RangeAccumulator().observe(np.array([-1.0, 2.0]))
    (e,) = rs.compute_minmax(acc, 8, symmetric=False)
    assert e.grid_min <= -1.0 and e.grid_max >= 2.0 - e.scale


class TestSqnr:
    def test_never_worse_than_minmax_on_histogram_mse(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4000)
        x[:4] = [-30.0, 30.0, -25.0, 28.0]  # heavy outliers
        acc = RangeAccumulator().observe(x)
        (e_mm,) = rs.compute_minmax(acc, 8, symmetric=False)
        (e_sq,) = rs.compute_sqnr(acc, 8, symmetric=False)
        h = acc.histograms()[0]
        nz = h.counts > 0
        c, w = h.centers()[nz], h.counts[nz]

        def hist_mse(e):
            return float(np.dot((qdq_tensor(c, e) - c) ** 2, w) / w.sum())

        assert hist_mse(e_sq) <= hist_mse(e_mm)

    def test_clips_outlier_at_low_bitwidth(self):
        # At 4 bits the rounding error saved by a tighter grid outweighs the
        # clipping error of one 8-sigma sample; at 8 bits it does not, so the
        # full range survives. Both follow from the equal-weight objective.
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=8000), [8.0]])
        acc = RangeAccumulator().observe(x)
        (e4,) = rs.compute_sqnr(acc, 4, symmetric=False)
        (e8,) = rs.compute_sqnr(acc, 8, symmetric=False)
        assert e4.grid_max < 4.0
        assert e8.grid_max > 7.0

    def test_matches_bruteforce_candidate_search(self):
        # independent re-enumeration of the shrink grid and its scoring
        rng = np.random.default_rng(4)
        x = rng.standard_t(df=3, size=3000)
        acc = RangeAccumulator().observe(x)
        (got,) = rs.compute_sqnr(acc, 8, symmetric=False)

        h = acc.histograms()[0]
        nz = h.counts > 0
        centers, counts = h.centers()[nz], h.counts[nz]
        steps = rs.SQNR_SHRINK_STEPS
        best, best_mse = None, np.inf
        los = [h.mn * (1 - i / steps) for i in range(steps)] if h.mn < 0 else [min(0.0, h.mn)]
        his = [h.mx * (1 - j / steps) for j in range(steps)] if h.mx > 0 else [max(0.0, h.mx)]
        for lo in los:
            for hi in his:
                if hi - lo <= 0:
                    continue
                e = rs.encoding_from_range(lo, hi, 8, False)
                mse = float(np.dot((qdq_tensor(centers, e) - centers) ** 2, counts) / counts.sum())
                if mse < best_mse:
                    best, best_mse = e, mse
        assert got.scale == best.scale
        assert got.zero_point == best.zero_point

    def test_symmetric_search_stays_symmetric(self):
        rng = np.random.default_rng(5)
        acc = RangeAccumulator().observe(rng.normal(size=2000) * 2)
        (e,) = rs.compute_sqnr(acc, 8, symmetric=True)
        assert e.zero_point == 0 and e.symmetric


def test_scheme_dispatch():
    acc = RangeAccumulator().observe(np.array([-1.0, 2.0]))
    mm = rs.compute_encodings_from_accumulator(acc, 8, False, RangeScheme("min_max"))
    sq = rs.compute_encodings_from_accumulator(acc, 8, False, RangeScheme("sqnr"))
    assert mm[0] == rs.compute_minmax(acc, 8, False)[0]
    assert sq[0] == rs.compute_sqnr(acc, 8, False)[0]


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3, allow_nan=False),
    hi=st.floats(-1e3, 1e3, allow_nan=False),
    bitwidth=st.integers(2, 16),
    symmetric=st.booleans(),
)
def test_encoding_from_range_grid_spans_zero(lo, hi, bitwidth, symmetric):
    lo, hi = min(lo, hi), max(lo, hi)
    e = rs.encoding_from_range(lo, hi, bitwidth, symmetric)
    assert e.scale > 0
    assert e.grid_min <= 0.0 <= e.grid_max


@settings(max_examples=30, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40),
        min_size=2,
        max_size=5,
    )
)
@example(chunks=[[0.0], [5e-324]])
def test_minmax_encoding_independent_of_batch_split(chunks):
    """min/max range setting sees only extrema, so batching cannot change it."""
    split = RangeAccumulator()
    for c in chunks:
        split.observe(np.array(c))
    whole = RangeAccumulator().observe(np.concatenate([np.array(c) for c in chunks]))
    (a,) = rs.compute_minmax(split, 8, False)
    (b,) = rs.compute_minmax(whole, 8, False)
    assert a == b


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("value", [-0.7, 0.0, 2.5])
def test_sqnr_on_a_constant_slice_equals_min_max(value, symmetric):
    # a slice with one value has no range to search: both take the widened range
    x = np.stack([np.full(6, value), np.linspace(-1.0, 3.0, 6)])
    acc = RangeAccumulator(channel_axis=0).observe(x)
    assert rs.compute_sqnr(acc, 8, symmetric)[0] == rs.compute_minmax(acc, 8, symmetric)[0]
    whole = RangeAccumulator().observe(x[0])
    assert rs.compute_sqnr(whole, 8, symmetric) == rs.compute_minmax(whole, 8, symmetric)


@pytest.mark.parametrize("channel_axis", [None, 0])
@pytest.mark.parametrize("split", [False, True])
def test_subnormal_wide_ranges_histogram_as_a_spike(channel_axis, split):
    """A range too narrow for 2048 increasing bin edges counts like a constant."""
    x = np.array([[0.0, 5e-324], [1e-323, 0.0]])
    acc = RangeAccumulator(channel_axis=channel_axis)
    for chunk in ([x[:, :1], x[:, 1:]] if split else [x]):
        acc.observe(chunk)
    for h in acc.histograms():
        assert h.counts[0] == h.count == x.size // len(acc.histograms())
        assert h.mx > h.mn
    for symmetric in (False, True):
        for enc in rs.compute_minmax(acc, 8, symmetric) + rs.compute_sqnr(acc, 8, symmetric):
            assert enc.scale > 0
    acc.observe(x * 2)
    assert all(h.counts[0] == h.count for h in acc.histograms())
    # the range then grows past the spike: its counts move into a real bin
    acc.observe(np.array([[1.0, -1.0], [2.0, 3.0]]))
    for h in acc.histograms():
        assert h.counts.sum() == h.count
        assert np.count_nonzero(h.counts) >= 2


# ---------------------------------------------------------------------------
# Oracles: the scalar sqnr search loop and the bin-by-bin rebinning loop. The
# library scores candidates as arrays and rebins by interpolation; both must
# reproduce these exactly (encodings) or to rounding (histogram counts).


def _oracle_mse(centers, counts, enc):
    rec = qdq_tensor(centers, enc)
    err = (rec - centers) ** 2
    return float(np.dot(err, counts) / counts.sum())


def _oracle_sqnr(hist, bitwidth, symmetric, steps=rs.SQNR_SHRINK_STEPS):
    mn, mx = hist.mn, hist.mx
    if mx <= mn:
        return rs.encoding_from_range(mn, mx, bitwidth, symmetric)
    nz = hist.counts > 0
    centers = hist.centers()[nz]
    counts = hist.counts[nz]
    best, best_mse = None, np.inf
    if symmetric:
        r_full = max(abs(mn), abs(mx))
        for i in range(steps):
            r = r_full * (1.0 - i / steps)
            if r <= 0.0:
                break
            enc = rs.encoding_from_range(-r if mn < 0 else 0.0, r, bitwidth, True)
            mse = _oracle_mse(centers, counts, enc)
            if mse < best_mse:
                best, best_mse = enc, mse
        return best
    los = [mn * (1.0 - i / steps) for i in range(steps)] if mn < 0 else [min(0.0, mn)]
    his = [mx * (1.0 - j / steps) for j in range(steps)] if mx > 0 else [max(0.0, mx)]
    for lo in los:
        for hi in his:
            if hi - lo <= 0.0:
                continue
            enc = rs.encoding_from_range(lo, hi, bitwidth, False)
            mse = _oracle_mse(centers, counts, enc)
            if mse < best_mse:
                best, best_mse = enc, mse
    return best if best is not None else rs.encoding_from_range(mn, mx, bitwidth, False)


def _oracle_rebin(counts, old_edges, mn, mx, bins):
    new = np.zeros(bins, dtype=np.float64)
    width = (mx - mn) / bins
    if old_edges[1] - old_edges[0] <= 0:
        idx = min(bins - 1, int((old_edges[0] - mn) / width)) if width > 0 else 0
        new[idx] += counts.sum()
        return new
    for i, c in enumerate(counts):
        if c == 0.0:
            continue
        lo, hi = old_edges[i], old_edges[i + 1]
        b0 = int(np.clip((lo - mn) / width, 0, bins - 1))
        b1 = int(np.clip((hi - mn) / width, 0, bins - 1))
        if b0 == b1:
            new[b0] += c
            continue
        frac = c / (hi - lo)
        for b in range(b0, b1 + 1):
            seg_lo = max(lo, mn + b * width)
            seg_hi = min(hi, mn + (b + 1) * width)
            if seg_hi > seg_lo:
                new[b] += frac * (seg_hi - seg_lo)
    return new


def _assert_same_encodings(acc, bitwidth, symmetric, steps=rs.SQNR_SHRINK_STEPS):
    got = rs.compute_sqnr(acc, bitwidth, symmetric, steps=steps)
    want = [_oracle_sqnr(h, bitwidth, symmetric, steps) for h in acc.histograms()]
    for g, w in zip(got, want):
        assert (g.scale, g.zero_point) == (w.scale, w.zero_point)
        assert g == w
    assert len(got) == len(want)


class TestSqnrMatchesScalarOracle:
    # 40 steps keep the oracle's 1,600-candidate loop cheap while still
    # spanning many score chunks at ~1,000 nonzero bins.
    @pytest.mark.parametrize("bitwidth", [2, 4, 8, 16])
    @pytest.mark.parametrize("signed_data", [True, False])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_grid(self, symmetric, signed_data, bitwidth):
        rng = np.random.default_rng(bitwidth + 10 * symmetric + 100 * signed_data)
        x = rng.standard_t(df=4, size=3000)
        if not signed_data:
            x = np.abs(x)
        acc = RangeAccumulator().observe(x)
        _assert_same_encodings(acc, bitwidth, symmetric, steps=40)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("kind", ["nonnegative", "nonpositive", "outlier"])
    def test_one_sided_and_outlier_ranges_at_full_steps(self, kind, symmetric):
        rng = np.random.default_rng(7)
        x = rng.normal(size=512)
        if kind == "nonnegative":
            x = np.abs(x) + 0.25  # mn > 0
        elif kind == "nonpositive":
            x = -np.abs(x)  # mx <= 0
        else:
            x[0] = 12.0  # 12 sigma
        acc = RangeAccumulator().observe(x)
        for bitwidth in (4, 8):
            _assert_same_encodings(acc, bitwidth, symmetric)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bitwidth", [8, 16])
    def test_float32_snap_fallback(self, symmetric, bitwidth, monkeypatch):
        # ranges so narrow that shrunk candidate scales underflow float32
        x = np.random.default_rng(8).normal(size=200) * 1e-42
        acc = RangeAccumulator().observe(x)
        calls = []
        real = rs.encoding_from_range
        monkeypatch.setattr(rs, "encoding_from_range", lambda *a: calls.append(a) or real(*a))
        rs.compute_sqnr(acc, bitwidth, symmetric, steps=40)
        monkeypatch.undo()
        assert len(calls) > 1  # fix-ups, besides building the winner
        _assert_same_encodings(acc, bitwidth, symmetric, steps=40)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_per_channel_accumulator(self, symmetric):
        rng = np.random.default_rng(9)
        acc = RangeAccumulator(channel_axis=0)
        scales = np.array([0.5, 1.0, 2.0, 4.0])[:, None, None]
        acc.observe(rng.normal(size=(4, 8, 9)) * scales)
        grown = rng.normal(size=(4, 8, 9)) * scales * 1.5  # re-bins every channel
        grown[2, 0, 0] = 30.0
        acc.observe(grown)
        _assert_same_encodings(acc, 4, symmetric, steps=40)


class TestRebinMatchesOracle:
    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("grow", ["low", "high", "both", "none"])
    @pytest.mark.parametrize("bins", [16, 64, 2048])
    def test_per_bin(self, bins, grow, fractional):
        rng = np.random.default_rng(bins + len(grow))
        counts = rng.integers(0, 40, size=bins).astype(np.float64)
        if fractional:
            counts *= rng.random(bins)
        old_edges = np.linspace(-1.3, 2.1, bins + 1)
        mn = -1.3 - (0.7 if grow in ("low", "both") else 0.0)
        mx = 2.1 + (5.2 if grow in ("high", "both") else 0.0)
        got = rs._rebin(counts, old_edges, mn, mx, bins)
        want = _oracle_rebin(counts, old_edges, mn, mx, bins)
        total = counts.sum()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * total)
        assert got.sum() == pytest.approx(total, rel=1e-12)

    def test_single_spike(self):
        old_edges = np.full(9, 0.5)
        got = rs._rebin(np.array([5.0] + [0.0] * 7), old_edges, -1.0, 1.0, 8)
        np.testing.assert_array_equal(got, _oracle_rebin(np.array([5.0] + [0.0] * 7), old_edges, -1.0, 1.0, 8))


class TestSqnrSearchOrder:
    def test_exact_tie_goes_to_first_lo_major_candidate(self):
        # centers -0.125 and 0.125 sit exactly on several 2-bit grids (score
        # 0); the first of them in lo-major order has zero point 2
        acc = RangeAccumulator(bins=2).observe(np.array([-0.25, 0.25]))
        (e,) = rs.compute_sqnr(acc, 2, symmetric=False, steps=4)
        assert (e.scale, e.zero_point) == (0.125, 2)
        _assert_same_encodings(acc, 2, False, steps=4)

    def test_exact_tie_goes_to_widest_symmetric_candidate(self):
        # the one center, -1.0, is on the signed 2-bit grids of radius 1.0 and
        # 0.5 alike; the wider one comes first
        acc = RangeAccumulator(bins=1).observe(np.array([-2.5, 0.5]))
        (e,) = rs.compute_sqnr(acc, 2, symmetric=True, steps=5)
        assert e.scale == 1.0
        _assert_same_encodings(acc, 2, True, steps=5)

    def test_clip_lower_bound_is_below_the_clipped_error(self):
        rng = np.random.default_rng(12)
        centers = np.sort(rng.standard_t(df=3, size=2048))
        counts = rng.integers(1, 50, size=2048).astype(np.float64)
        gmin = rng.uniform(-6.0, 0.0, size=500)
        gmax = rng.uniform(0.0, 6.0, size=500)
        got = rs._clip_lower_bounds(centers, counts, gmin, gmax)
        below = np.clip(gmin[:, None] - centers, 0.0, None)
        above = np.clip(centers - gmax[:, None], 0.0, None)
        want = (below**2 + above**2) @ counts
        assert np.all(got <= want)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * counts.sum())

    def test_pruning_scores_a_winner_whose_error_is_all_clipping(self):
        # 64 wide grids clip nothing (lower bound 0) but round coarsely; the
        # 10-bit unit grid clips the top half of the centers and rounds
        # nothing, so its lower bound equals its score, which is the best
        centers = np.arange(2048.0)
        counts = np.ones(2048)
        scale = np.concatenate([np.linspace(1600.0, 1800.0, 64), [1.0]])
        zp = np.zeros_like(scale)
        assert rs._first_min(centers, counts, scale, zp, 0, 1023) == 64
