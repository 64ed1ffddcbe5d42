"""Range setting: observe tensor statistics, derive quantization encodings.

Two schemes are provided. ``min_max`` uses the observed extrema directly.
``sqnr`` grid-searches clipping thresholds, scoring each candidate by the
expected squared reconstruction error estimated on a fixed-width histogram
of the observed data; rounding noise and clipping error are weighted
equally.

The search scores candidates as arrays, a chunk of candidates x bins at a
time, in ascending order of their clipping error alone (a lower bound on the
score, from prefix sums over the bins); it stops once the next bound exceeds
the best score, so the pruning is exact. Ties go to the first minimum in
candidate order.

Accumulators track running min, max and count per slice; only those built
for the sqnr scheme (``RangeScheme.bins``) also keep a histogram. Observing
more batches grows the histogram range as needed; old counts are
redistributed proportionally over the new bins, so the histogram is an
approximation of the full data distribution (exact while the range does not
grow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CalibrationError, EncodingError
from .quantizer import QuantEncoding, _fake_quant, qdq_tensor, round_half_away  # qdq_tensor unused; stays bound for profilers

__all__ = [
    "RangeScheme",
    "RangeAccumulator",
    "compute_minmax",
    "compute_sqnr",
    "compute_encodings_from_accumulator",
    "encoding_from_range",
]

HISTOGRAM_BINS = 2048
SQNR_SHRINK_STEPS = 100
# Degenerate observed ranges (max == min) are widened by half their magnitude
# plus this epsilon so the scale stays positive.
DEGENERATE_RANGE_EPS = 1e-5
# The sqnr search scores chunks of at most this many candidate x bin elements.
_SCORE_CHUNK_ELEMS = 1 << 16
# Its relative slack: far above float64 sum rounding, far below a real gap.
_SCORE_RTOL = 1e-9
# The output-channel axis of every weight that takes per-channel grids.
WEIGHT_CHANNEL_AXIS = 0


@dataclass(frozen=True)
class RangeScheme:
    """Calibration policy: which scheme, and whether weights use per-channel grids."""

    kind: str = "min_max"
    per_channel: bool = False

    def __post_init__(self):
        if self.kind not in ("min_max", "sqnr"):
            raise EncodingError(f"unknown range scheme {self.kind!r}")

    @property
    def bins(self) -> int:
        """Histogram bins its accumulators keep: none unless the scheme reads them."""
        return HISTOGRAM_BINS if self.kind == "sqnr" else 0


def _binnable(mn: float, mx: float, bins: int) -> bool:
    """Whether [mn, mx] splits into ``bins`` strictly increasing float edges,
    as np.histogram needs. Narrower ranges (one value, or values a few
    subnormals apart) are histogrammed as a spike in the first bin."""
    return mx > mn and bool(np.all(np.diff(np.linspace(mn, mx, bins + 1)) > 0.0))


class _Hist:
    """One slice's histogram, a view into its accumulator: ``counts`` over
    equal-width bins spanning [mn, mx], of ``count`` observed values."""

    __slots__ = ("mn", "mx", "count", "counts")

    def __init__(self, mn: float, mx: float, count: float, counts: np.ndarray):
        self.mn, self.mx, self.count, self.counts = mn, mx, count, counts

    def edges(self) -> np.ndarray:
        return np.linspace(self.mn, self.mx, self.counts.size + 1)

    def centers(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def add(self, values: np.ndarray, mn: float, mx: float) -> None:
        """Count ``values`` into ``counts``, rebinned first onto [mn, mx], a
        range that holds them and the old one."""
        bins = self.counts.size
        if self.count and (mn < self.mn or mx > self.mx):
            self.counts[:] = _rebin(self.counts, self.edges(), mn, mx, bins)
        if _binnable(mn, mx, bins):
            self.counts += np.histogram(values, bins=bins, range=(mn, mx))[0]
        else:
            # All values (nearly) identical so far: everything lands in the first bin.
            self.counts[0] += values.size


def _rebin(counts: np.ndarray, old_edges: np.ndarray, mn: float, mx: float, bins: int) -> np.ndarray:
    """Redistribute histogram counts onto new equal-width bins over [mn, mx].

    Each old bin's count is spread uniformly over its width: the cumulative
    count, linear within every old bin, is interpolated at the new edges and
    differenced. Preserves the total count.
    """
    wide = _binnable(mn, mx, bins)
    if not (wide and _binnable(old_edges[0], old_edges[-1], len(counts))):
        # A spike: the old counts all sit at old_edges[0], or the new range
        # is too narrow to split.
        new = np.zeros(bins, dtype=np.float64)
        idx = min(bins - 1, int((old_edges[0] - mn) / ((mx - mn) / bins))) if wide else 0
        new[idx] = counts.sum()
        return new
    cum = np.concatenate(([0.0], np.cumsum(counts)))
    return np.diff(np.interp(np.linspace(mn, mx, bins + 1), old_edges, cum))


class RangeAccumulator:
    """Observed statistics for one tensor: per tensor, or per channel. Each
    slice keeps its running min, max and count, one reduction per observe
    updating every slice's, and with ``bins`` a histogram over [min, max]."""

    def __init__(self, channel_axis: Optional[int] = None, bins: int = HISTOGRAM_BINS):
        self.channel_axis = channel_axis
        self.bins = bins
        # per slice, fixed at first observe: min, max, count, and (slices x bins) counts
        self._mn = self._mx = self._count = self._counts = None

    @property
    def per_channel(self) -> bool:
        return self.channel_axis is not None

    @property
    def count(self) -> float:
        return 0.0 if self._count is None else float(self._count.sum())

    def channel_stats(self) -> list[tuple[float, float, float]]:
        """(min, max, count) per slice; a single entry for per-tensor."""
        if self._mn is None:
            raise CalibrationError("accumulator has no observations")
        return list(zip(self._mn.tolist(), self._mx.tolist(), self._count.tolist()))

    def histograms(self) -> list[_Hist]:
        if not self.bins:
            raise CalibrationError(
                "accumulator keeps no histograms (it was built for min_max); "
                "a sqnr derivation needs them, so calibrate under the sqnr scheme"
            )
        return [_Hist(*stats, counts) for stats, counts in zip(self.channel_stats(), self._counts)]

    def observe(self, x) -> "RangeAccumulator":
        x = np.asarray(x, dtype=np.float64)
        if self.per_channel:
            if not (0 <= self.channel_axis < x.ndim):
                raise CalibrationError(f"channel_axis {self.channel_axis} out of range for shape {x.shape}")
            x = np.swapaxes(x, 0, self.channel_axis)  # no statistic kept reads the order in a slice
        c = x.shape[0] if self.per_channel else 1
        if self._mn is not None and self._mn.size != c:
            raise CalibrationError(f"channel count changed between batches: {self._mn.size} vs {c}")
        rows = x.reshape(c, -1)  # one row per slice
        if rows.size:
            lo, hi = rows.min(axis=1), rows.max(axis=1)  # inf or nan where a value is not finite
            if not np.all(np.isfinite((lo, hi))):
                raise CalibrationError("cannot calibrate on non-finite values")
        if self._mn is None:
            self._mn, self._mx, self._count = np.full(c, np.inf), np.full(c, -np.inf), np.zeros(c)
            self._counts = np.zeros((c, self.bins))
        if not rows.size:
            return self
        mn, mx = np.minimum(self._mn, lo), np.maximum(self._mx, hi)
        if self.bins:
            for h, row, row_mn, row_mx in zip(self.histograms(), rows, mn, mx):
                h.add(row, row_mn, row_mx)
        self._mn, self._mx, self._count = mn, mx, self._count + rows.shape[1]
        return self


# ---------------------------------------------------------------------------
# Encoding construction


def _widen_degenerate(mn: float, mx: float) -> tuple[float, float]:
    if mx > mn:
        return mn, mx
    mn = mn - 0.5 * abs(mn) - DEGENERATE_RANGE_EPS
    mx = mx + 0.5 * abs(mx) + DEGENERATE_RANGE_EPS
    return mn, mx


def encoding_from_range(mn: float, mx: float, bitwidth: int, symmetric: bool) -> QuantEncoding:
    """Build an encoding covering [mn, mx].

    Asymmetric grids are widened minimally to contain zero and get an
    integer zero-point; symmetric grids cover max(|mn|, |mx|) and use the
    signed grid when any negative value was seen.
    """
    if not (math.isfinite(mn) and math.isfinite(mx)) or mn > mx:
        raise CalibrationError(f"invalid observed range [{mn}, {mx}]")
    if symmetric:
        r = max(abs(mn), abs(mx))
        signed = mn < 0.0
        levels = 2 ** (bitwidth - 1) - 1 if signed else 2**bitwidth - 1
        # ranges narrower than float32 resolution would snap to a zero scale
        if r == 0.0 or float(np.float32(r / levels)) <= 0.0:
            _, r = _widen_degenerate(0.0, 0.0)
        return QuantEncoding(
            scale=r / levels, zero_point=0, bitwidth=bitwidth, signed=signed, symmetric=True
        )
    lo = min(0.0, mn)
    hi = max(0.0, mx)
    lo, hi = _widen_degenerate(lo, hi)
    scale = (hi - lo) / (2**bitwidth - 1)
    if float(np.float32(scale)) <= 0.0:
        lo, hi = lo - DEGENERATE_RANGE_EPS, hi + DEGENERATE_RANGE_EPS
        scale = (hi - lo) / (2**bitwidth - 1)
    zp = int(min(max(round_half_away(-lo / scale), 0.0), 2**bitwidth - 1))
    return QuantEncoding(scale=scale, zero_point=zp, bitwidth=bitwidth, signed=False, symmetric=False)


def compute_minmax(acc: RangeAccumulator, bitwidth: int, symmetric: bool):
    """Encodings from observed extrema. Returns a list (one entry per channel)."""
    out = []
    for mn, mx, n in acc.channel_stats():
        if n == 0:
            raise CalibrationError("accumulator slice has no observations")
        out.append(encoding_from_range(mn, mx, bitwidth, symmetric))
    return out


def _errors(centers, scale, zp, q_lo, q_hi) -> np.ndarray:
    """Squared qdq error per candidate x bin, through ``qdq_tensor``'s kernel."""
    err = _fake_quant(centers, scale[:, None], zp[:, None], q_lo, q_hi)
    err -= centers
    err *= err
    return err


def _clip_lower_bounds(centers, counts, gmin, gmax) -> np.ndarray:
    """Squared error of the bins outside each grid, from prefix (suffix) sums
    of w, w*c and w*c^2, less _SCORE_RTOL of the terms' size to cover the
    float cancellation: never above the true sum."""
    terms = np.stack([counts, counts * centers, counts * centers * centers])
    pre = np.concatenate([np.zeros((3, 1)), np.cumsum(terms, axis=1)], axis=1)
    suf = np.concatenate([np.cumsum(terms[:, ::-1], axis=1)[:, ::-1], np.zeros((3, 1))], axis=1)
    out = 0.0
    for g, (w, wc, wcc) in (
        (gmin, pre[:, np.searchsorted(centers, gmin, side="left")]),  # bins below the grid
        (gmax, suf[:, np.searchsorted(centers, gmax, side="right")]),  # bins above it
    ):
        out = out + (g * g * w - 2.0 * g * wc + wcc) - _SCORE_RTOL * (g * g * w + wcc)
    return out


def _first_min(centers, counts, scale, zp, q_lo, q_hi) -> Optional[int]:
    """Index of the first candidate with the least estimated mse; None if no
    score is finite. Chunks are scored in ascending order of the clip-only
    lower bound until the next bound exceeds the best score. Near-best
    candidates are rescored one at a time with ``np.dot``, so neither the
    argmin nor its tie break depends on how the matrix product sums."""
    total = counts.sum()
    gmin, gmax = scale * (q_lo - zp), scale * (q_hi - zp)
    lower = _clip_lower_bounds(centers, counts, gmin, gmax) / total
    order = np.argsort(lower, kind="stable")
    rows = max(1, _SCORE_CHUNK_ELEMS // centers.size)
    best, scored = np.inf, []
    for start in range(0, order.size, rows):
        if lower[order[start]] > best * (1.0 + _SCORE_RTOL):
            break
        idx = order[start : start + rows]
        mse = _errors(centers, scale[idx], zp[idx], q_lo, q_hi) @ counts / total
        best = min(best, float(mse.min()))
        scored.append((idx, mse))
    if not np.isfinite(best):
        return None
    near = np.sort(np.concatenate([idx[mse <= best * (1.0 + _SCORE_RTOL)] for idx, mse in scored]))
    exact = [
        float(np.dot(_errors(centers, scale[i : i + 1], zp[i : i + 1], q_lo, q_hi)[0], counts) / total)
        for i in near
    ]
    return int(near[np.argmin(exact)])


def _sqnr_single(hist: _Hist, bitwidth: int, symmetric: bool, steps: int) -> QuantEncoding:
    mn, mx, n = hist.mn, hist.mx, hist.count
    if n == 0:
        raise CalibrationError("accumulator slice has no observations")
    if mx <= mn:
        return encoding_from_range(mn, mx, bitwidth, symmetric)
    nz = hist.counts > 0
    centers = hist.centers()[nz]
    counts = hist.counts[nz]

    # Candidate grids as encoding_from_range(lo, hi) would build them.
    shrink = 1.0 - np.arange(steps) / steps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if symmetric:
            his = max(abs(mn), abs(mx)) * shrink
            his = his[his > 0.0]
            los = -his if mn < 0 else np.zeros_like(his)
            q_lo, q_hi = (-(2 ** (bitwidth - 1)), 2 ** (bitwidth - 1) - 1) if mn < 0 else (0, 2**bitwidth - 1)
            raw, zp = his / q_hi, np.zeros_like(his)
        else:
            # Each side shrinks toward zero (the grid always contains zero); a
            # side already at zero gives a single candidate. Pairs run lo-major.
            lo_side = mn * shrink if mn < 0 else np.array([min(0.0, mn)])
            hi_side = mx * shrink if mx > 0 else np.array([max(0.0, mx)])
            los, his = np.repeat(lo_side, hi_side.size), np.tile(hi_side, lo_side.size)
            keep = his - los > 0.0
            los, his = los[keep], his[keep]
            q_lo, q_hi = 0, 2**bitwidth - 1
            raw = (his - los) / q_hi
            zp = np.clip(round_half_away(-los / raw), q_lo, q_hi)
        scale = raw.astype(np.float32).astype(np.float64)  # snapped as QuantEncoding does
    # float32 underflow (or overflow) takes encoding_from_range's fix-ups
    for i in np.flatnonzero(~(np.isfinite(scale) & (scale > 0.0))):
        e = encoding_from_range(float(los[i]), float(his[i]), bitwidth, symmetric)
        scale[i], zp[i] = e.scale, e.zero_point
    best = _first_min(centers, counts, scale, zp, q_lo, q_hi)
    if best is None:
        return encoding_from_range(mn, mx, bitwidth, symmetric)
    return encoding_from_range(float(los[best]), float(his[best]), bitwidth, symmetric)


def compute_sqnr(acc: RangeAccumulator, bitwidth: int, symmetric: bool, steps: int = SQNR_SHRINK_STEPS):
    """Encodings minimizing histogram-estimated reconstruction error.

    The candidate grid shrinks each side of the observed range toward zero
    in ``steps`` equal fractions; for every candidate the expected squared
    error of quantize-dequantize, rounding and clipping alike, is estimated
    on the accumulated histogram, scored as arrays with exact lower-bound
    pruning, and the argmin candidate wins (first minimum in lo-major
    candidate order on ties, so the result is deterministic). Returns a
    list (one entry per channel).
    """
    return [_sqnr_single(h, bitwidth, symmetric, steps) for h in acc.histograms()]


def compute_encodings_from_accumulator(
    acc: RangeAccumulator, bitwidth: int, symmetric: bool, scheme: RangeScheme
):
    """Dispatch to the scheme named by ``scheme.kind``."""
    if scheme.kind == "sqnr":
        return compute_sqnr(acc, bitwidth, symmetric)
    return compute_minmax(acc, bitwidth, symmetric)
