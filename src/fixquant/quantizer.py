"""Uniform affine quantization: encodings, fake-quant, and integer kernels.

An encoding maps real values onto a uniform integer grid:

    x_int = clamp(round(x / scale) + zero_point, q_lo, q_hi)
    x_hat = scale * (x_int - zero_point)

Asymmetric encodings live on the unsigned grid [0, 2^b - 1] with a free
zero-point inside the grid; symmetric encodings pin the zero-point to 0 and
use either the unsigned grid or the signed two's-complement grid
[-2^(b-1), 2^(b-1) - 1]. Rounding breaks ties away from zero everywhere.

Scales are snapped to float32 precision at construction. Everything
downstream (export files, re-imported simulations) then sees exactly the
same scale, which makes save/load round trips bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EncodingError, NumericError, ShapeError

__all__ = [
    "QuantEncoding",
    "QuantizerSpec",
    "check_bitwidth",
    "round_half_away",
    "quantize_int",
    "dequantize",
    "qdq",
    "qdq_tensor",
    "grid",
    "integer_matmul_asymmetric",
    "integer_mac",
]

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
# Below this magnitude x / scale cannot overflow: float32 snapping keeps
# every scale at or above 1.4e-45, and 1e250 / 1.4e-45 < 1.8e308.
_QUOTIENT_SAFE = 1e250


def check_bitwidth(bw, what: str = "bitwidth") -> int:
    """``bw`` as an int if it is an integer (not a bool) in [2, 32], else an EncodingError."""
    if isinstance(bw, bool) or not isinstance(bw, (int, np.integer)) or not 2 <= bw <= 32:
        raise EncodingError(f"{what} {bw!r} is not an integer in [2, 32]")
    return int(bw)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties away from zero (2.5 -> 3, -2.5 -> -3)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantEncoding:
    """One quantization grid: scale, zero-point, bitwidth, and grid flavor."""

    scale: float
    zero_point: int = 0
    bitwidth: int = 8
    signed: bool = False
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bitwidth", check_bitwidth(self.bitwidth))
        s = float(np.float32(self.scale))
        if not math.isfinite(s) or s <= 0.0:
            raise EncodingError(f"scale must be finite and positive, got {self.scale!r}")
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "zero_point", int(self.zero_point))
        if self.signed and not self.symmetric:
            raise EncodingError("signed grids are only defined for symmetric encodings")
        if self.symmetric and self.zero_point != 0:
            raise EncodingError(f"symmetric encodings require zero_point == 0, got {self.zero_point}")
        if not (self.q_lo <= self.zero_point <= self.q_hi) and not self.signed:
            raise EncodingError(
                f"zero_point {self.zero_point} outside the {self.bitwidth}-bit grid "
                f"[{self.q_lo}, {self.q_hi}]"
            )

    @property
    def q_lo(self) -> int:
        return -(2 ** (self.bitwidth - 1)) if self.signed else 0

    @property
    def q_hi(self) -> int:
        return 2 ** (self.bitwidth - 1) - 1 if self.signed else 2**self.bitwidth - 1

    @property
    def grid_min(self) -> float:
        """Smallest representable real value: scale * (q_lo - zero_point)."""
        return self.scale * (self.q_lo - self.zero_point)

    @property
    def grid_max(self) -> float:
        """Largest representable real value: scale * (q_hi - zero_point)."""
        return self.scale * (self.q_hi - self.zero_point)


def quantize_int(x, e: QuantEncoding) -> np.ndarray:
    """Map real values to integers on the encoding's grid (round, then clamp)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("quantize_int got non-finite input")
    with np.errstate(over="ignore"):  # an overflowing quotient clips to the grid edge
        q = round_half_away(x / e.scale) + e.zero_point
    return np.clip(q, e.q_lo, e.q_hi).astype(np.int64)


def dequantize(xi, e: QuantEncoding) -> np.ndarray:
    """Map grid integers back to real values. Rejects off-grid input."""
    xi = np.asarray(xi)
    if not np.issubdtype(xi.dtype, np.integer):
        if not np.all(xi == np.round(xi)):
            raise EncodingError("dequantize expects integer grid values")
        xi = xi.astype(np.int64)
    if xi.size and (xi.min() < e.q_lo or xi.max() > e.q_hi):
        raise EncodingError(
            f"dequantize input outside the {e.bitwidth}-bit grid [{e.q_lo}, {e.q_hi}]"
        )
    return e.scale * (xi.astype(np.float64) - e.zero_point)


def _fake_quant(x: np.ndarray, scale, zp, lo, hi) -> np.ndarray:
    """scale * (clip(round_half_away(x / scale) + zp, lo, hi) - zp) as a fresh
    array, the arguments after ``x`` scalars or broadcast against it, and the
    only full-size array it allocates. Bit-identical to ``quantize_int``
    then ``dequantize`` (sign of zero included) without the int64 round trip,
    through three equalities: the quotient has ``x``'s sign, as every scale
    is positive; clip(r + zp, lo, hi) - zp == clip(r, lo - zp, hi - zp) for
    an integral or infinite r; and r + 0.0 turns -0.0 into +0.0 as the
    zero-point round trip does. Non-finite ``x`` raises; a finite ``x`` whose
    quotient overflows clips to the grid edge, without a numpy overflow
    warning."""
    if max(x.max(initial=0.0), -x.min(initial=0.0)) < _QUOTIENT_SAFE:  # False for NaN too
        r = np.asarray(np.divide(x, scale))  # an array even for 0-d input
    else:
        if not np.all(np.isfinite(x)):
            raise NumericError("qdq got non-finite input")
        with np.errstate(over="ignore"):
            r = np.asarray(np.divide(x, scale))
    np.abs(r, out=r)
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, x, out=r)
    r += 0.0
    lo, hi = lo - zp, hi - zp
    if np.ndim(lo):  # per-channel bounds: two passes beat clip's loop over them
        np.maximum(r, lo, out=r)
        np.minimum(r, hi, out=r)
    else:
        r.clip(lo, hi, out=r)
    r *= scale
    return r


def qdq_tensor(x, e: QuantEncoding) -> np.ndarray:
    """Quantize-dequantize through a single encoding."""
    return _fake_quant(np.asarray(x, dtype=np.float64), e.scale, e.zero_point, e.q_lo, e.q_hi)


@dataclass
class QuantizerSpec:
    """A quantizer attached to one tensor.

    Holds the policy (bitwidth, symmetry, optional per-channel axis) plus the
    computed encodings: one entry for per-tensor, one per channel otherwise.
    Frozen specs survive any later encoding recomputation untouched.
    """

    bitwidth: int = 8
    symmetric: bool = False
    channel_axis: Optional[int] = None
    enabled: bool = True
    encodings: Optional[list[QuantEncoding]] = None
    frozen: bool = False

    def __post_init__(self):
        self.bitwidth = check_bitwidth(self.bitwidth)

    @property
    def per_channel(self) -> bool:
        return self.channel_axis is not None

    @property
    def ready(self) -> bool:
        return not self.enabled or bool(self.encodings)

    def set_encodings(self, encodings, frozen: bool | None = None) -> None:
        if self.frozen and not frozen:
            return
        if isinstance(encodings, QuantEncoding):
            encodings = [encodings]
        for enc in encodings:
            if enc.bitwidth != self.bitwidth:
                raise EncodingError(
                    f"encoding bitwidth {enc.bitwidth} does not match quantizer bitwidth {self.bitwidth}"
                )
        self.encodings = list(encodings)
        if frozen is not None:
            self.frozen = bool(frozen)


def grid(spec: QuantizerSpec, x: np.ndarray):
    """(scale, zero_point, q_lo, q_hi) of an enabled quantizer: scalars per
    tensor, arrays broadcastable against ``x`` per channel."""
    if not spec.encodings:
        raise EncodingError("quantizer has no encodings; run range calibration first")
    if not spec.per_channel:
        if len(spec.encodings) != 1:
            raise EncodingError(f"per-tensor quantizer holds {len(spec.encodings)} encodings")
        e = spec.encodings[0]
        return e.scale, e.zero_point, e.q_lo, e.q_hi
    axis = spec.channel_axis
    if not (0 <= axis < x.ndim):
        raise ShapeError(f"channel_axis {axis} out of range for shape {x.shape}")
    if len(spec.encodings) != x.shape[axis]:
        raise EncodingError(
            f"per-channel quantizer has {len(spec.encodings)} encodings for {x.shape[axis]} channels"
        )
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    cols = np.array([(e.scale, e.zero_point, e.q_lo, e.q_hi) for e in spec.encodings], dtype=np.float64)
    return tuple(col.reshape(shape) for col in cols.T)


def qdq(x, spec: QuantizerSpec) -> np.ndarray:
    """Simulate quantization of a tensor: quantize to the grid, dequantize back.

    Disabled quantizers are a strict identity. Enabled quantizers require
    computed encodings.
    """
    x = np.asarray(x, dtype=np.float64)
    return _fake_quant(x, *grid(spec, x)) if spec.enabled else x


def ste_mask(x, spec: QuantizerSpec) -> np.ndarray:
    """Straight-through gradient mask: 1 inside the encoding grid, 0 where clipped."""
    x = np.asarray(x, dtype=np.float64)
    if not spec.enabled:
        return np.ones_like(x)
    scale, zp, lo, hi = grid(spec, x)
    return ((x >= scale * (lo - zp)) & (x <= scale * (hi - zp))).astype(np.float64)


# ---------------------------------------------------------------------------
# Integer accumulation paths


def _accumulate(wi, xi, ew: QuantEncoding, ex: QuantEncoding) -> np.ndarray:
    """The exact int64 accumulation of (W_int - z_w)(x_int - z_x), expanded
    into four integer terms: the data product, two zero-point cross terms
    and a constant. Operands must be 2-d weights and 1-d/2-d activations on
    their grids, and a conservative bound keeps intermediates from wrapping."""
    wi = np.asarray(wi, dtype=np.int64)
    xi = np.asarray(xi, dtype=np.int64)
    if wi.ndim != 2 or xi.ndim not in (1, 2):
        raise ShapeError(f"expected 2-d weights and 1-d/2-d activations, got {wi.shape}, {xi.shape}")
    if wi.shape[1] != xi.shape[0]:
        raise ShapeError(f"inner dimensions differ: {wi.shape} @ {xi.shape}")
    for name, arr, e in (("weight", wi, ew), ("activation", xi, ex)):
        if arr.size and (arr.min() < e.q_lo or arr.max() > e.q_hi):
            raise EncodingError(f"{name} integers fall outside their {e.bitwidth}-bit grid")
    k = wi.shape[1]
    zw, zx = ew.zero_point, ex.zero_point
    wmax, xmax = int(np.abs(wi).max(initial=0)), int(np.abs(xi).max(initial=0))
    if k * (wmax * xmax + abs(zw) * xmax + abs(zx) * wmax + abs(zw * zx)) >= 2**62:
        raise NumericError("integer accumulation would overflow the 64-bit working range")
    row_sum = wi.sum(axis=1)  # [n]
    if xi.ndim == 2:
        row_sum = row_sum[:, None]
    return wi @ xi - zw * xi.sum(axis=0) - zx * row_sum + k * zw * zx


def integer_matmul_asymmetric(wi, xi, ew: QuantEncoding, ex: QuantEncoding) -> np.ndarray:
    """Integer-only matmul of asymmetric operands, returned in real units:
    the int64 accumulation of (W_int - z_w)(x_int - z_x) with the combined
    scale s_w * s_x applied once at the end. Matches matmul of the
    dequantized operands up to float rounding.
    """
    return (ew.scale * ex.scale) * _accumulate(wi, xi, ew, ex).astype(np.float64)


def integer_mac(wi, xi, bias_int=None, ew: QuantEncoding = None, ex: QuantEncoding = None) -> np.ndarray:
    """32-bit accumulator matmul with symmetric weights.

    Requires z_w == 0. The activation zero-point correction term
    (z_x * row_sum(W_int)) and the bias, pre-quantized at scale s_w * s_x,
    are folded into the accumulator, so dequantizing the result with
    s_w * s_x reproduces the real product. Raises on accumulator overflow
    rather than wrapping.
    """
    if ew is None or ex is None:
        raise EncodingError("integer_mac needs both weight and activation encodings")
    if ew.zero_point != 0:
        raise EncodingError("integer_mac requires a symmetric weight encoding (z_w == 0)")
    acc = _accumulate(wi, xi, ew, ex)
    if bias_int is not None:
        b = np.asarray(bias_int, dtype=np.int64)
        if b.shape != (acc.shape[0],):
            raise ShapeError(f"bias_int shape {b.shape} does not match {acc.shape[0]} rows")
        acc = acc + (b[:, None] if acc.ndim == 2 else b)
    if acc.size and (acc.min() < INT32_MIN or acc.max() > INT32_MAX):
        raise NumericError("32-bit accumulator overflow")
    return acc
