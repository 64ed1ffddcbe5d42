"""Dense tensors and reference floating-point kernels.

Tensors are plain numpy arrays. Real-valued tensors are float64 and
C-contiguous (row-major); integer tensors are int64. Model weights are kept
float32-representable (see :func:`f32`) so that writing them to a float32 blob
and reading them back is lossless, while all arithmetic runs in float64.

The kernels here are deliberately direct implementations: accumulation order
is the natural row-major ascending order of numpy reductions, which makes
results reproducible run to run. Kernels never let NaN or Inf propagate
silently; they raise NumericError instead.

Window geometry lives in one place. :func:`windows` pads an NCHW input,
into a new array or one the caller reuses, or views an unpadded one in
place, and returns every kernel window as a read-only view; convolution,
both pools and their gradients read windows only through it, and the
gradients sum back through its transpose :func:`windows_adjoint`. No kernel
slices patches out of an input itself.

conv2d sums each output in the order of one small einsum per output
position, on one of four paths that keep it (see its docstring): one
einsum over the window view for 1x1 kernels; for depthwise kernels,
whole-map multiply-adds over a few padded samples at a time, in the order
numpy's einsum sums, which :func:`_einsum_dot` spells out and a canary
test checks against einsum itself; one contraction per sample over patch
rows when no axis of that einsum has length 1; and the per-position loop
elsewhere. :func:`conv_patches` lays out the same patch rows, for all
samples, for callers that run a layer as a GEMM.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ShapeError

__all__ = [
    "f32",
    "ensure_finite",
    "linear",
    "conv2d",
    "batchnorm",
    "relu",
    "relu6",
    "add",
    "concat",
    "maxpool",
    "avgpool",
    "elementwise",
    "windows",
    "windows_adjoint",
    "conv_patches",
    "pool_window",
    "batchnorm_std",
]


def f32(data) -> np.ndarray:
    """Snap values to float32 precision but keep float64 storage.

    Used for model weights so that the on-disk float32 blob format
    round-trips bit-exactly.
    """
    arr = np.ascontiguousarray(data, dtype=np.float32).astype(np.float64)
    ensure_finite(arr, "weight data")
    return arr


def ensure_finite(arr: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _pair(v, name: str) -> tuple[int, int]:
    """Normalize an int-or-pair window attribute to a (h, w) tuple. A
    padding must be at least 0, a kernel or stride at least 1."""
    pair = tuple(v) if isinstance(v, (list, tuple)) else (v, v)
    lo = 0 if name == "padding" else 1
    if len(pair) != 2 or not all(_is_int(p) and p >= lo for p in pair):
        raise ShapeError(f"{name} must be an integer >= {lo} or a pair of them, got {v!r}")
    return int(pair[0]), int(pair[1])


def pool_window(attrs: dict) -> tuple:
    """(kernel, stride, padding) of pool attributes; the stride defaults to the kernel."""
    kernel, stride = attrs.get("kernel"), attrs.get("stride")
    return kernel, kernel if stride is None else stride, attrs.get("padding", 0)


def windows(x, kernel, stride, padding, fill=0.0, out=None) -> np.ndarray:
    """Every kernel window of a 4-d NCHW input padded with ``fill``.

    Returns a read-only (N, C, Ho, Wo, kh, kw) view of the padded input:
    element [n, c, i, j, a, b] is padded input [n, c, i*sh + a, j*sw + b].
    With ``out``, a buffer :func:`_pad` made, the input is padded into it in place;
    without it, an unpadded input is viewed in place (copied only if not C-contiguous).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"windowed kernels expect 4-d NCHW input, got {x.shape}")
    kh, kw = _pair(kernel, "kernel")
    sh, sw = _pair(stride, "stride")
    ph, pw = _pair(padding, "padding")
    h, w = x.shape[2:]
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w} with padding {ph},{pw}")
    xp = np.ascontiguousarray(x) if (ph, pw) == (0, 0) and out is None else _pad(x, (ph, pw), fill, out)
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]


def _pad(x, padding: tuple[int, int], fill=0.0, out=None) -> np.ndarray:
    """NCHW ``x`` in a border of (ph, pw) ``padding`` rows and columns of ``fill``:
    a new array, or ``out``, made by an earlier call, with its interior rewritten."""
    (ph, pw), (n, c, h, w) = padding, x.shape
    if out is None:
        shape = (n, c, h + 2 * ph, w + 2 * pw)
        out = np.zeros(shape) if fill == 0 else np.full(shape, fill)  # zeros: fresh pages, written once
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def windows_adjoint(cols, in_shape, stride, padding) -> np.ndarray:
    """Transpose of :func:`windows`: sum (N, C, Ho, Wo, kh, kw) window
    values back onto the input positions they were read from, dropping
    what lands on the padding. Returns an array of shape (N, C) + in_shape[2:].
    """
    n, c, ho, wo, kh, kw = cols.shape
    sh, sw = _pair(stride, "stride")
    ph, pw = _pair(padding, "padding")
    h, w = in_shape[2:]
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + ho * sh : sh, j : j + wo * sw : sw] += cols[:, :, :, :, i, j]
    return gxp[:, :, ph : ph + h, pw : pw + w]


# ---------------------------------------------------------------------------
# MAC kernels


def linear(x, weight, bias=None) -> np.ndarray:
    """Affine map y = x W^T + b with weight of shape [out, in].

    Inputs with more than two dimensions are flattened to [batch, features]
    first, so a conv feature map can feed a classifier head directly.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    elif x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    if w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear got input {x.shape} and weight {w.shape}")
    y = x @ w.T
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias shape {b.shape} does not match {w.shape[0]} outputs")
        y = y + b
    return ensure_finite(y, "linear output")


def _conv_groups(x_shape, w_shape, groups) -> int:
    """Check conv2d input and weight shapes against ``groups``; returns it as an int."""
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ShapeError(f"conv2d expects 4-d input and weight, got {x_shape}, {w_shape}")
    c, o, cg = x_shape[1], w_shape[0], w_shape[1]
    if not _is_int(groups) or groups < 1 or c % groups or o % groups:
        raise ShapeError(f"conv2d groups={groups!r} incompatible with C={c}, O={o}")
    if cg != c // groups:
        raise ShapeError(f"conv2d weight expects {cg} channels per group, input provides {c // groups}")
    return int(groups)


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """Direct 2-d cross-correlation, NCHW input and OIHW weight.

    groups splits input and output channels; groups == C gives a depthwise
    convolution. No dilation. Zero padding.

    Each output sums in the order of the per-position einsum ``ncij,ocij->no``
    over its window, on one of four paths: one einsum over the window view for
    1x1 kernels, which reads an unpadded input in place; for depthwise kernels
    with an output of at least 2x2, whole-map multiply-adds over a few padded
    samples at a time, in numpy einsum's own order (see :func:`_einsum_dot`);
    with n, og, cg, kh and kw all above 1, one ``gpk,gok->gop`` contraction per
    sample over its patch rows, taken into one reused buffer through one index,
    which numpy sums row by row in that order; elsewhere the loop itself. A
    length-1 axis lets numpy walk the per-position einsum another way (n == 1
    moved bits on 23 of 166 random shapes), hence the guard.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.ascontiguousarray(weight, dtype=np.float64)  # its layout would steer the summation order
    groups = _conv_groups(x.shape, w.shape, groups)
    n = x.shape[0]
    o, cg, kh, kw = w.shape
    og = o // groups
    pads = _pair(padding, "padding")
    xp = _pad(x[:1], pads)  # one padded sample: the output's size, and the per-sample path's buffer
    p = windows(x[:1], (kh, kw), stride, padding, out=xp)
    oh, ow = p.shape[2:4]
    if (kh, kw) == (1, 1):
        pg = windows(x, 1, stride, padding).reshape(n, groups, cg, oh, ow, 1, 1)
        out = np.einsum("ngchwab,gocab->ngohw", pg, w.reshape(groups, og, cg, 1, 1)).reshape(n, o, oh, ow)
    elif cg == og == 1 and oh > 1 and ow > 1:
        out = np.empty((n, o, oh, ow), dtype=np.float64)
        m = max(1, _MAP_BYTES // (o * oh * ow * out.itemsize))  # from the shape: n may be 0
        buf, wd = _pad(x[:m], pads), w.reshape(1, o, 1, 1, kh, kw)  # m padded samples, refilled per chunk
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as einsum is; ensure_finite reports
            for s in range(0, n, m):
                xs = x[s : s + m]
                _einsum_dot(windows(xs, (kh, kw), stride, padding, out=buf[: len(xs)]), wd, out[s : s + m])
        del buf  # freed before ensure_finite's mask
    elif min(n, og, cg, kh, kw) > 1:
        wg = w.reshape(groups, og, -1)
        out = np.empty((n, o, oh, ow), dtype=np.float64)
        at = _patch_index(p, groups)  # after out: made before it, at and rows raised peak RSS 3 MB
        rows, flat = np.empty(at.shape), xp.reshape(-1)  # flat views xp, so it reads each refill
        for s, out_s in enumerate(out.reshape(n, groups, og, oh * ow)):  # one sample's rows at a time
            _pad(x[s : s + 1], pads, out=xp)
            np.einsum("gpk,gok->gop", flat.take(at, out=rows, mode="clip"), wg, out=out_s)
        del at, rows  # freed before ensure_finite's mask
    else:
        # Per position, the order the other paths keep.
        p, out = windows(x, (kh, kw), stride, padding), np.empty((n, o, oh, ow), dtype=np.float64)
        for g in range(groups):
            pg = p[:, g * cg : (g + 1) * cg]
            wg = w[g * og : (g + 1) * og]
            for i in range(oh):
                for j in range(ow):
                    out[:, g * og : (g + 1) * og, i, j] = np.einsum("ncij,ocij->no", pg[:, :, i, j], wg)
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != (o,):
            raise ShapeError(f"conv2d bias shape {b.shape} does not match {o} output channels")
        out += b[None, :, None, None]
    return ensure_finite(out, "conv2d output")


# A depthwise chunk takes as many samples as keep its output map within this many
# bytes; each of _einsum_dot's three scratch maps is as large. At 32x16x16x16 with a
# 3x3 kernel (one thread), chunks of 8 samples took 1.9 ms, chunks of 1, 4, 16 or 32
# 2.1 to 3.3 ms.
_MAP_BYTES = 256 << 10


def _einsum_dot(x, w, out) -> np.ndarray:
    """``out`` set to the sum of ``x * w`` over their last two (kernel) axes, one whole
    map per multiply and per add, in the order numpy's einsum sums each output of a
    product with contiguous kernel rows (numpy 2.4.6 on x86_64: 128-bit kernels, no FMA).

    The kernel rows go in turn into an accumulator that starts at +0.0. Within a row,
    two running sums take the even and the odd columns: while 8 or more columns remain
    they go in blocks of 8, each block's pairs back to front (6,7 4,5 2,3 0,1), then the
    rest in pairs front to back; the row's sum is the even sum plus the odd one. Einsum
    starts both sums at zero and pads an odd last column with 0*0: leaving both out
    changes at most the sign of a zero, which the +0.0 start absorbs. A canary test
    pins this order against ``einsum("i,i->")``, the conv oracles against conv2d's.
    """
    kh, kw = x.shape[-2:]
    blocked = kw - kw % 8
    cols = [b + d for b in range(0, blocked, 8) for d in (6, 4, 2, 0)] + list(range(blocked, kw, 2))
    even, odd, prod = np.empty((3,) + out.shape)
    for a in range(kh):
        for acc, lane in ((even, cols), (odd, [b + 1 for b in cols if b + 1 < kw])):
            for i, b in enumerate(lane):
                np.multiply(x[..., a, b], w[..., a, b], out=prod if i else acc)
                if i:
                    acc += prod
        if kw > 1:
            even += odd
        np.add(out if a else 0.0, even, out=out)
    return out


def _patch_index(p, groups) -> np.ndarray:
    """Flat positions, in the padded buffer that one sample's window view ``p`` views,
    of its (groups, Ho*Wo, cg*kh*kw) patch rows: each element's indices times the view's
    strides. All lie in [0, C*Hp*Wp), so ``take(..., mode="clip")`` clips none of them."""
    c, i, j, a, b = (np.arange(m) * (s // p.itemsize) for m, s in zip(p.shape[1:], p.strides[1:]))
    return (i[:, None] + j).reshape(1, -1, 1) + (c[:, None, None] + a[:, None] + b).reshape(groups, 1, -1)


def conv_patches(x, weight_shape, stride=1, padding=0, groups=1) -> np.ndarray:
    """The conv2d input as one contiguous patch matrix per group, taken one padded sample at a time.

    Returns shape (groups, N*Ho*Wo, cg*kh*kw): row n*Ho*Wo + i*Wo + j of
    group g is window (i, j) of sample n over that group's input channels,
    so ``P[g] @ W[g*og:(g+1)*og].reshape(og, -1).T`` is conv2d's group g
    output, summed in GEMM order rather than conv2d's.
    """
    x = np.asarray(x, dtype=np.float64)
    groups = _conv_groups(x.shape, weight_shape, groups)
    pads = _pair(padding, "padding")
    xp = _pad(x[:1], pads)  # one padded sample, refilled per sample
    at = _patch_index(windows(x[:1], weight_shape[2:], stride, padding, out=xp), groups)
    p = np.empty((groups, len(x), *at.shape[1:]))
    for s in range(len(x)):  # each sample's rows into its slice of P
        _pad(x[s : s + 1], pads, out=xp).reshape(-1).take(at, out=p[:, s], mode="clip")
    return p.reshape(groups, -1, at.shape[2])


# ---------------------------------------------------------------------------
# Elementwise and structural kernels


def _channel_view(p, c: int, ndim: int) -> np.ndarray:
    """Reshape a per-channel parameter for broadcast along axis 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (c,):
        raise ShapeError(f"per-channel parameter has shape {p.shape}, expected ({c},)")
    shape = [1] * ndim
    shape[1] = c
    return p.reshape(shape)


def batchnorm(x, gamma, beta, mean, var, eps=1e-5) -> np.ndarray:
    """Inference-mode batch normalization over channel axis 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ShapeError(f"batchnorm expects at least 2-d input, got {x.shape}")
    c = x.shape[1]
    g = _channel_view(gamma, c, x.ndim)
    b = _channel_view(beta, c, x.ndim)
    m = _channel_view(mean, c, x.ndim)
    y = g * (x - m) / _channel_view(batchnorm_std(var, eps), c, x.ndim) + b
    return ensure_finite(y, "batchnorm output")


def batchnorm_std(var, eps) -> np.ndarray:
    """``sqrt(var + eps)``. A non-number ``eps`` is a ShapeError and a
    ``var + eps`` that is not positive a NumericError."""
    if not isinstance(eps, (int, float, np.integer, np.floating)) or isinstance(eps, bool):
        raise ShapeError(f"batchnorm eps must be a number, got {eps!r}")
    v = np.asarray(var, dtype=np.float64) + eps
    if not np.all(v > 0):
        raise NumericError("batchnorm variance plus eps must be positive")
    return np.sqrt(v)


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu6(x) -> np.ndarray:
    return np.clip(np.asarray(x, dtype=np.float64), 0.0, 6.0)


def add(*xs) -> np.ndarray:
    if len(xs) < 2:
        raise ShapeError("add needs at least two inputs")
    arrs = [np.asarray(v, dtype=np.float64) for v in xs]
    shape = arrs[0].shape
    for a in arrs[1:]:
        if a.shape != shape:
            raise ShapeError(f"add inputs disagree on shape: {shape} vs {a.shape}")
    out = arrs[0].copy()
    for a in arrs[1:]:
        out += a
    return ensure_finite(out, "add output")


def concat(xs, axis=1) -> np.ndarray:
    arrs = [np.asarray(v, dtype=np.float64) for v in xs]
    if not arrs:
        raise ShapeError("concat needs at least one input")
    if not _is_int(axis):
        raise ShapeError(f"concat axis must be an integer, got {axis!r}")
    try:
        out = np.concatenate(arrs, axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat failed: {e}") from None
    return ensure_finite(out, "concat output")


def _flat_windows(x, kernel, stride, padding, fill) -> np.ndarray:
    """Pool windows flattened to (N, C, Ho, Wo, kh*kw); stride None means kernel.

    A padding at least the kernel on either axis is a ShapeError: some
    windows would hold only padding.

    Reducing the flat last axis matches a per-window ``sum(axis=(2, 3))``
    bit for bit; ``sum(axis=(4, 5))`` on the 6-d view does not.
    """
    if any(pad >= k for pad, k in zip(_pair(padding, "padding"), _pair(kernel, "kernel"))):
        raise ShapeError(f"pool padding {padding!r} must be below its kernel {kernel!r}")
    p = windows(x, kernel, kernel if stride is None else stride, padding, fill)
    return p.reshape(p.shape[:4] + (-1,))


def maxpool(x, kernel, stride=None, padding=0) -> np.ndarray:
    out = _flat_windows(x, kernel, stride, padding, fill=-np.inf).max(axis=-1)
    return ensure_finite(out, "maxpool output")


def avgpool(x, kernel, stride=None, padding=0) -> np.ndarray:
    # Padded positions count toward the average (they contribute zeros).
    flat = _flat_windows(x, kernel, stride, padding, fill=0.0)
    return ensure_finite(flat.sum(axis=-1) * (1.0 / flat.shape[-1]), "avgpool output")


_ELEMENTWISE = {
    "relu": lambda inputs, attrs: relu(inputs[0]),
    "relu6": lambda inputs, attrs: relu6(inputs[0]),
    "add": lambda inputs, attrs: add(*inputs),
    "concat": lambda inputs, attrs: concat(inputs, axis=attrs.get("axis", 1)),
    "maxpool": lambda inputs, attrs: maxpool(inputs[0], *pool_window(attrs)),
    "avgpool": lambda inputs, attrs: avgpool(inputs[0], *pool_window(attrs)),
}


def elementwise(kind: str, inputs, /, **attrs) -> np.ndarray:
    """Dispatch an elementwise or pooling kernel by kind name."""
    try:
        fn = _ELEMENTWISE[kind]
    except KeyError:
        raise ShapeError(f"unknown elementwise kind {kind!r}") from None
    return fn(list(inputs), attrs)
