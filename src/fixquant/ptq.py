"""Post-training quantization transforms.

All transforms copy the model and return the rewritten copy; the input
model is never mutated. The pieces:

* batch-norm folding into the preceding linear/conv layer,
* relu6 -> relu replacement,
* cross-layer equalization of consecutive MAC-layer pairs, with optional
  high-bias absorption when folded batch-norm statistics are available,
* bias correction (empirical, or analytic with empirical fallback),
* weight rounding optimization (adaround),
* a standard pipeline wiring those into a calibrated simulation.

Folding attaches the batch-norm's output statistics to the receiving layer
under ``attrs["folded_bn"]``; equalization keeps them in sync when it
rescales channels. Both high-bias absorption and analytic bias correction
consume those statistics and skip (with a report entry) when they are gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import graph_ir as gir
from . import tensor_core as tc
from .errors import CalibrationError, EncodingError, ShapeError
from .graph_ir import MAC_KINDS, GraphModel, eval_kind, write_json
from .quantizer import QuantizerSpec, grid, qdq  # qdq unused; stays bound for profilers that patch ptq.qdq
from .quantsim import (
    BIAS_CORRECT_SAMPLES,
    QuantSimModel,
    _channel_means,
    _limit_samples,
    check_samples,
    compute_encodings,
    create_quantsim,
    encodings_to_dict,
    float_channel_means,
    import_encodings,
    weight_channel_axis,
    weight_encodings,
)
from .range_setting import RangeScheme

__all__ = [
    "fold_batch_norms",
    "replace_relu6_with_relu",
    "equalize_model",
    "CLEReport",
    "bias_correct",
    "AdaRoundParams",
    "adaround",
    "PtqOptions",
    "run_ptq_pipeline",
]

BN_DEFAULT_EPS = 1e-5


# ---------------------------------------------------------------------------
# Batch-norm folding


def _fold_into(layer, bn) -> None:
    """Fold bn (applied after ``layer``) into the layer's weight and bias."""
    gamma = bn.weights["gamma"]
    beta = bn.weights["beta"]
    mean = bn.weights["mean"]
    var = bn.weights["var"]
    inv_std = gamma / tc.batchnorm_std(var, bn.attrs.get("eps", BN_DEFAULT_EPS))

    w = layer.weights["weight"]
    b = layer.weights["bias"]
    if layer.kind == "linear":
        layer.set_weight("weight", w * inv_std[:, None])
    else:  # conv2d, output channels on axis 0
        layer.set_weight("weight", w * inv_std[:, None, None, None])
    layer.set_weight("bias", beta + inv_std * (b - mean))
    # Post-fold output distribution per channel: mean beta, spread |gamma|.
    layer.attrs["folded_bn"] = {
        "beta": [float(v) for v in beta],
        "gamma": [float(abs(v)) for v in gamma],
    }


def _folded_bn(layer) -> Optional[dict]:
    """The layer's folded batch-norm statistics, or None. A record that is
    not one finite ``beta`` and ``gamma`` per output channel is a
    ModelFormatError."""
    st = gir.field(layer.attrs, "folded_bn", dict, f"node {layer.id} attrs", None)
    c = layer.weights["weight"].shape[0]

    def per_channel(v):
        return len(v) == c and all(type(x) in (int, float) and math.isfinite(x) for x in v)

    for key in () if st is None else ("beta", "gamma"):
        gir.field(st, key, list, f"node {layer.id} folded_bn", check=per_channel)
    return st


def fold_batch_norms(model: GraphModel) -> GraphModel:
    folded, _ = fold_batch_norms_detailed(model)
    return folded


def fold_batch_norms_detailed(model: GraphModel) -> tuple[GraphModel, dict]:
    """Fold every batchnorm that directly follows a linear/conv2d layer.

    A batchnorm is foldable when its single input is a MAC layer whose
    output feeds only that batchnorm. Others are left in place and listed
    in the report. Returns (new model, {"folded": [...], "skipped": [...]}).
    """
    out = model.copy()
    consumers = out.consumers()
    report = {"folded": [], "skipped": []}
    for nid, node in list(out.nodes.items()):
        if node.kind != "batchnorm":
            continue
        src = out.nodes[node.inputs[0]]
        if src.kind not in MAC_KINDS or consumers[src.id] != [nid]:
            report["skipped"].append(nid)
            continue
        _fold_into(src, node)
        for cid in consumers[nid]:
            cons = out.nodes[cid]
            cons.inputs = [src.id if x == nid else x for x in cons.inputs]
        del out.nodes[nid]
        report["folded"].append({"layer": src.id, "batchnorm": nid})
        consumers = out.consumers()
    return GraphModel(list(out.nodes.values()), name=out.name), report


def replace_relu6_with_relu(model: GraphModel) -> GraphModel:
    """Rewrite every relu6 node into a relu (a clipped activation blocks
    cross-layer scaling, since relu6(s*x) != s*relu6(x))."""
    out = model.copy()
    for node in out.nodes.values():
        if node.kind == "relu6":
            node.kind = "relu"
    return out


# ---------------------------------------------------------------------------
# Cross-layer equalization


@dataclass
class CLEReport:
    folded: list = field(default_factory=list)
    skipped_batchnorms: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    absorbed: list = field(default_factory=list)
    absorption_skipped: list = field(default_factory=list)


def _out_channel_ranges(node) -> np.ndarray:
    """Per-output-channel max |w|."""
    w = node.weights["weight"]
    return np.abs(w).max(axis=tuple(range(1, w.ndim)))


def _in_channel_ranges(node) -> np.ndarray:
    """Per-input-channel max |w|. A grouped conv that is not depthwise gives
    its c_in/groups per-group ranges, which match no producer's channels."""
    w = node.weights["weight"]
    if node.kind == "linear":
        return np.abs(w).max(axis=0)
    if w.ndim != 4:
        raise ShapeError(f"conv2d {node.id} expects a 4-d weight, got {w.shape}")
    depthwise = w.shape[0] == node.attrs.get("groups", 1) and w.shape[1] == 1
    return np.abs(w).max(axis=(1, 2, 3) if depthwise else (0, 2, 3))


def _scale_input_channels(node, s: np.ndarray) -> None:
    w = node.weights["weight"]
    if node.kind == "linear":
        node.set_weight("weight", w * s[None, :])
        return
    groups = node.attrs.get("groups", 1)
    if groups == 1:
        node.set_weight("weight", w * s[None, :, None, None])
    else:  # depthwise
        node.set_weight("weight", w * s[:, None, None, None])


def _scale_output_channels(node, s: np.ndarray) -> None:
    w = node.weights["weight"]
    node.set_weight("weight", w / s.reshape((-1,) + (1,) * (w.ndim - 1)))
    node.set_weight("bias", node.weights["bias"] / s)
    st = _folded_bn(node)
    if st is not None:
        st["beta"] = [float(b / si) for b, si in zip(st["beta"], s)]
        st["gamma"] = [float(g / si) for g, si in zip(st["gamma"], s)]


def _find_pairs(model: GraphModel) -> list[tuple[str, Optional[str], str]]:
    """(layer1, optional relu between, layer2) chains eligible for scaling."""
    consumers = model.consumers()
    pairs = []
    for nid, a in model.nodes.items():
        if a.kind not in MAC_KINDS:
            continue
        cons = consumers[nid]
        if len(cons) != 1:
            continue
        mid = None
        b = model.nodes[cons[0]]
        if b.kind == "relu":
            if len(consumers[b.id]) != 1:
                continue
            mid = b.id
            b = model.nodes[consumers[b.id][0]]
        if b.kind not in MAC_KINDS:
            continue
        if len(_out_channel_ranges(a)) != len(_in_channel_ranges(b)):
            continue
        pairs.append((a.id, mid, b.id))
    return pairs


def cross_layer_scale(model: GraphModel, report: CLEReport) -> GraphModel:
    """One pass of pairwise channel rescaling, in topological order.

    For each eligible pair the per-channel factor s_i = sqrt(r1_i * r2_i) / r2_i
    equalizes the weight ranges: channel i of layer 1 is divided by s_i
    (bias included) and the matching input channel of layer 2 multiplied by
    s_i. With a relu in between the function is preserved exactly.
    """
    out = model.copy()
    for a_id, mid, b_id in _find_pairs(out):
        a, b = out.nodes[a_id], out.nodes[b_id]
        r1 = _out_channel_ranges(a)
        r2 = _in_channel_ranges(b)
        s = np.ones_like(r1)
        ok = (r1 > 0) & (r2 > 0)
        s[ok] = np.sqrt(r1[ok] * r2[ok]) / r2[ok]
        _scale_output_channels(a, s)
        _scale_input_channels(b, s)
        report.pairs.append(
            {
                "layer1": a_id,
                "layer2": b_id,
                "relu_between": mid,
                "scale": [float(v) for v in s],
                "r1_before": [float(v) for v in r1],
                "r2_before": [float(v) for v in r2],
                "r1_after": [float(v) for v in _out_channel_ranges(a)],
                "r2_after": [float(v) for v in _in_channel_ranges(b)],
            }
        )
    return out


def _input_channel_sum(node, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per output channel of a MAC node, its weights ``w`` (kernel taps
    summed) times the per-input-channel values ``x``, over the input
    channels of that output's own group: the output shift that a constant
    per-channel input ``x`` causes."""
    if node.kind == "linear":
        return w @ x
    groups = node.attrs.get("groups", 1)
    og, ig = w.shape[0] // groups, w.shape[1]
    if groups > 1 and ig == 1:  # depthwise, any channel multiplier og
        return w.sum(axis=(1, 2, 3)) * np.repeat(x, og)
    return np.concatenate(
        [np.einsum("oikl,i->o", w[g * og : (g + 1) * og], x[g * ig : (g + 1) * ig]) for g in range(groups)]
    )


def absorb_high_bias(model: GraphModel, report: CLEReport) -> GraphModel:
    """Move large positive biases across a relu into the next layer.

    For a (layer1, relu, layer2) chain whose layer1 carries folded
    batch-norm statistics, the absorbable amount per channel is
    c = max(0, beta - 3 * gamma): almost all pre-activations exceed c, so
    relu(y) ~= relu(y - c) + c and the shift folds into layer2's bias
    exactly for linear consumers (approximately at padded conv borders).
    Pairs without statistics or without a relu are skipped and reported.
    """
    out = model.copy()
    for a_id, mid, b_id in _find_pairs(out):
        a, b = out.nodes[a_id], out.nodes[b_id]
        if mid is None:
            report.absorption_skipped.append({"layer1": a_id, "reason": "no relu between layers"})
            continue
        st = _folded_bn(a)
        if st is None:
            report.absorption_skipped.append(
                {"layer1": a_id, "reason": "no batch-norm statistics available"}
            )
            continue
        beta = np.asarray(st["beta"], dtype=np.float64)
        gamma = np.asarray(st["gamma"], dtype=np.float64)
        c = np.maximum(0.0, beta - 3.0 * gamma)
        if not np.any(c > 0):
            report.absorption_skipped.append({"layer1": a_id, "reason": "no high bias (c == 0)"})
            continue
        a.set_weight("bias", a.weights["bias"] - c)
        st["beta"] = [float(v) for v in beta - c]
        b.set_weight("bias", b.weights["bias"] + _input_channel_sum(b, b.weights["weight"], c))
        report.absorbed.append({"layer1": a_id, "layer2": b_id, "absorbed": [float(v) for v in c]})
    return out


def equalize_model(model: GraphModel) -> tuple[GraphModel, CLEReport]:
    """Full cross-layer equalization.

    Folds batch norms, replaces relu6 with relu, runs one pass of
    cross-layer scaling, then absorbs high biases where statistics allow.
    """
    report = CLEReport()
    out, fold_rep = fold_batch_norms_detailed(model)
    report.folded = fold_rep["folded"]
    report.skipped_batchnorms = fold_rep["skipped"]
    out = replace_relu6_with_relu(out)
    out = cross_layer_scale(out, report)
    out = absorb_high_bias(out, report)
    return out, report


# ---------------------------------------------------------------------------
# Bias correction


def _norm_cdf(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in np.atleast_1d(t)]))


def _rectified_gaussian_mean(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """E[relu(z)] for z ~ N(mu, sigma^2), per channel."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    out = np.maximum(mu, 0.0)
    ok = sigma > 0
    if np.any(ok):
        t = mu[ok] / sigma[ok]
        phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        out[ok] = mu[ok] * _norm_cdf(t) + sigma[ok] * phi
    return out


def _weight_quant_error(sim: QuantSimModel, node) -> np.ndarray:
    return sim.quantized_weights(node)["weight"] - node.weights["weight"]


def _add_bias(node, acc: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A MAC layer's output from its bias-free accumulator ``acc``: the
    add and the check that end ``tc.linear`` and ``tc.conv2d``, so the
    bits are those of the kernel run with bias ``b``."""
    return tc.ensure_finite(acc + b.reshape((-1,) + (1,) * (acc.ndim - 2)), f"{node.kind} output")


def _analytic_input_mean(sim: QuantSimModel, node) -> Optional[np.ndarray]:
    """E[input] per channel from the producer's folded batch-norm statistics."""
    graph = sim.graph
    src = graph.nodes[node.inputs[0]]
    through_relu = False
    if src.kind == "relu":
        through_relu = True
        src = graph.nodes[src.inputs[0]]
    st = _folded_bn(src) if src.kind in MAC_KINDS else None
    if st is None:
        return None
    beta = np.asarray(st["beta"], dtype=np.float64)
    gamma = np.asarray(st["gamma"], dtype=np.float64)
    return _rectified_gaussian_mean(beta, gamma) if through_relu else beta


def bias_correct(sim: QuantSimModel, mode: str = "empirical", feed=None) -> GraphModel:
    """Shift layer biases so quantization does not move mean pre-activations.

    ``empirical`` measures, for each MAC layer in topological order, the
    mean float pre-activation and the mean pre-activation of the running
    quantized model (raw accumulator output, before the output quantizer)
    on the leading feed batches that hold ``BIAS_CORRECT_SAMPLES`` samples,
    and adds the difference to the bias. The float means of a batch are
    those compute_encodings recorded when it calibrated this sim on the
    same graph and batch, else those of a float pass. The quantized pass
    for a layer stops at the layer's input and resumes from the values
    earlier passes left; the layer's kernel runs once without its bias,
    and both its raw output and, once the bias has moved, its value for
    later passes are that accumulator plus the quantized bias, the add
    the kernel ends with. So a chain of L layers costs L layer
    evaluations per batch, with the numbers of full passes.
    ``analytic_then_empirical`` removes the weight-quantization component
    in closed form for layers whose input mean follows from folded
    batch-norm statistics (rectified Gaussian mean through a relu) and
    falls back to the empirical estimate elsewhere; the float means are
    those of the model before any bias moves. A feed batch with no
    samples is a CalibrationError, raised before any bias moves. Mutates
    the sim's graph and returns it.
    """
    if mode not in ("empirical", "analytic_then_empirical"):
        raise EncodingError(f"unknown bias correction mode {mode!r}")
    graph = sim.graph
    targets = [nid for nid, node in graph.nodes.items() if node.kind in MAC_KINDS]

    # Analytic shifts wait until the float means are taken.
    shifts: dict[str, np.ndarray] = {}
    if mode == "analytic_then_empirical":
        for nid in targets:
            node = graph.nodes[nid]
            ex = _analytic_input_mean(sim, node)
            if ex is not None:
                shifts[nid] = _input_channel_sum(node, _weight_quant_error(sim, node), ex)
    remaining = [nid for nid in targets if nid not in shifts]

    batches = []
    if remaining:
        if feed is None:
            raise CalibrationError(
                f"bias correction needs calibration data for layers {remaining}"
            )
        batches = _limit_samples(list(feed), BIAS_CORRECT_SAMPLES)
        if not batches:
            raise CalibrationError("bias correction feed is empty")
        check_samples(batches, "bias correction feed")
    fp_means = float_channel_means(sim, batches)
    fp_mean = {nid: np.mean(np.stack([m[nid] for m in fp_means]), axis=0) for nid in remaining}
    for nid, err in shifts.items():
        node = graph.nodes[nid]
        node.set_weight("bias", node.weights["bias"] - err)

    # Correct in topological order against the running quantized model:
    # earlier corrections are in place before later layers are measured.
    # A pass stops at its layer's input, so nothing it computes reads the
    # layer, and the value later passes read is the corrected one.
    known: list[dict] = [{} for _ in batches]
    for nid in remaining:
        node = graph.nodes[nid]
        src = node.inputs[0]
        w = sim.quantized_weights(node)
        w, b = {**w, "bias": None}, w["bias"]
        accs, q_means = [], []
        for i, batch in enumerate(batches):
            known[i] = sim.evaluate_all(batch, known=known[i], stop=src, stream=True)
            accs.append(eval_kind(node.kind, node.attrs, w, [known[i][src]]))
            q_means.append(_channel_means(_add_bias(node, accs[-1], b)))
        delta = fp_mean[nid] - np.mean(np.stack(q_means), axis=0)
        node.set_weight("bias", node.weights["bias"] + delta)
        b = sim.quantized_weights(node)["bias"]
        for i, acc in enumerate(accs):
            known[i][nid] = sim.quantize_output(nid, _add_bias(node, acc, b))
    return graph


# ---------------------------------------------------------------------------
# AdaRound


@dataclass
class AdaRoundParams:
    """Settings for the rounding optimization.

    ``num_batches`` defaults to every batch the feed provides. Iterations
    run plain stochastic gradient descent with a fixed step on the
    continuous rounding variables; the rounding regularizer's sharpness
    ``beta`` anneals on a cosine from ``BETA_RANGE[0]`` to ``BETA_RANGE[1]``
    once the ``WARM_START`` fraction of iterations has passed.
    """

    num_batches: Optional[int] = None
    num_iterations: int = 10_000
    reg_param: float = 0.01
    step_size: float = 1e-2


BETA_RANGE = (20.0, 2.0)  # adaround's regularizer sharpness, first and last
WARM_START = 0.2  # the fraction of adaround iterations run without the regularizer


_SIG_ZETA = 1.2  # rectified sigmoid stretch
_SIG_GAMMA = -0.1  # rectified sigmoid lower shift
# Bytes of patch matrices adaround keeps for one layer. A k x k conv's patches
# are about k*k / stride**2 times its input; batches past this keep the input
# and are laid out again on every iteration that draws them.
_PATCH_BYTES = 256 << 20


def _rect_sigmoid(v: np.ndarray) -> np.ndarray:
    return np.clip(_SIG_ZETA / (1.0 + np.exp(-v)) + _SIG_GAMMA, 0.0, 1.0)


def _rect_sigmoid_grad(v: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-v))
    inside = _SIG_ZETA * sig + _SIG_GAMMA
    return np.where((inside > 0.0) & (inside < 1.0), _SIG_ZETA * sig * (1.0 - sig), 0.0)


def _beta_at(it: int, iterations: int) -> float:
    start = int(WARM_START * iterations)
    hi, lo = BETA_RANGE
    if it < start or iterations <= start:
        return hi
    t = (it - start) / max(1, iterations - start)
    return lo + 0.5 * (hi - lo) * (1.0 + math.cos(t * math.pi))


def _layer_problem(model: GraphModel, node, batches: list, known: list) -> tuple:
    """Per calibration batch, the layer input as a patch matrix P and the
    float output as the target, both laid out per group: the output of
    group g is P[g] @ W_g.T + b_g, with W_g that group's weight rows
    flattened. A linear layer is one group of flattened samples. The input
    comes from a streamed float pass of ``model`` (the already-rounded
    predecessor chain) that stops at the layer's input and starts from
    ``known[i]``, the values earlier passes left for batch i; ``known[i]``
    becomes this pass's values. The target is the layer's kernel on that
    input. Returns (patch, targets): ``patch(i)`` is batch i's P, kept
    while the layer's patches fit in ``_PATCH_BYTES`` and laid out again
    from the kept input after that."""
    w, a = node.weights["weight"], node.attrs
    groups = int(a.get("groups", 1)) if node.kind == "conv2d" else 1
    og = w.shape[0] // groups

    def lay_out(x):
        if node.kind == "linear":
            return x.reshape(len(x), -1)[None]
        return tc.conv_patches(x, w.shape, a.get("stride", 1), a.get("padding", 0), groups)

    inputs, targets, size, laid = [], [], 0, 0
    for i, batch in enumerate(batches):
        known[i] = model.evaluate_all(batch, known=known[i], stop=node.inputs[0], stream=True)
        x = known[i][node.inputs[0]]
        # the layer's kernel always runs, so this also checks its shapes
        y = eval_kind(node.kind, a, node.weights, [x])
        targets.append(y.reshape(len(y), groups, og, -1).transpose(1, 0, 3, 2).reshape(groups, -1, og))
        size += y.size // w.shape[0] * groups * w[0].size * 8  # P's bytes
        if size <= _PATCH_BYTES:
            x, laid = lay_out(x), laid + 1
        inputs.append(x)
    return (lambda i: inputs[i] if i < laid else lay_out(inputs[i])), targets


def adaround(
    model: GraphModel,
    feed,
    params: AdaRoundParams | None = None,
    param_bw: int = 8,
    scheme: RangeScheme | None = None,
    seed: int = 0,
    encodings_path=None,
) -> tuple[GraphModel, dict]:
    """Optimize each layer's weight rounding instead of rounding to nearest.

    Layers are visited in topological order. For each linear/conv layer a
    weight encoding is derived (symmetric, ``param_bw`` bits, given scheme),
    the weight is split into floor(w / s) plus a learnable offset in [0, 1]
    parameterized by a rectified sigmoid, and the offset is trained to
    minimize reconstruction error of the layer's output plus a regularizer
    that pushes every offset to a hard 0 or 1. Layer inputs come from the
    already-rounded predecessor chain: each layer's float pass stops at the
    layer's input and resumes from the values earlier passes left, and the
    layer's kernel runs on that input for the target, so a chain of L layers
    costs 2L - 1 layer evaluations per batch, with the same numbers as a
    full pass. Final weights snap to floor + {0, 1} on the grid and the
    frozen per-layer encodings are returned (and written to
    ``encodings_path`` when given).

    A layer's inputs never change while its rounding is trained, so each
    calibration batch is laid out once as a patch matrix P of shape
    (groups, rows, fan_in) (``tc.conv_patches`` for conv2d, the flattened
    samples for linear) and the targets in the same (groups, rows, out)
    layout. Every iteration is then two batched GEMMs: the soft-weight
    output ``P @ W.T + b`` and the weight gradient ``gy.T @ P``. Only the
    current layer's patches are kept. A k x k conv's patch matrix is about
    k*k / stride**2 times its input (9x for a 3x3 conv at stride 1), so a
    layer keeps at most ``_PATCH_BYTES`` of them; later batches keep their
    input and are laid out on each draw, with identical results.

    Returns (rounded model, encodings document).
    """
    params = params or AdaRoundParams()
    scheme = scheme or RangeScheme(kind="sqnr")
    batches = list(feed)
    if not batches:
        raise CalibrationError("adaround feed is empty")
    n_batches = len(batches) if params.num_batches is None else params.num_batches
    if not 1 <= n_batches <= len(batches):
        raise CalibrationError(f"adaround needs {n_batches} batches, feed provides {len(batches)}")
    if params.num_iterations < 1:
        raise CalibrationError(f"adaround needs at least one iteration, got {params.num_iterations}")
    if not 0 <= params.reg_param < math.inf:
        raise CalibrationError(f"adaround reg_param must be finite and nonnegative, got {params.reg_param}")
    batches = batches[:n_batches]
    check_samples(batches, "adaround feed")
    rng = np.random.default_rng(seed)

    out = model.copy()
    frozen: dict[str, QuantizerSpec] = {}
    targets = [nid for nid, node in out.nodes.items() if node.kind in MAC_KINDS]
    known: list[dict] = [{} for _ in batches]  # per batch, the float values later passes read

    for nid in targets:
        node = out.nodes[nid]
        w = node.weights["weight"]

        spec = QuantizerSpec(param_bw, True, weight_channel_axis(node.kind, "weight", scheme), frozen=True)
        spec.encodings = weight_encodings(w, spec, scheme)
        frozen[f"{nid}.weight"] = spec
        s, zp, q_lo, q_hi = grid(spec, w)

        w_floor = np.floor(w / s)
        # Start the soft offset at the plain rounding residual.
        rest = np.clip(w / s - w_floor, 1e-4, 1.0 - 1e-4)
        v = np.log((rest - _SIG_GAMMA) / (_SIG_ZETA - _SIG_GAMMA - rest + _SIG_GAMMA))

        patch, targets_y = _layer_problem(out, node, batches, known)
        groups, og = targets_y[0].shape[0], targets_y[0].shape[2]
        bias = node.weights["bias"].reshape(groups, 1, og)

        for it in range(params.num_iterations):
            bi = int(rng.integers(0, len(targets_y)))
            p, y_ref = patch(bi), targets_y[bi]
            h = _rect_sigmoid(v)
            w_int = np.clip(w_floor + zp + h, q_lo, q_hi)
            w_soft = s * (w_int - zp)
            y = p @ w_soft.reshape(groups, og, -1).transpose(0, 2, 1) + bias
            tc.ensure_finite(y, "adaround layer output")
            diff = y - y_ref
            gy = (2.0 / diff.size) * diff
            g_wsoft = (gy.transpose(0, 2, 1) @ p).reshape(w.shape)
            inside = (w_floor + zp + h > q_lo) & (w_floor + zp + h < q_hi)
            g_h = g_wsoft * s * inside

            beta = _beta_at(it, params.num_iterations)
            if it >= int(WARM_START * params.num_iterations):
                t = np.abs(2.0 * h - 1.0)
                g_h = g_h - params.reg_param * beta * np.power(t, beta - 1.0) * 2.0 * np.sign(
                    2.0 * h - 1.0
                )
            v = v - params.step_size * g_h * _rect_sigmoid_grad(v)

        h_final = (_rect_sigmoid(v) >= 0.5).astype(np.float64)
        w_int = np.clip(w_floor + zp + h_final, q_lo, q_hi)
        node.set_weight("weight", s * (w_int - zp))
        del patch, targets_y  # at most one layer's patches are alive

    doc = encodings_to_dict({}, frozen)
    if encodings_path is not None:
        write_json(encodings_path, doc)
    return out, doc


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class PtqOptions:
    """Switches and settings for the standard pipeline."""

    param_bw: int = 8
    output_bw: int = 8
    scheme: RangeScheme = field(default_factory=lambda: RangeScheme(kind="sqnr"))
    use_bias_correction: bool = False
    adaround_params: AdaRoundParams = field(default_factory=AdaRoundParams)
    seed: int = 0


def run_ptq_pipeline(model: GraphModel, feed, options: PtqOptions | None = None) -> QuantSimModel:
    """Equalize, round, calibrate: the standard post-training recipe.

    Steps: cross-layer equalization; adaround on the calibration feed;
    simulation construction at the requested bitwidths with the default
    placement config; weight and activation range calibration, then the
    import of adaround's frozen encodings for the weights the simulation
    quantizes; with ``use_bias_correction``, empirical bias correction
    against the calibrated simulation. Returns the ready-to-run simulation.
    """
    options = options or PtqOptions()
    feed = list(feed)
    work, _ = equalize_model(model)
    work, frozen_doc = adaround(
        work,
        feed,
        params=options.adaround_params,
        param_bw=options.param_bw,
        scheme=options.scheme,
        seed=options.seed,
    )
    sim = create_quantsim(
        work, default_param_bw=options.param_bw, default_output_bw=options.output_bw, scheme=options.scheme
    )
    compute_encodings(sim, feed)
    # after calibration, so no unnamed quantizer is disabled
    params = {k: v for k, v in frozen_doc["param_encodings"].items() if k in sim.param_quantizers}
    import_encodings(sim, {**frozen_doc, "param_encodings": params}, freeze=True)
    if options.use_bias_correction:
        bias_correct(sim, feed=feed)
    return sim
