"""Quantization-aware training.

The forward pass is the simulation's own: the interpreter's
``GraphModel.evaluate_all`` with the sim's quantized weights and output
quantizers as its hooks. ``forward_with_tape`` records it on a ``Tape``
through those hooks: every node's output, every op's output before its
activation quantizer, and the quantized weights each node ran with, so
they are quantized once per step. QAT therefore trains exactly the network
that ``sim.forward`` runs and ``export`` writes. ``backward`` walks the
graph in reverse topological order and derives what each node needs from
the tape and the node itself (relu masks, concat split sizes, maxpool
argmax). Every quantize-dequantize passes gradients straight through
inside its grid and blocks them where it clips (``ste_mask``).
With every quantizer disabled the forward pass is the float model and the
trainer is plain SGD, bit for bit.

Only what the training loop needs is implemented: gradients for weights
and biases of linear/conv2d layers and for everything on the path between
them. There is no general autograd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor_core as tc
from .errors import CalibrationError, NumericError, ShapeError
from .graph_ir import MAC_KINDS, write_csv
from .quantizer import qdq, ste_mask  # qdq unused; stays bound for profilers that patch qat.qdq
from .quantsim import QuantSimModel, compute_encodings

__all__ = [
    "Tape",
    "forward_with_tape",
    "backward",
    "mse_loss",
    "softmax_cross_entropy",
    "QatOptions",
    "qat_train",
]


@dataclass
class Tape:
    """A recorded quantized forward pass: every node's output (``values``),
    every node's output before its activation quantizer (``raw``), the id
    of the graph output that backward() starts from, and the quantized
    tensors each weighted node ran with (``weights``)."""

    values: dict
    raw: dict
    output_id: str
    weights: dict


def _ste(g: np.ndarray, x: np.ndarray, spec) -> np.ndarray:
    """Gradient g through qdq(x, spec): unchanged inside the grid, zero where clipped."""
    return g if spec is None or not spec.enabled else g * ste_mask(x, spec)


def conv2d_backward(
    gy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride=1,
    padding=0,
    groups: int = 1,
    need_input_grad: bool = True,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Gradients of conv2d: (d/dw, d/dx, d/dbias).

    Each gradient sums in the order of an einsum over the strided window
    view (n, c, h, w, kh, kw), so with its bits, but from a faster layout:

    - Weight: with a w stride of 1 and kw > 1 numpy walks that view with w
      innermost, so it walks a contiguous (n, c, h, kh, kw, w) copy of the
      windows in the same order, reading memory in sequence. With a wider
      stride or kw == 1 it walks kw innermost, an order the copy would
      change, so those shapes read the view. The copy, kh*kw times the
      input, is freed before the input gradient allocates its own.
    - Input: the window contribution is laid out (c, kh, kw, n, h, w) from
      an (o, n, h, w) copy of ``gy``: it sums over o in the same order,
      while numpy's inner loop runs over n*h*w contiguous elements, not kw.
    """
    w = np.asarray(w, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    oc, icg, kh, kw = w.shape
    ocg = oc // groups
    groups_io = [(slice(g * icg, (g + 1) * icg), slice(g * ocg, (g + 1) * ocg)) for g in range(groups)]
    patches, spec = tc.windows(x, (kh, kw), stride, padding), "nchwkl,nohw->ockl"
    if tc._pair(stride, "stride")[1] == 1 and kw > 1:
        patches, spec = np.ascontiguousarray(patches.transpose(0, 1, 2, 4, 5, 3)), "nchklw,nohw->ockl"
    gw, gb = np.empty(w.shape, dtype=np.float64), gy.sum(axis=(0, 2, 3))
    for ci, co in groups_io:
        gw[co] = np.einsum(spec, patches[:, ci], gy[:, co])
    del patches
    if not need_input_grad:
        return gw, None, gb
    gx = np.empty(np.shape(x))
    for ci, co in groups_io:
        # Each output position's contribution to its window, summed back.
        g_o = np.ascontiguousarray(gy[:, co].transpose(1, 0, 2, 3))
        contrib = np.einsum("onhw,ockl->cklnhw", g_o, w[co])
        gx[:, ci] = tc.windows_adjoint(contrib.transpose(3, 0, 4, 5, 1, 2), gx.shape, stride, padding)
    return gw, gx, gb


def forward_with_tape(sim: QuantSimModel, inputs) -> Tape:
    """The simulation's quantized forward pass, recorded for backward(): the
    graph pass with the sim's hooks, each wrapped to record what it is
    given (the raw op output) or returns (the weights a node ran with)."""
    raw: dict[str, np.ndarray] = {}
    weights: dict[str, dict] = {}

    def run_weights(node) -> dict[str, np.ndarray]:
        weights[node.id] = w = sim.quantized_weights(node)
        return w

    def activation(nid: str, y: np.ndarray) -> np.ndarray:
        raw[nid] = y
        return sim.quantize_output(nid, y)

    values = sim.graph.evaluate_all(inputs, run_weights, activation)
    return Tape(values=values, raw=raw, output_id=sim.graph.output_ids[0], weights=weights)


def backward(sim: QuantSimModel, tape: Tape, gy_out: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
    """Walk the graph in reverse; returns {node_id: {"weight": gW, "bias": gb}}."""
    graph, values = sim.graph, tape.values
    grads_y: dict[str, np.ndarray] = {tape.output_id: np.asarray(gy_out, dtype=np.float64)}
    param_grads: dict[str, dict[str, np.ndarray]] = {}

    def _accum(nid: str, g: np.ndarray) -> None:
        grads_y[nid] = grads_y[nid] + g if nid in grads_y else g

    # Nodes at or after a MAC node: only their gradients reach a parameter,
    # so a MAC node whose input is not one skips its input gradient.
    after_mac = set()
    for nid, node in graph.nodes.items():
        if node.kind in MAC_KINDS or not after_mac.isdisjoint(node.inputs):
            after_mac.add(nid)

    for nid, node in reversed(graph.nodes.items()):
        gy = grads_y.get(nid)
        if gy is None or node.kind == "input":
            continue
        gy = _ste(gy, tape.raw[nid], sim.activation_quantizers.get(nid))
        k, attrs, src = node.kind, node.attrs, node.inputs[0]
        x = values[src]
        if k == "output":
            _accum(src, gy)
        elif k in MAC_KINDS:
            wq, need_gx = tape.weights[nid]["weight"], src in after_mac
            if k == "linear":
                gw, gb = gy.T @ x.reshape(len(gy), -1), gy.sum(axis=0)
                gx = (gy @ wq).reshape(x.shape) if need_gx else None
            else:
                gw, gx, gb = conv2d_backward(
                    gy,
                    x,
                    wq,
                    stride=attrs.get("stride", 1),
                    padding=attrs.get("padding", 0),
                    groups=attrs.get("groups", 1),
                    need_input_grad=need_gx,
                )
            param_grads[nid] = {
                "weight": _ste(gw, node.weights["weight"], sim.param_quantizer(nid, "weight")),
                "bias": _ste(gb, node.weights["bias"], sim.param_quantizer(nid, "bias")),
            }
            if need_gx:
                _accum(src, gx)
        elif k == "batchnorm":
            # Inference-mode affine transform over the simulation's statistics.
            qw = tape.weights[nid]
            scale = qw["gamma"] / tc.batchnorm_std(qw["var"], attrs.get("eps", 1e-5))
            _accum(src, gy * scale.reshape((1, -1) + (1,) * (gy.ndim - 2)))
        elif k == "relu":
            _accum(src, gy * (x > 0).astype(np.float64))
        elif k == "relu6":
            _accum(src, gy * ((x > 0) & (x < 6)).astype(np.float64))
        elif k == "add":
            for s in node.inputs:
                _accum(s, gy)
        elif k == "concat":
            axis = attrs.get("axis", 1)
            bounds = np.cumsum([values[s].shape[axis] for s in node.inputs])[:-1]
            for s, g in zip(node.inputs, np.split(gy, bounds, axis=axis)):
                _accum(s, g)
        elif k == "maxpool":
            _accum(src, _maxpool_grad(gy, x, attrs))
        elif k == "avgpool":
            _accum(src, _avgpool_grad(gy, x.shape, attrs))
    return param_grads


def _maxpool_grad(gy, x, attrs):
    """Each output's gradient goes to the first maximum of its window."""
    kernel, stride, padding = tc.pool_window(attrs)
    flat = tc._flat_windows(x, kernel, stride, padding, fill=-np.inf)
    onehot = np.arange(flat.shape[-1]) == flat.argmax(axis=-1)[..., None]
    cols = (onehot * gy[..., None]).reshape(flat.shape[:4] + tc._pair(kernel, "kernel"))
    return tc.windows_adjoint(cols, x.shape, stride, padding)


def _avgpool_grad(gy, in_shape, attrs):
    """Each output's gradient goes in equal shares to every position of its window."""
    kernel, stride, padding = tc.pool_window(attrs)
    kh, kw = tc._pair(kernel, "kernel")
    share = gy / (kh * kw)
    cols = np.broadcast_to(share[..., None, None], share.shape + (kh, kw))
    return tc.windows_adjoint(cols, in_shape, stride, padding)


# ---------------------------------------------------------------------------
# Losses


def mse_loss(y: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeError(f"mse output {y.shape} does not fit targets {target.shape}")
    diff = y - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over the batch; labels are integer class ids."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1] or np.any((labels < 0) | (labels >= logits.shape[1])):
        raise ShapeError(f"cross entropy needs a label in [0, C) per row of (N, C) logits, got {logits.shape}")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(n), labels] + 1e-300)))
    g = p.copy()
    g[np.arange(n), labels] -= 1.0
    return loss, g / n


# ---------------------------------------------------------------------------
# Training loop


# The learning rate is multiplied by this every ``lr_decay_every`` epochs.
LR_DECAY_FACTOR = 0.1


@dataclass
class QatOptions:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-2
    lr_decay_every: int = 5
    refresh_ranges: bool = False
    log_path: Optional[str] = None


def qat_train(
    sim: QuantSimModel,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: Callable = softmax_cross_entropy,
    options: QatOptions | None = None,
    seed: int = 0,
) -> list[dict]:
    """Fine-tune the sim's weights through the quantized forward pass.

    Plain SGD on weight and bias tensors. Per epoch: shuffle, iterate
    minibatches, apply gradients; weights stay on the float32 value grid.
    The learning rate divides by 10 every ``lr_decay_every`` epochs. A
    non-finite loss aborts with NumericError. With ``refresh_ranges`` the
    non-frozen quantizer encodings are recomputed from a fresh pass over
    the training data after each epoch, tracking the moving weights.
    Returns the per-epoch log (also written as CSV when requested).
    """
    options = options or QatOptions()
    if not 0 < options.learning_rate < math.inf:
        raise CalibrationError(f"learning rate must be positive and finite, got {options.learning_rate}")
    if options.epochs < 1 or options.batch_size < 1:
        raise CalibrationError(
            f"training needs at least one epoch and one sample per batch, "
            f"got epochs {options.epochs}, batch size {options.batch_size}"
        )
    sim.check_ready()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n = x.shape[0]
    if n == 0:
        raise CalibrationError("training data is empty")
    if y.shape[:1] != (n,):
        raise ShapeError(f"training needs one target per input, got {n} and {y.shape[0] if y.ndim else 0}")
    if len(sim.graph.output_ids) != 1:  # the tape follows one output
        raise ShapeError(f"training needs a model with one output, got {sim.graph.output_ids}")
    rng = np.random.default_rng(seed)
    graph = sim.graph
    lr = options.learning_rate
    log: list[dict] = []

    for epoch in range(options.epochs):
        if epoch > 0 and options.lr_decay_every > 0 and epoch % options.lr_decay_every == 0:
            lr *= LR_DECAY_FACTOR
        order = rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, n, options.batch_size):
            idx = order[start : start + options.batch_size]
            xb, yb = x[idx], y[idx]
            tape = forward_with_tape(sim, xb)
            loss, gy = loss_fn(tape.values[tape.output_id], yb)
            if not math.isfinite(loss):
                raise NumericError(f"training loss is not finite at epoch {epoch}")
            grads = backward(sim, tape, gy)
            for nid, g in grads.items():
                node = graph.nodes[nid]
                node.set_weight("weight", node.weights["weight"] - lr * g["weight"])
                node.set_weight("bias", node.weights["bias"] - lr * g["bias"])
            epoch_loss += loss
            n_batches += 1
        if options.refresh_ranges:  # non-frozen encodings from the current weights and data
            compute_encodings(sim, [x])
        log.append({"epoch": epoch, "loss": epoch_loss / n_batches, "lr": lr})

    if options.log_path:
        fields = ["epoch", "loss", "lr"]
        write_csv(options.log_path, fields, ([row[k] for k in fields] for row in log))
    return log
