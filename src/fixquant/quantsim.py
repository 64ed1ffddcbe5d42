"""Quantization simulation on top of the graph IR.

A QuantSimModel wraps a GraphModel with quantizers: one per weight tensor
(``"node.weight"`` keys) and one per activation tensor that the placement
rules select (keyed by producing node id). The simulated forward pass
applies quantize-dequantize to every weight before its op and to every
quantized activation after its op, so the whole network runs in float but
sees exactly the values a fixed-point pipeline would produce.

Placement follows a six-section config (most specific section wins):
``defaults`` -> ``params`` -> ``op_type`` -> ``supergroups`` ->
``model_input`` -> ``model_output``. Two rules are structural and always
hold regardless of config: maxpool outputs carry no quantizer (the max of
grid values is already on the grid), and avgpool outputs reuse their
input's encoding (one requantization grid, no new range).

Encodings are exported to a JSON file keyed by tensor name; every entry is
a list with one element per channel (a single element for per-tensor
grids). Fields: bitwidth, scale, offset (the integer zero-point), symmetric,
signed, min, max, and optionally frozen. Imported encodings can be frozen,
after which calibration leaves them untouched.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graph_ir as gir
from .errors import CalibrationError, EncodingError, ModelFormatError
from .graph_ir import GraphModel, Node
from .quantizer import QuantEncoding, QuantizerSpec, qdq
from .range_setting import (
    WEIGHT_CHANNEL_AXIS,
    RangeAccumulator,
    RangeScheme,
    compute_encodings_from_accumulator,
)

__all__ = [
    "SimConfig",
    "QuantSimModel",
    "create_quantsim",
    "compute_encodings",
    "compute_activation_encodings",
    "export",
    "import_encodings",
]

ENCODINGS_FORMAT = "fixquant-encodings-v1"
# Empirical bias correction measures on the leading feed batches that hold
# this many samples; calibration records their float channel means.
BIAS_CORRECT_SAMPLES = 512

DEFAULT_CONFIG_DICT = {
    "defaults": {
        "ops": {"is_output_quantized": True, "is_symmetric": False},
        "params": {"is_quantized": True, "is_symmetric": True, "per_channel": False},
    },
    "params": {"bias": {"is_quantized": False}},
    "op_type": {},
    "supergroups": [
        ["conv2d", "relu"],
        ["conv2d", "relu6"],
        ["linear", "relu"],
        ["linear", "relu6"],
    ],
    "model_input": {"is_input_quantized": False},
    "model_output": {"is_output_quantized": True},
}


# The shape of a placement config. A dict is an object whose keys must
# appear in it ("*" stands for any key); a leaf is the (kind, check) of
# graph_ir.field. Every rule is an object of bool flags.
_FLAG = (bool, None)
_RULE = {"*": _FLAG}
_CONFIG_SCHEMA = {
    "defaults": {"*": _RULE},
    "params": {"*": _RULE},
    "op_type": {"*": {"params": {"*": _RULE}, "*": _FLAG}},
    "supergroups": (list, lambda v: all(isinstance(p, list) and all(isinstance(k, str) for k in p) for p in v)),
    "model_input": _RULE,
    "model_output": _RULE,
}


def _conform(doc: dict, schema: dict, where: str) -> None:
    for key in doc:
        want = schema.get(key, schema.get("*"))
        if want is None:
            raise ModelFormatError(f"{where}: unknown field {key!r}")
        if isinstance(want, dict):
            _conform(gir.field(doc, key, dict, where), want, f"{where}.{key}")
        else:
            gir.field(doc, key, want[0], where, check=want[1])


@dataclass
class SimConfig:
    """Quantizer placement policy, resolved per node / per parameter."""

    defaults: dict
    params: dict
    op_type: dict
    supergroups: list
    model_input: dict
    model_output: dict

    @classmethod
    def default(cls) -> "SimConfig":
        return cls.from_dict({})

    @classmethod
    def from_dict(cls, d: dict, where: str = "sim config") -> "SimConfig":
        """Sections given in ``d`` replace the default ones. Every field is
        checked against ``_CONFIG_SCHEMA``; a misfit is a ModelFormatError
        naming it."""
        if not isinstance(d, dict):
            raise ModelFormatError(f"{where} must be an object, got {d!r:.80}")
        _conform(d, _CONFIG_SCHEMA, where)
        return cls(**{**copy.deepcopy(DEFAULT_CONFIG_DICT), **copy.deepcopy(d)})

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        return cls.from_dict(gir.read_json(path, None, "sim config"), where=str(path))

    # -- resolution ------------------------------------------------------

    def resolve_param(self, kind: str, param: str) -> dict:
        """Effective (is_quantized, is_symmetric, per_channel) for one parameter."""
        return {
            "is_quantized": True, "is_symmetric": True, "per_channel": False,
            **self.defaults.get("params", {}),
            **self.params.get(param, {}),
            **self.op_type.get(kind, {}).get("params", {}).get(param, {}),
        }

    def resolve_output(self, kind: str) -> dict:
        """Effective (is_output_quantized, is_symmetric) for one op's output."""
        section = {k: v for k, v in self.op_type.get(kind, {}).items() if k != "params"}
        return {"is_output_quantized": True, "is_symmetric": False, **self.defaults.get("ops", {}), **section}


class QuantSimModel:
    """A GraphModel plus attached weight and activation quantizers."""

    def __init__(
        self,
        graph: GraphModel,
        param_quantizers: dict[str, QuantizerSpec],
        activation_quantizers: dict[str, QuantizerSpec],
        default_param_bw: int,
        default_output_bw: int,
        scheme: RangeScheme,
        avgpool_reuse: dict[str, str],
    ):
        self.graph = graph
        self.param_quantizers = param_quantizers
        self.activation_quantizers = activation_quantizers
        self.default_param_bw = default_param_bw
        self.default_output_bw = default_output_bw
        self.scheme = scheme
        self.avgpool_reuse = avgpool_reuse
        # Populated by compute_encodings; kept so bitwidth changes (mixed
        # precision) can re-derive encodings without another data pass.
        self.activation_stats: dict[str, RangeAccumulator] = {}
        # Output H x W (1 for linear) of every MAC node, also set by
        # compute_encodings; MAC counts for bit-ops multiply by it.
        self.mac_spatial: dict[str, int] = {}
        # Per leading calibration batch, keyed by the graph's and the
        # batch's digests, the float channel means of every MAC node; set
        # by compute_encodings and read by ``float_channel_means``.
        self.float_means: dict[tuple[bytes, bytes], dict[str, np.ndarray]] = {}
        # The slot of the ``resuming`` scope open on this sim.
        self._resume: _ResumeSlot | None = None

    # -- helpers ---------------------------------------------------------

    def param_quantizer(self, node_id: str, param: str) -> QuantizerSpec | None:
        return self.param_quantizers.get(f"{node_id}.{param}")

    def quantized_weights(self, node: Node) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in node.weights.items():
            spec = self.param_quantizer(node.id, name)
            out[name] = qdq(arr, spec) if spec is not None else arr
        return out

    def all_quantizers(self) -> dict[str, QuantizerSpec]:
        return {**self.param_quantizers, **self.activation_quantizers}

    def check_ready(self) -> None:
        missing = [k for k, s in self.all_quantizers().items() if not s.ready]
        if missing:
            raise EncodingError(
                f"quantizers have no encodings (run compute_encodings): {sorted(missing)}"
            )

    def clone(self) -> "QuantSimModel":
        """A deep copy in no ``resuming`` scope until one is opened on it;
        a scope open on this sim never sees its forwards."""
        return copy.deepcopy(self, {id(self._resume): None})

    # -- forward ----------------------------------------------------------

    def evaluate_all(self, inputs, capture_raw: bool = False, known=None, stop=None):
        """Quantized forward returning every tensor. With ``capture_raw``
        it returns three dicts: every tensor, the raw (pre-output-quantizer)
        op outputs, and the quantized tensors each weighted node ran with.
        ``known`` and ``stop`` are ``GraphModel.evaluate_all``'s; ``raw``
        and ``used`` then hold only the nodes that were recomputed."""
        raw: dict[str, np.ndarray] = {}
        used: dict[str, dict] = {}

        def weights(node: Node) -> dict[str, np.ndarray]:
            used[node.id] = w = self.quantized_weights(node)
            return w

        def activation(nid: str, y: np.ndarray) -> np.ndarray:
            if capture_raw:
                raw[nid] = y
            return self.quantize_output(nid, y)

        values = self.graph.evaluate_all(inputs, weights, activation, known, stop)
        return (values, raw, used) if capture_raw else values

    def quantize_output(self, nid: str, y: np.ndarray) -> np.ndarray:
        """``y`` through node ``nid``'s output quantizer, if it has one."""
        spec = self.activation_quantizers.get(nid)
        return y if spec is None else qdq(y, spec)

    def forward(self, inputs):
        """The quantized output tensor(s), arrays the caller owns. Inside a
        ``resuming`` scope the pass resumes from the scope's last forward."""
        slot = self._resume
        if slot is None:
            return self.graph.outputs(self.evaluate_all(inputs))
        feed = {nid: np.array(x, order="C") for nid, x in self.graph.normalize_inputs(inputs).items()}
        if slot.feed and not any(_same_bits(x, slot.feed[nid]) for nid, x in feed.items()):
            # Every node depends on an input, so a new batch reuses nothing:
            # run the plain pass and keep only the batch, so that a forward
            # repeating it keys its nodes and the one after resumes.
            slot.clear()
            slot.feed = feed
            return self.graph.outputs(self.evaluate_all(feed))
        keys, known = {}, {}
        for nid in self.graph.topo_order():
            node = self.graph.nodes[nid]
            keys[nid] = key = self._node_key(node)
            if (
                nid in slot.values
                and slot.keys[nid] == key
                and all(src in known for src in node.inputs)
                and (nid not in feed or _same_bits(feed[nid], slot.feed[nid]))
            ):
                known[nid] = slot.values[nid]
        slot.clear()  # the stale values go before the pass allocates new ones
        values = self.evaluate_all(feed, known=known)
        slot.keys, slot.values, slot.feed = keys, values, feed
        outs = self.graph.outputs(values)
        return {k: v.copy() for k, v in outs.items()} if isinstance(outs, dict) else outs.copy()

    def _node_key(self, node: Node) -> tuple:
        """What ``node``'s kernel and output quantizer read, beside the
        values of its inputs: kind, attrs, input ids, and each weight's
        bytes and quantizer state. The attrs enter as their ``repr``, which
        differs for any two JSON values that differ."""
        weights = tuple(
            (name, *_array_digest(w), _qdq_state(self.param_quantizer(node.id, name)))
            for name, w in node.weights.items()
        )
        return (
            node.kind, repr(node.attrs), tuple(node.inputs), weights,
            _qdq_state(self.activation_quantizers.get(node.id)),
        )

    @contextlib.contextmanager
    def resuming(self):
        """A scope in which this sim's ``forward`` resumes from the values of
        its previous forward in the scope. A node's value is reused when its
        kind, attrs, input ids, weight bytes and quantizer states are those
        it was computed with and all its inputs are reused; an input node's
        batch must equal the previous one bit for bit, and a forward whose
        every input batch is new runs the plain pass and keeps only its
        batches. The scope keeps one forward's values and drops them on
        exit. A scope opened on a sim already in one joins it; a clone is
        in none."""
        if self._resume is not None:
            yield self
            return
        self._resume = _ResumeSlot()
        try:
            yield self
        finally:
            self._resume = None


class _ResumeSlot:
    """The values of the last forward in a ``resuming`` scope, with the
    node keys and the input batches (own copies) they came from."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.keys: dict[str, tuple] = {}
        self.values: dict[str, np.ndarray] = {}
        self.feed: dict[str, np.ndarray] = {}


def _qdq_state(spec: QuantizerSpec | None):
    """What ``qdq`` reads of a quantizer; a disabled one is the identity."""
    return (spec.channel_axis, tuple(spec.encodings or ())) if spec is not None and spec.enabled else None


def _array_digest(a: np.ndarray) -> tuple:
    """Shape, dtype and the sha256 of the bytes of ``a``."""
    return a.shape, a.dtype.str, hashlib.sha256(np.ascontiguousarray(a)).digest()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit equality of two C-ordered float64 arrays (so -0.0 != 0.0, NaN == NaN)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Construction


def _supergroup_suppressed(graph: GraphModel, config: SimConfig) -> set[str]:
    """Node ids whose outputs are internal to a configured supergroup chain."""
    consumers = graph.consumers()
    suppressed: set[str] = set()
    for pattern in config.supergroups:
        if len(pattern) < 2:
            continue
        for nid, node in graph.nodes.items():
            if node.kind != pattern[0]:
                continue
            chain = [node]
            ok = True
            for want in pattern[1:]:
                cons = consumers[chain[-1].id]
                if len(cons) != 1 or graph.nodes[cons[0]].kind != want:
                    ok = False
                    break
                chain.append(graph.nodes[cons[0]])
            if ok:
                suppressed.update(n.id for n in chain[:-1])
    return suppressed


def create_quantsim(
    model: GraphModel,
    default_param_bw: int = 8,
    default_output_bw: int = 8,
    scheme: RangeScheme | None = None,
    config: SimConfig | None = None,
) -> QuantSimModel:
    """Attach quantizers to a model according to the placement config."""
    scheme = scheme or RangeScheme()
    config = config or SimConfig.default()
    graph = model.copy()
    suppressed = _supergroup_suppressed(graph, config)
    feeds_output = {
        src for node in graph.nodes.values() if node.kind == "output" for src in node.inputs
    }

    param_q: dict[str, QuantizerSpec] = {}
    act_q: dict[str, QuantizerSpec] = {}
    avgpool_reuse: dict[str, str] = {}

    for nid in graph.topo_order():
        node = graph.nodes[nid]

        for pname in node.weights:
            rule = config.resolve_param(node.kind, pname)
            if rule["is_quantized"]:
                per_channel = rule["per_channel"] and pname == "weight" and node.kind in gir.MAC_KINDS
                param_q[f"{nid}.{pname}"] = QuantizerSpec(
                    bitwidth=default_param_bw,
                    symmetric=bool(rule["is_symmetric"]),
                    channel_axis=WEIGHT_CHANNEL_AXIS if per_channel else None,
                )

        if node.kind in ("output", "maxpool"):
            continue  # a maxpool output stays on its input grid; no new encoding
        if node.kind == "input":
            if config.model_input.get("is_input_quantized", False):
                act_q[nid] = QuantizerSpec(bitwidth=default_output_bw, symmetric=False)
            continue

        rule = config.resolve_output(node.kind)
        quantized = rule["is_output_quantized"] and nid not in suppressed
        if quantized or (nid in feeds_output and config.model_output.get("is_output_quantized", True)):
            act_q[nid] = QuantizerSpec(bitwidth=default_output_bw, symmetric=bool(rule["is_symmetric"]))
            if node.kind == "avgpool":
                avgpool_reuse[nid] = node.inputs[0]

    return QuantSimModel(
        graph=graph,
        param_quantizers=param_q,
        activation_quantizers=act_q,
        default_param_bw=default_param_bw,
        default_output_bw=default_output_bw,
        scheme=scheme,
        avgpool_reuse=avgpool_reuse,
    )


# ---------------------------------------------------------------------------
# Calibration


def compute_param_encodings(sim: QuantSimModel, keys=None) -> None:
    """(Re)derive weight encodings from the current weight values."""
    for key, spec in sim.param_quantizers.items():
        if keys is not None and key not in keys:
            continue
        if spec.frozen or not spec.enabled:
            continue
        nid, pname = key.rsplit(".", 1)
        arr = sim.graph.nodes[nid].weights[pname]
        acc = RangeAccumulator(channel_axis=spec.channel_axis)
        acc.observe(arr)
        spec.set_encodings(
            compute_encodings_from_accumulator(acc, spec.bitwidth, spec.symmetric, sim.scheme)
        )


def compute_encodings(sim: QuantSimModel, feed) -> QuantSimModel:
    """Calibrate every unfrozen quantizer.

    Weight encodings come directly from the weight values. Activation
    encodings come from float-path statistics gathered by running the graph
    over the calibration feed (an iterable of input batches). Frozen
    quantizers are left untouched. Statistics accumulators are retained on
    the sim so encodings can later be re-derived at other bitwidths.

    The same float pass records, for each of the leading batches that hold
    ``BIAS_CORRECT_SAMPLES`` samples, every MAC node's float channel means
    in ``sim.float_means``, keyed by the graph's and the batch's digests;
    bias correction on the same graph and batches reads them instead of
    running the float pass again.
    """
    compute_param_encodings(sim)

    batches = list(feed) if feed is not None else []
    if not batches:
        raise CalibrationError("calibration feed is empty")
    accs: dict[str, RangeAccumulator] = {
        nid: RangeAccumulator() for nid in sim.activation_quantizers
    }
    graph_key = graph_digest(sim.graph)
    leading = len(_limit_samples(batches, BIAS_CORRECT_SAMPLES))
    sim.float_means = {}
    for i, batch in enumerate(batches):
        values = sim.graph.evaluate_all(batch)
        for nid, acc in accs.items():
            acc.observe(values[nid])
        # Bias correction rejects a batch with no samples and reports a
        # non-finite mean, so neither warns here.
        if i < leading and _rows(batch):
            with np.errstate(over="ignore"):
                sim.float_means[graph_key, _batch_digest(sim.graph, batch)] = _mac_channel_means(sim.graph, values)
    sim.activation_stats = accs
    sim.mac_spatial = {
        nid: int(np.prod(values[nid].shape[2:]))
        for nid, node in sim.graph.nodes.items()
        if node.kind in gir.MAC_KINDS
    }
    compute_activation_encodings(sim)
    return sim


def graph_digest(graph: GraphModel) -> bytes:
    """sha256 of what a float pass of ``graph`` reads: each node's id, kind,
    inputs and attrs (as their ``repr``), and its weights' bytes."""
    nodes = [
        (n.id, n.kind, n.inputs, n.attrs, [(name, _array_digest(w)) for name, w in n.weights.items()])
        for n in graph.nodes.values()
    ]
    return hashlib.sha256(repr(nodes).encode()).digest()


def _batch_digest(graph: GraphModel, batch) -> bytes:
    feed = [(nid, _array_digest(x)) for nid, x in graph.normalize_inputs(batch).items()]
    return hashlib.sha256(repr(feed).encode()).digest()


def _rows(batch) -> int:
    """The samples in a batch: the leading dimension of its (first) input."""
    shape = np.shape(next(iter(batch.values())) if isinstance(batch, dict) else batch)
    return shape[0] if shape else 1


def _limit_samples(batches: list, limit: int) -> list:
    """The leading ``batches`` that hold ``limit`` samples (all if fewer)."""
    out, seen = [], 0
    for b in batches:
        out.append(b)
        seen += _rows(b)
        if seen >= limit:
            break
    return out


def check_samples(batches: list, what: str) -> None:
    """CalibrationError naming the first of ``batches`` with no samples."""
    for i, b in enumerate(batches):
        if not _rows(b):
            raise CalibrationError(f"{what} batch {i} holds no samples")


def _channel_means(y: np.ndarray) -> np.ndarray:
    """Mean over batch (and spatial dims for 4-d maps), per output channel."""
    if y.ndim == 4:
        return y.mean(axis=(0, 2, 3))
    return y.mean(axis=0)


def _mac_channel_means(graph: GraphModel, values: dict) -> dict[str, np.ndarray]:
    return {nid: _channel_means(values[nid]) for nid, node in graph.nodes.items() if node.kind in gir.MAC_KINDS}


def float_channel_means(sim: QuantSimModel, batches: list) -> list[dict[str, np.ndarray]]:
    """Per batch, every MAC node's float channel means under ``sim.graph``
    as it is now: the record compute_encodings left for this graph and
    batch, else those of a float pass."""
    graph_key = graph_digest(sim.graph)
    out = []
    for batch in batches:
        means = sim.float_means.get((graph_key, _batch_digest(sim.graph, batch)))
        out.append(_mac_channel_means(sim.graph, sim.graph.evaluate_all(batch)) if means is None else means)
    return out


def compute_activation_encodings(sim: QuantSimModel, keys=None) -> None:
    """(Re)derive activation encodings at their quantizers' bitwidths from
    the statistics stored by compute_encodings. An avgpool output takes
    its input's encoding, or is disabled if that input is unquantized."""
    for nid, spec in sim.activation_quantizers.items():
        if (keys is not None and nid not in keys) or spec.frozen or not spec.enabled or nid in sim.avgpool_reuse:
            continue
        acc = sim.activation_stats.get(nid)
        if acc is None:
            raise CalibrationError(f"no stored activation statistics for {nid}; run compute_encodings first")
        spec.set_encodings(compute_encodings_from_accumulator(acc, spec.bitwidth, spec.symmetric, sim.scheme))
    for nid, src in sim.avgpool_reuse.items():
        spec = sim.activation_quantizers.get(nid)
        if spec is None or spec.frozen:
            continue
        src_spec = sim.activation_quantizers.get(src)
        if src_spec is not None and src_spec.enabled and src_spec.encodings:
            spec.bitwidth = src_spec.bitwidth
            spec.symmetric = src_spec.symmetric
            spec.set_encodings(list(src_spec.encodings))
        else:
            spec.enabled = False


# ---------------------------------------------------------------------------
# Encodings file IO


def _encoding_to_json(e: QuantEncoding, frozen: bool) -> dict:
    d = {
        "bitwidth": e.bitwidth,
        "scale": e.scale,
        "offset": e.zero_point,
        "symmetric": e.symmetric,
        "signed": e.signed,
        "min": e.grid_min,
        "max": e.grid_max,
    }
    if frozen:
        d["frozen"] = True
    return d


def _encoding_from_json(d, where: str = "encoding entry") -> QuantEncoding:
    return QuantEncoding(
        scale=float(gir.field(d, "scale", (int, float), where)),
        zero_point=gir.field(d, "offset", int, where),
        bitwidth=gir.field(d, "bitwidth", int, where),
        signed=gir.field(d, "signed", bool, where, False),
        symmetric=gir.field(d, "symmetric", bool, where, False),
    )


def encodings_to_dict(activation_quantizers: dict, param_quantizers: dict) -> dict:
    """The encodings document of two quantizer maps, tensor name -> spec."""

    def dump(qmap: dict[str, QuantizerSpec]) -> dict:
        out = {}
        for key in sorted(qmap):
            spec = qmap[key]
            if not spec.enabled or not spec.encodings:
                continue  # disabled quantizers are omitted from the file
            out[key] = [_encoding_to_json(e, spec.frozen) for e in spec.encodings]
        return out

    return {
        "format": ENCODINGS_FORMAT,
        "activation_encodings": dump(activation_quantizers),
        "param_encodings": dump(param_quantizers),
    }


def export(sim: QuantSimModel, prefix) -> dict[str, Path]:
    """Write the plain model (manifest + blob) and the encodings JSON.

    The exported trio fully reconstructs the simulation: loading the model,
    rebuilding a sim with the same settings, and importing the encodings
    reproduces simulated outputs bit-exactly.
    """
    manifest, blob = gir.model_paths(prefix)
    gir.save_model(sim.graph, manifest, blob)
    enc_path = Path(f"{prefix}.encodings.json")
    gir.write_json(enc_path, encodings_to_dict(sim.activation_quantizers, sim.param_quantizers))
    return {"manifest": manifest, "weights": blob, "encodings": enc_path}


def import_encodings(sim: QuantSimModel, source, freeze: bool = False) -> QuantSimModel:
    """Load encodings written by :func:`export` or adaround, from a file path
    or an already-loaded document; the entries of both get the same checks.

    Unknown tensor names and bitwidth mismatches are errors. ``freeze=True``
    (or a ``frozen`` flag on a file entry) pins the encoding so later
    calibration cannot overwrite it.
    """
    doc = source if isinstance(source, dict) else gir.read_json(source, ENCODINGS_FORMAT, "encodings file")
    for section, qmap in (
        ("activation_encodings", sim.activation_quantizers),
        ("param_encodings", sim.param_quantizers),
    ):
        entries_by_key = gir.field(doc, section, dict, "encodings", {})
        seen = set()
        for key in entries_by_key:
            if key not in qmap:
                raise EncodingError(f"encodings file names unknown tensor {key!r}")
            entries = gir.field(entries_by_key, key, list, section, check=len)
            spec = qmap[key]
            where = f"{section}[{key!r}]"
            encs = [_encoding_from_json(d, where) for d in entries]
            for e in encs:
                if e.bitwidth != spec.bitwidth:
                    raise EncodingError(
                        f"{key}: file bitwidth {e.bitwidth} != quantizer bitwidth {spec.bitwidth}"
                    )
            entry_frozen = any(gir.field(d, "frozen", bool, where, False) for d in entries)
            spec.enabled = True
            spec.symmetric = encs[0].symmetric
            if spec.per_channel and len(encs) == 1:
                spec.channel_axis = None
            elif not spec.per_channel and len(encs) > 1:
                spec.channel_axis = WEIGHT_CHANNEL_AXIS  # per-channel grids exist only on weights
            spec.set_encodings(encs, frozen=bool(freeze or entry_frozen))
            seen.add(key)
        # The file omits disabled quantizers, so a quantizer the file skips
        # and that calibration has not touched was off in the exporting sim.
        for key, spec in qmap.items():
            if key not in seen and spec.enabled and not spec.encodings:
                spec.enabled = False
    return sim
