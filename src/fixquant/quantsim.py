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
        "params": {"is_quantized": True, "is_symmetric": True},
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
# A quantizer on every tensor that can carry one; an import turns off those its file omits.
EVERY_TENSOR_CONFIG_DICT = {"params": {}, "supergroups": [], "model_input": {"is_input_quantized": True}}


# The shape of a placement config. A dict is an object whose keys must
# appear in it; a leaf is the (kind, check) of graph_ir.field. A rule is an
# object of the bool flags that create_quantsim reads, and ``defaults``
# holds one rule for op outputs and one for parameters.
_FLAG = (bool, None)
_RULES = {
    "ops": {"is_output_quantized": _FLAG, "is_symmetric": _FLAG},
    "params": {"is_quantized": _FLAG, "is_symmetric": _FLAG},
}
_CONFIG_SCHEMA = {
    "defaults": _RULES,
    "params": dict.fromkeys((name for names in gir.REQUIRED_WEIGHTS.values() for name in names), _RULES["params"]),
    # a rule for each kind that gets an output quantizer, naming only the kind's own tensors
    "op_type": {k: {**_RULES["ops"], "params": dict.fromkeys(gir.REQUIRED_WEIGHTS.get(k, ()), _RULES["params"])}
                for k in gir.NODE_KINDS - {"input", "output", "maxpool"}},
    # every supergroup chains two or more node kinds
    "supergroups": (list, lambda v: all(
        isinstance(p, list) and len(p) > 1 and all(isinstance(k, str) and k in gir.NODE_KINDS for k in p) for p in v
    )),
    "model_input": {"is_input_quantized": _FLAG},
    "model_output": {"is_output_quantized": _FLAG},
}


def _conform(doc: dict, schema: dict, where: str) -> None:
    for key in doc:
        want = schema.get(key)
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
        """Effective (is_quantized, is_symmetric) for one parameter."""
        return {
            "is_quantized": True, "is_symmetric": True,
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
        scheme: RangeScheme,
    ):
        self.graph = graph
        self.param_quantizers = param_quantizers
        self.activation_quantizers = activation_quantizers
        self.scheme = scheme
        # Populated by compute_encodings; kept so bitwidth changes (mixed
        # precision) can re-derive encodings without another data pass.
        self.activation_stats: dict[str, RangeAccumulator] = {}
        # Output H x W (1 for linear) of every MAC node, set by each float
        # pass of ``_float_pass``; MAC counts for bit-ops multiply by it.
        self.mac_spatial: dict[str, int] = {}
        # The float channel means of every MAC node on the leading
        # calibration batches, and on any batch ``float_channel_means``
        # missed, keyed by the node's float value key; set by ``_float_pass``.
        self.float_means: dict[bytes, np.ndarray] = {}
        # The memo of the ``resuming`` scope open on this sim: value key ->
        # value, for the values of its last forward and their batches.
        self._resume: dict[bytes, np.ndarray] | None = None
        # "node.param" -> (weight bytes, _qdq_state, image) of quantized_weights
        self._images: dict[str, tuple] = {}

    # -- helpers ---------------------------------------------------------

    def param_quantizer(self, node_id: str, param: str) -> QuantizerSpec | None:
        return self.param_quantizers.get(f"{node_id}.{param}")

    def quantized_weights(self, node: Node) -> dict[str, np.ndarray]:
        """``node``'s weights as the forward runs with them: a weight with no
        enabled quantizer as it is, else its read-only ``qdq`` image, made
        once per (weight bytes, encoding) and kept while the weight's dtype,
        shape and bytes and its enabled quantizer's ``_qdq_state`` stay."""
        out = dict(node.weights)
        for name, arr in node.weights.items():
            key = f"{node.id}.{name}"
            state = _qdq_state(self.param_quantizers.get(key))
            if state is None:
                self._images.pop(key, None)  # a disabled quantizer keeps no image
                continue
            source = (arr.dtype.str, arr.shape, arr.tobytes())
            if self._images.get(key, ())[:2] != (source, state):
                image = qdq(arr, self.param_quantizers[key])
                image.flags.writeable = False
                self._images[key] = (source, state, image)
            out[name] = self._images[key][2]
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
        a scope open on this sim never sees its forwards. It holds no weight
        image: it quantizes each weight once per (bytes, encoding) itself."""
        return copy.deepcopy(self, {id(self._resume): None, id(self._images): {}})

    # -- forward ----------------------------------------------------------

    def evaluate_all(self, inputs, known=None, stop=None, stream=False) -> dict[str, np.ndarray]:
        """The quantized forward: ``GraphModel.evaluate_all`` with this sim's
        quantized weights and output quantizers as its hooks. ``known``,
        ``stop`` and ``stream`` are that pass's."""
        return self.graph.evaluate_all(inputs, self.quantized_weights, self.quantize_output, known, stop, stream)

    def quantize_output(self, nid: str, y: np.ndarray) -> np.ndarray:
        """``y`` through node ``nid``'s output quantizer, if it has one."""
        spec = self.activation_quantizers.get(nid)
        return y if spec is None else qdq(y, spec)

    def forward(self, inputs):
        """The quantized output tensor(s), arrays the caller owns. Inside a
        ``resuming`` scope a node whose value key (``gir.value_keys`` with
        this sim's quantizer states) is in the scope's memo takes the value
        it keys, and only the other nodes run."""
        memo = self._resume
        if memo is None:
            return self.graph.outputs(self.evaluate_all(inputs, stream=True))
        feed = {nid: np.array(x, order="C") for nid, x in self.graph.normalize_inputs(inputs).items()}
        batch_keys = {nid: gir.array_key(x) for nid, x in feed.items()}
        batches = {batch_keys[nid]: x for nid, x in feed.items()}
        if memo and not batches.keys() & memo.keys():
            # Every node depends on an input, so a new batch reuses nothing:
            # run the plain pass and keep only the batch, so that a forward
            # repeating it keys its nodes and the one after resumes.
            memo.clear()
            memo.update(batches)
            return self.graph.outputs(self.evaluate_all(feed, stream=True))
        keys = gir.value_keys(self.graph, batch_keys, self.qdq_states)
        known = {nid: memo[key] for nid, key in keys.items() if key in memo}
        memo.clear()  # the stale values go before the pass allocates new ones
        values = self.evaluate_all(feed, known=known)
        memo.update(batches)
        memo.update((keys[nid], y) for nid, y in values.items())
        outs = self.graph.outputs(values)
        return {k: v.copy() for k, v in outs.items()} if isinstance(outs, dict) else outs.copy()

    def qdq_states(self, node: Node) -> tuple:
        """What ``node``'s quantizers read: each weight's, then its output's."""
        weights = tuple(_qdq_state(self.param_quantizer(node.id, name)) for name in node.weights)
        return weights, _qdq_state(self.activation_quantizers.get(node.id))

    @contextlib.contextmanager
    def resuming(self):
        """A scope in which this sim's ``forward`` resumes from its previous
        forward in the scope. The scope's memo maps the value key of every
        node of that forward to its value, and the key of each input batch
        to the batch (an own copy); a node whose key is in the memo is not
        rerun. A forward whose every input batch is new runs the plain
        pass and keeps only its batches. The memo is dropped on exit. A
        scope opened on a sim already in one joins it; a clone is in none."""
        if self._resume is not None:
            yield self
            return
        self._resume = {}
        try:
            yield self
        finally:
            self._resume = None


def _qdq_state(spec: QuantizerSpec | None):
    """What ``qdq`` reads of a quantizer; a disabled one is the identity."""
    return (spec.channel_axis, tuple(spec.encodings or ())) if spec is not None and spec.enabled else None


# ---------------------------------------------------------------------------
# Construction


def _supergroup_suppressed(graph: GraphModel, config: SimConfig) -> set[str]:
    """Node ids whose outputs are internal to a configured supergroup chain."""
    suppressed: set[str] = set()
    for pattern in config.supergroups:
        for nid, node in graph.nodes.items():
            if node.kind != pattern[0]:
                continue
            chain = [node]
            for want in pattern[1:]:
                reader = graph.sole_reader(chain[-1].id)
                if reader is None or reader.kind != want:
                    break
                chain.append(reader)
            else:
                suppressed.update(n.id for n in chain[:-1])
    return suppressed


def weight_channel_axis(kind: str, param: str, scheme: RangeScheme) -> int | None:
    """The channel axis of a parameter's quantizer: the output channels of
    a MAC weight when ``scheme.per_channel`` is set, else none."""
    return WEIGHT_CHANNEL_AXIS if scheme.per_channel and param == "weight" and kind in gir.MAC_KINDS else None


def create_quantsim(
    model: GraphModel,
    default_param_bw: int = 8,
    default_output_bw: int = 8,
    scheme: RangeScheme | None = None,
    config: SimConfig | None = None,
) -> QuantSimModel:
    """Attach quantizers to a model according to the placement config;
    ``scheme.per_channel`` gives every MAC weight one grid per output channel."""
    scheme = scheme or RangeScheme()
    config = config or SimConfig.default()
    graph = model.copy()
    suppressed = _supergroup_suppressed(graph, config)
    feeds_output = {graph.nodes[oid].inputs[0] for oid in graph.output_ids}

    param_q: dict[str, QuantizerSpec] = {}
    act_q: dict[str, QuantizerSpec] = {}

    for nid, node in graph.nodes.items():
        for pname in node.weights:
            rule = config.resolve_param(node.kind, pname)
            if rule["is_quantized"]:
                param_q[f"{nid}.{pname}"] = QuantizerSpec(
                    bitwidth=default_param_bw,
                    symmetric=bool(rule["is_symmetric"]),
                    channel_axis=weight_channel_axis(node.kind, pname, scheme),
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

    return QuantSimModel(graph=graph, param_quantizers=param_q, activation_quantizers=act_q, scheme=scheme)


# ---------------------------------------------------------------------------
# Calibration


def weight_encodings(w: np.ndarray, spec: QuantizerSpec, scheme: RangeScheme) -> list[QuantEncoding]:
    """The encodings ``scheme`` derives from weight ``w`` at ``spec``'s bitwidth, symmetry and axis."""
    acc = RangeAccumulator(channel_axis=spec.channel_axis, bins=scheme.bins)
    acc.observe(w)
    return compute_encodings_from_accumulator(acc, spec.bitwidth, spec.symmetric, scheme)


def compute_param_encodings(sim: QuantSimModel, keys=None) -> None:
    """(Re)derive weight encodings from the current weight values."""
    for key, spec in sim.param_quantizers.items():
        if keys is not None and key not in keys:
            continue
        if spec.frozen or not spec.enabled:
            continue
        nid, pname = key.rsplit(".", 1)
        spec.set_encodings(weight_encodings(sim.graph.nodes[nid].weights[pname], spec, sim.scheme))


def compute_encodings(sim: QuantSimModel, feed) -> QuantSimModel:
    """Calibrate every unfrozen quantizer.

    Weight encodings come from the weight values, activation encodings
    from float statistics observed as each value appears in a pass over the
    calibration feed (an iterable of input batches) that holds only live
    values. Frozen quantizers are left untouched. Accumulators are retained
    on the sim so encodings can later be re-derived at other bitwidths; only
    a sqnr sim's keep the histograms that a sqnr derivation reads.

    Each batch runs through ``_float_pass``, the one float-pass recorder.
    For each of the leading batches that hold ``BIAS_CORRECT_SAMPLES``
    samples it also records every MAC node's float channel means in
    ``sim.float_means``, keyed by the node's float value key
    (``gir.value_keys``), which chains its batch and everything upstream;
    bias correction on the same batches reads them instead of running the
    float pass again while no MAC node's key has moved.
    """
    compute_param_encodings(sim)

    batches = list(feed) if feed is not None else []
    if not batches:
        raise CalibrationError("calibration feed is empty")
    accs: dict[str, RangeAccumulator] = {
        nid: RangeAccumulator(bins=sim.scheme.bins) for nid in sim.activation_quantizers
    }
    leading = len(_limit_samples(batches, BIAS_CORRECT_SAMPLES))
    sim.float_means, sim.mac_spatial = {}, {}
    for i, batch in enumerate(batches):
        # Bias correction rejects a batch with no samples, so none is recorded.
        _float_pass(sim, batch, accs, _float_keys(sim.graph, batch) if i < leading and _rows(batch) else None)
    sim.activation_stats = accs
    compute_activation_encodings(sim)
    return sim


def _float_pass(sim: QuantSimModel, batch, accs: dict[str, RangeAccumulator], keys: dict[str, bytes] | None) -> None:
    """One float pass of ``sim.graph`` on ``batch`` that holds only live
    values. It observes each value that has an accumulator in ``accs`` and
    records every MAC node's output H x W in ``sim.mac_spatial``; given the
    pass's float value ``keys``, also the node's channel means in
    ``sim.float_means`` under its key."""

    def observe(nid: str, y: np.ndarray) -> np.ndarray:
        if nid in accs:
            accs[nid].observe(y)
        if sim.graph.nodes[nid].kind in gir.MAC_KINDS:
            sim.mac_spatial[nid] = int(np.prod(y.shape[2:]))
            if keys is not None:
                with np.errstate(over="ignore"):  # bias correction reports a non-finite mean
                    sim.float_means[keys[nid]] = _channel_means(y)
        return y

    sim.graph.evaluate_all(batch, activation=observe, stream=True)


def _float_keys(graph: GraphModel, batch) -> dict[str, bytes]:
    """The value key of every node of a float pass of ``graph`` on ``batch``."""
    return gir.value_keys(graph, {nid: gir.array_key(x) for nid, x in graph.normalize_inputs(batch).items()})


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


def float_channel_means(sim: QuantSimModel, batches: list) -> list[dict[str, np.ndarray]]:
    """Per batch, every MAC node's float channel means under ``sim.graph``
    as it is now, looked up in ``sim.float_means`` under each MAC node's
    float value key. A batch with any of them missing first runs through
    ``_float_pass``, the recorder compute_encodings runs, which records
    them all."""
    macs = [nid for nid, node in sim.graph.nodes.items() if node.kind in gir.MAC_KINDS]
    out = []
    for batch in batches:
        keys = _float_keys(sim.graph, batch)
        if not all(keys[nid] in sim.float_means for nid in macs):
            _float_pass(sim, batch, {}, keys)
        out.append({nid: sim.float_means[keys[nid]] for nid in macs})
    return out


def compute_activation_encodings(sim: QuantSimModel, keys=None) -> None:
    """(Re)derive activation encodings at their quantizers' bitwidths from
    the statistics stored by compute_encodings. An avgpool output takes
    the encoding of the input its graph node names, or is disabled if that
    input is unquantized."""
    pools = [nid for nid in sim.activation_quantizers if sim.graph.nodes[nid].kind == "avgpool"]
    for nid, spec in sim.activation_quantizers.items():
        if (keys is not None and nid not in keys) or spec.frozen or not spec.enabled or nid in pools:
            continue
        acc = sim.activation_stats.get(nid)
        if acc is None:
            raise CalibrationError(f"no stored activation statistics for {nid}; run compute_encodings first")
        spec.set_encodings(compute_encodings_from_accumulator(acc, spec.bitwidth, spec.symmetric, sim.scheme))
    for nid in pools:
        spec = sim.activation_quantizers[nid]
        if spec.frozen:
            continue
        src_spec = sim.activation_quantizers.get(sim.graph.nodes[nid].inputs[0])
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

    The exported trio fully reconstructs the simulation: the model under
    ``EVERY_TENSOR_CONFIG_DICT`` with these encodings imported, which set
    every quantizer, reproduces simulated outputs bit-exactly.
    """
    manifest, blob = gir.model_paths(prefix)
    gir.save_model(sim.graph, manifest, blob)
    enc_path = Path(f"{prefix}.encodings.json")
    gir.write_json(enc_path, encodings_to_dict(sim.activation_quantizers, sim.param_quantizers))
    return {"manifest": manifest, "weights": blob, "encodings": enc_path}


def import_encodings(sim: QuantSimModel, source, freeze: bool = False) -> QuantSimModel:
    """Load encodings written by :func:`export` or adaround, from a file path
    or an already-loaded document; the entries of both get the same checks.

    Each entry enables its tensor's quantizer at the entry's bitwidth,
    symmetry and granularity: one encoding, or one per slice along
    WEIGHT_CHANNEL_AXIS of a parameter. Other counts, unknown tensors and
    entries that disagree on bitwidth or symmetry are errors, found before
    any quantizer changes. ``freeze=True`` or an entry's ``frozen`` flag
    pins the encoding against later calibration; an entry pinned neither
    way leaves an already-frozen quantizer exactly as it was.
    """
    doc = source if isinstance(source, dict) else gir.read_json(source, ENCODINGS_FORMAT, "encodings file")
    param_channels = {f"{nid}.{p}": np.atleast_1d(w).shape[WEIGHT_CHANNEL_AXIS]
                      for nid, node in sim.graph.nodes.items() for p, w in node.weights.items()}
    updates, off = [], []
    for section, qmap, channels in (
        ("activation_encodings", sim.activation_quantizers, {}),
        ("param_encodings", sim.param_quantizers, param_channels),
    ):
        entries_by_key = gir.field(doc, section, dict, "encodings", {})
        for key in entries_by_key:
            if key not in qmap:
                raise EncodingError(f"encodings file names unknown tensor {key!r}")
            entries = gir.field(entries_by_key, key, list, section, check=len)
            where = f"{section}[{key!r}]"
            encs = [_encoding_from_json(d, where) for d in entries]
            counts = {1, channels.get(key, 1)}
            if len(encs) not in counts:
                raise EncodingError(f"{where}: {len(encs)} encodings, not {' or '.join(map(str, sorted(counts)))}")
            for attr in ("bitwidth", "symmetric"):
                if len(seen := {getattr(e, attr) for e in encs}) > 1:
                    raise EncodingError(f"{where}: entries disagree on {attr} {sorted(seen)}")
            frozen = bool(freeze or any(gir.field(d, "frozen", bool, where, False) for d in entries))
            updates.append((qmap[key], encs, frozen))
        # The file omits disabled quantizers, so a quantizer the file skips
        # and that calibration has not touched was off in the exporting sim.
        off += [q for key, q in qmap.items() if key not in entries_by_key and q.enabled and not q.encodings]
    for spec, encs, frozen in updates:
        if spec.frozen and not frozen:
            continue  # not even its bitwidth or granularity changes
        spec.enabled = True
        spec.bitwidth = encs[0].bitwidth
        spec.symmetric = encs[0].symmetric
        spec.channel_axis = WEIGHT_CHANNEL_AXIS if len(encs) > 1 else None
        spec.set_encodings(encs, frozen=frozen)
    for spec in off:
        spec.enabled = False
    return sim
