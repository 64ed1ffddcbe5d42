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

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import graph_ir as gir
from .errors import CalibrationError, EncodingError, ModelFormatError
from .graph_ir import GraphModel, Node
from .quantizer import QuantEncoding, QuantizerSpec, qdq
from .range_setting import (
    RangeAccumulator,
    RangeScheme,
    compute_encodings_from_accumulator,
)

__all__ = [
    "SimConfig",
    "QuantSimModel",
    "create_quantsim",
    "compute_encodings",
    "export",
    "import_encodings",
    "load_encodings_file",
]

ENCODINGS_FORMAT = "fixquant-encodings-v1"

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


@dataclass
class SimConfig:
    """Quantizer placement policy, resolved per node / per parameter."""

    defaults: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG_DICT["defaults"]))
    params: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG_DICT["params"]))
    op_type: dict = field(default_factory=dict)
    supergroups: list = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG_DICT["supergroups"]))
    model_input: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG_DICT["model_input"]))
    model_output: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG_DICT["model_output"]))

    @classmethod
    def default(cls) -> "SimConfig":
        return cls()

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        base = copy.deepcopy(DEFAULT_CONFIG_DICT)
        unknown = set(d) - set(base)
        if unknown:
            raise ModelFormatError(f"unknown config sections: {sorted(unknown)}")
        merged = {**base, **copy.deepcopy(d)}
        return cls(**merged)

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as e:
            raise ModelFormatError(f"cannot read sim config {path}: {e}") from None

    # -- resolution ------------------------------------------------------

    def resolve_param(self, kind: str, param: str) -> dict:
        """Effective (is_quantized, is_symmetric, per_channel) for one parameter."""
        out = dict(self.defaults.get("params", {}))
        out.setdefault("is_quantized", True)
        out.setdefault("is_symmetric", True)
        out.setdefault("per_channel", False)
        out.update(self.params.get(param, {}))
        out.update(self.op_type.get(kind, {}).get("params", {}).get(param, {}))
        return out

    def resolve_output(self, kind: str) -> dict:
        """Effective (is_output_quantized, is_symmetric) for one op's output."""
        out = dict(self.defaults.get("ops", {}))
        out.setdefault("is_output_quantized", True)
        out.setdefault("is_symmetric", False)
        section = {k: v for k, v in self.op_type.get(kind, {}).items() if k != "params"}
        out.update(section)
        return out


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
        config: SimConfig,
        avgpool_reuse: dict[str, str],
    ):
        self.graph = graph
        self.param_quantizers = param_quantizers
        self.activation_quantizers = activation_quantizers
        self.default_param_bw = default_param_bw
        self.default_output_bw = default_output_bw
        self.scheme = scheme
        self.config = config
        self.avgpool_reuse = avgpool_reuse
        # Populated by compute_encodings; kept so bitwidth changes (mixed
        # precision) can re-derive encodings without another data pass.
        self.activation_stats: dict[str, RangeAccumulator] = {}
        # Output H x W (1 for linear) of every MAC node, also set by
        # compute_encodings; MAC counts for bit-ops multiply by it.
        self.mac_spatial: dict[str, int] = {}

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
        merged = dict(self.param_quantizers)
        merged.update(self.activation_quantizers)
        return merged

    def check_ready(self) -> None:
        missing = [k for k, s in self.all_quantizers().items() if not s.ready]
        if missing:
            raise EncodingError(
                f"quantizers have no encodings (run compute_encodings): {sorted(missing)}"
            )

    def clone(self) -> "QuantSimModel":
        return copy.deepcopy(self)

    # -- forward ----------------------------------------------------------

    def evaluate_all(self, inputs, capture_raw: bool = False):
        """Quantized forward returning every tensor. With ``capture_raw``
        it returns three dicts: every tensor, the raw (pre-output-quantizer)
        op outputs, and the quantized tensors each weighted node ran with."""
        raw: dict[str, np.ndarray] = {}
        used: dict[str, dict] = {}

        def weights(node: Node) -> dict[str, np.ndarray]:
            used[node.id] = w = self.quantized_weights(node)
            return w

        def activation(nid: str, y: np.ndarray) -> np.ndarray:
            if capture_raw:
                raw[nid] = y
            spec = self.activation_quantizers.get(nid)
            return y if spec is None else qdq(y, spec)

        values = self.graph.evaluate_all(inputs, weights, activation)
        return (values, raw, used) if capture_raw else values

    def forward(self, inputs):
        values = self.evaluate_all(inputs)
        outs = {oid: values[oid] for oid in self.graph.output_ids}
        if len(outs) == 1:
            return next(iter(outs.values()))
        return outs


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
    consumers = graph.consumers()
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
            if not rule.get("is_quantized", False):
                continue
            per_channel = bool(rule.get("per_channel", False)) and pname == "weight" and (
                node.kind in gir.MAC_KINDS
            )
            param_q[f"{nid}.{pname}"] = QuantizerSpec(
                bitwidth=default_param_bw,
                symmetric=bool(rule.get("is_symmetric", True)),
                channel_axis=scheme.channel_axis if per_channel else None,
            )

        if node.kind == "output":
            continue
        if node.kind == "maxpool":
            continue  # output stays on the input grid; no new encoding
        if node.kind == "input":
            if not config.model_input.get("is_input_quantized", False):
                continue
            act_q[nid] = QuantizerSpec(bitwidth=default_output_bw, symmetric=False)
            continue

        rule = config.resolve_output(node.kind)
        quantized = bool(rule.get("is_output_quantized", True))
        if nid in suppressed:
            quantized = False
        if nid in feeds_output and config.model_output.get("is_output_quantized", True):
            quantized = True
        if not quantized:
            continue
        act_q[nid] = QuantizerSpec(
            bitwidth=default_output_bw, symmetric=bool(rule.get("is_symmetric", False))
        )
        if node.kind == "avgpool":
            avgpool_reuse[nid] = node.inputs[0]

    return QuantSimModel(
        graph=graph,
        param_quantizers=param_q,
        activation_quantizers=act_q,
        default_param_bw=default_param_bw,
        default_output_bw=default_output_bw,
        scheme=scheme,
        config=config,
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
    """
    compute_param_encodings(sim)

    batches = list(feed) if feed is not None else []
    if not batches:
        raise CalibrationError("calibration feed is empty")
    accs: dict[str, RangeAccumulator] = {
        nid: RangeAccumulator() for nid in sim.activation_quantizers
    }
    for batch in batches:
        values = sim.graph.evaluate_all(batch)
        for nid, acc in accs.items():
            acc.observe(values[nid])
    sim.activation_stats = accs
    sim.mac_spatial = {
        nid: int(np.prod(values[nid].shape[2:]))
        for nid, node in sim.graph.nodes.items()
        if node.kind in gir.MAC_KINDS
    }

    for nid, spec in sim.activation_quantizers.items():
        if spec.frozen or not spec.enabled:
            continue
        if nid in sim.avgpool_reuse:
            continue  # filled below from the input tensor's encoding
        spec.set_encodings(
            compute_encodings_from_accumulator(accs[nid], spec.bitwidth, spec.symmetric, sim.scheme)
        )
    _fill_avgpool_reuse(sim)
    return sim


def _fill_avgpool_reuse(sim: QuantSimModel) -> None:
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
            # Nothing to reuse (input tensor is unquantized): disable.
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


def _encoding_from_json(d) -> QuantEncoding:
    if not isinstance(d, dict):
        raise ModelFormatError(f"encoding entry {d!r} is not an object")
    scale, offset, bitwidth = d.get("scale"), d.get("offset"), d.get("bitwidth")
    if type(scale) not in (int, float) or type(offset) is not int or type(bitwidth) is not int:
        raise ModelFormatError(f"encoding entry {d!r} needs a numeric scale, integer offset and bitwidth")
    return QuantEncoding(
        scale=float(scale),
        zero_point=offset,
        bitwidth=bitwidth,
        signed=bool(d.get("signed", False)),
        symmetric=bool(d.get("symmetric", False)),
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


def load_encodings_file(path) -> dict:
    return gir.read_json(path, ENCODINGS_FORMAT, "encodings file")


def import_encodings(sim: QuantSimModel, source, freeze: bool = False) -> QuantSimModel:
    """Load encodings written by :func:`export` or adaround, from a file path
    or an already-loaded document; the entries of both get the same checks.

    Unknown tensor names and bitwidth mismatches are errors. ``freeze=True``
    (or a ``frozen`` flag on a file entry) pins the encoding so later
    calibration cannot overwrite it.
    """
    doc = source if isinstance(source, dict) else load_encodings_file(source)
    for section, qmap in (
        ("activation_encodings", sim.activation_quantizers),
        ("param_encodings", sim.param_quantizers),
    ):
        entries_by_key = doc.get(section, {})
        if not isinstance(entries_by_key, dict):
            raise ModelFormatError(f"{section} must be an object")
        seen = set()
        for key, entries in entries_by_key.items():
            if key not in qmap:
                raise EncodingError(f"encodings file names unknown tensor {key!r}")
            if not isinstance(entries, list) or not entries:
                raise ModelFormatError(f"{section}[{key!r}] must be a non-empty list of encodings")
            spec = qmap[key]
            encs = [_encoding_from_json(d) for d in entries]
            for e in encs:
                if e.bitwidth != spec.bitwidth:
                    raise EncodingError(
                        f"{key}: file bitwidth {e.bitwidth} != quantizer bitwidth {spec.bitwidth}"
                    )
            entry_frozen = any(d.get("frozen", False) for d in entries)
            spec.enabled = True
            spec.symmetric = encs[0].symmetric
            if spec.per_channel and len(encs) == 1:
                spec.channel_axis = None
            elif not spec.per_channel and len(encs) > 1:
                spec.channel_axis = 0  # per-channel grids exist only on weights, axis 0
            spec.set_encodings(encs, frozen=bool(freeze or entry_frozen))
            seen.add(key)
        # The file omits disabled quantizers, so a quantizer the file skips
        # and that calibration has not touched was off in the exporting sim.
        for key, spec in qmap.items():
            if key not in seen and spec.enabled and not spec.encodings:
                spec.enabled = False
    return sim
