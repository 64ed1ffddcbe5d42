"""Dataflow graph IR and its on-disk format.

A model is a list of nodes, given in any order that has no cycle. Each
node has a unique id, a kind from the supported set, input edges naming
producer nodes, kind-specific attributes, and (for linear / conv2d /
batchnorm) named weight tensors. A node produces exactly one tensor, named
by the node id. A ``GraphModel`` fixes its nodes' topological order and
each node's readers when it is built, and every pass reads both. A node
holds its attrs in manifest form, as save and load give them back (a
tuple becomes a list); attrs that JSON cannot hold are a GraphError.

On disk a model is two files:

* ``<prefix>.model.json`` - the manifest: nodes, attributes, and for every
  weight tensor its shape and offset (in float32 elements) into the blob.
* ``<prefix>.weights.bin`` - all weight tensors, raw little-endian
  float32. Sorted by offset the tensors tile the blob: each starts where
  the one before it ends, the first at 0 and the last ending at the blob's
  end, so no two overlap and every float belongs to one.

Datasets use the same manifest + blob layout; ``save_pair`` and
``load_pair`` are the one writer and reader of it. ``read_json`` is the
one reader of every JSON file and ``field`` the one checker of a field
in it, so a malformed file is a ModelFormatError naming the field.

Weights are float32-valued in memory too (stored as float64 for
arithmetic), so save followed by load is an identity.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import dataclasses
from pathlib import Path

import numpy as np

from . import tensor_core as tc
from .errors import GraphError, ModelFormatError, ShapeError

__all__ = [
    "Node", "GraphModel", "load_model", "save_model", "model_paths", "read_json", "field", "save_pair",
    "load_pair", "write_atomic", "write_csv", "write_json", "array_key", "value_keys",
]

NODE_KINDS = {
    "linear",
    "conv2d",
    "batchnorm",
    "relu",
    "relu6",
    "add",
    "concat",
    "maxpool",
    "avgpool",
    "input",
    "output",
}
WEIGHTED_KINDS = {"linear", "conv2d", "batchnorm"}
MAC_KINDS = {"linear", "conv2d"}

REQUIRED_WEIGHTS = {
    "linear": ("weight", "bias"),
    "conv2d": ("weight", "bias"),
    "batchnorm": ("gamma", "beta", "mean", "var"),
}

MANIFEST_FORMAT = "fixquant-model-v1"


@dataclasses.dataclass
class Node:
    id: str
    kind: str
    inputs: list[str] = dataclasses.field(default_factory=list)
    attrs: dict = dataclasses.field(default_factory=dict)
    weights: dict[str, np.ndarray] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise GraphError(f"node {self.id!r} has unsupported kind {self.kind!r}")
        if bool(self.weights) != (self.kind in WEIGHTED_KINDS):
            state = "must" if self.kind in WEIGHTED_KINDS else "must not"
            raise GraphError(f"{self.kind} node {self.id!r} {state} carry weight tensors")
        for name in REQUIRED_WEIGHTS.get(self.kind, ()):
            if name not in self.weights:
                raise GraphError(f"{self.kind} node {self.id!r} is missing tensor {name!r}")
        self.weights = {k: tc.f32(v) for k, v in self.weights.items()}
        try:  # manifest form: what save followed by load gives back (the usual empty attrs need no round trip)
            self.attrs = json.loads(json.dumps(self.attrs)) if self.attrs != {} else {}
        except (TypeError, ValueError) as e:
            raise GraphError(f"node {self.id!r} attrs are not JSON values: {e}") from None
        if not isinstance(self.attrs, dict):
            raise GraphError(f"node {self.id!r} attrs must be an object, got {self.attrs!r:.80}")

    def set_weight(self, name: str, value) -> None:
        if name not in self.weights:
            raise GraphError(f"node {self.id!r} has no tensor {name!r}")
        self.weights[name] = tc.f32(value)


class GraphModel:
    """A validated collection of nodes in topological order.

    The order is Kahn's algorithm with insertion order among ready nodes:
    again and again, the first given node whose inputs are all placed is
    placed next, so a list already in order keeps it. ``nodes`` (id ->
    node), ``input_ids`` and ``output_ids`` follow that order, and
    ``readers`` maps each node id to the distinct nodes that read its
    value, as a tuple in that order. The structure (nodes and edges) and
    with it ``readers`` are fixed at construction; to change them, build
    a new ``GraphModel``. Weights and attributes may change.
    """

    def __init__(self, nodes: list[Node], name: str = "model"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise GraphError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        self._validate()

    # -- structure -----------------------------------------------------

    def _validate(self) -> None:
        """Check the edges, then put the nodes in topological order."""
        if not {"input", "output"} <= {n.kind for n in self.nodes.values()}:
            raise GraphError("graph needs at least one input node and one output node")
        for node in self.nodes.values():
            if node.kind == "input":
                if node.inputs:
                    raise GraphError(f"input node {node.id!r} cannot have inputs")
                continue
            if not node.inputs:
                raise GraphError(f"node {node.id!r} has no inputs")
            if node.kind == "output" and len(node.inputs) != 1:
                raise GraphError(f"output node {node.id!r} must have exactly one input")
            for src in node.inputs:
                if src not in self.nodes:
                    raise GraphError(f"node {node.id!r} references unknown producer {src!r}")
                if self.nodes[src].kind == "output":
                    raise GraphError(f"output node {src!r} cannot feed node {node.id!r}")
        rest, placed, self.readers = list(self.nodes.values()), {}, {}
        while rest:
            i = next((i for i, n in enumerate(rest) if all(s in placed for s in n.inputs)), None)
            if i is None:
                raise GraphError("graph contains a cycle")
            node = rest.pop(i)
            placed[node.id] = node
            self.readers[node.id] = ()
            for s in set(node.inputs):
                self.readers[s] += (node.id,)
        self.nodes = placed
        self.input_ids = [nid for nid, n in placed.items() if n.kind == "input"]
        self.output_ids = [nid for nid, n in placed.items() if n.kind == "output"]

    def sole_reader(self, nid: str) -> Node | None:
        """The node that reads ``nid``'s value if it is the only one, else None."""
        rs = self.readers[nid]
        return self.nodes[rs[0]] if len(rs) == 1 else None

    def copy(self) -> "GraphModel":
        """A deep copy: ``Node`` copies the weights and attrs it is given."""
        nodes = [Node(n.id, n.kind, list(n.inputs), n.attrs, n.weights) for n in self.nodes.values()]
        return GraphModel(nodes, name=self.name)

    # -- evaluation ------------------------------------------------------

    def forward(self, inputs):
        """Run the graph in float. Returns one array, or a dict for multi-output."""
        return self.outputs(self.evaluate_all(inputs, stream=True))

    def outputs(self, values: dict):
        """The output tensors among ``values``: one array, or a dict for multi-output."""
        outs = {oid: values[oid] for oid in self.output_ids}
        return next(iter(outs.values())) if len(outs) == 1 else outs

    def evaluate_all(self, inputs, weights=None, activation=None, known=None, stop=None,
                     stream=False) -> dict[str, np.ndarray]:
        """Run the graph and return every node's output tensor, keyed by node id.

        This is the only topological runner. ``weights(node)`` substitutes a
        weighted node's tensors (the simulation passes its quantized weights)
        and ``activation(nid, y)`` maps each node's output, input nodes
        included, before consumers see it. The float path passes neither.

        A node found in ``known`` takes that value as it is: its kernel does
        not run and ``activation`` is not applied again. With ``stop`` the
        pass computes only ``stop`` and the nodes it depends on that
        ``known`` lacks, so nothing downstream of ``stop`` runs; with
        ``known`` and no ``stop`` it computes only what the outputs need
        (a pass with neither runs every node). The returned dict holds the
        known values and every value computed.

        With ``stream`` a value is dropped once every node in the graph that
        reads it has a value: a known one before the pass, a computed one
        when its last reader's kernel has run, before that reader's
        ``activation``. Values nothing reads (outputs) stay, a known ``stop``
        stays, and a pass that stops keeps what a later pass from its values
        reads.
        """
        feed = self.normalize_inputs(inputs)
        values: dict[str, np.ndarray] = dict(known or {})
        order = self.nodes.values()
        unread = {s: len(rs) for s, rs in self.readers.items() if rs} if stream else {}  # readers without a value
        for r in values.keys() & self.nodes.keys() if stream else ():  # a known reader has read its inputs
            for s in set(self.nodes[r].inputs):
                unread[s] -= 1
        for s in [s for s in values if unread.get(s) == 0 and s != stop]:
            del values[s]
        if stop is not None and stop not in self.nodes:
            raise GraphError(f"cannot stop at {stop!r}: no such node")
        if stop is not None or known:
            need = {stop} if stop is not None else set(self.output_ids)
            for node in reversed(order):
                if node.id in need and node.id not in values:
                    need.update(node.inputs)
            order = [node for node in order if node.id in need]
        for node in order:
            nid = node.id
            if nid in values:
                continue
            if node.kind == "input":
                y = feed.pop(nid)
            else:
                w = weights(node) if weights is not None and node.weights else node.weights
                y = eval_kind(node.kind, node.attrs, w, [values[s] for s in node.inputs])
                for s in set(node.inputs) if stream else ():
                    unread[s] -= 1
                    if not unread[s]:
                        del values[s]
            values[nid] = y if activation is None else activation(nid, y)
        return values

    def normalize_inputs(self, inputs) -> dict[str, np.ndarray]:
        """``inputs`` (an array, or a dict for several inputs) as float64
        arrays keyed by input node id."""
        ids = self.input_ids
        if isinstance(inputs, dict):
            missing = set(ids) - set(inputs)
            if missing:
                raise ShapeError(f"missing values for inputs {sorted(missing)}")
            return {k: np.asarray(inputs[k], dtype=np.float64) for k in ids}
        if len(ids) != 1:
            raise ShapeError(f"graph has inputs {ids}; pass a dict of input values")
        return {ids[0]: np.asarray(inputs, dtype=np.float64)}


def array_key(a: np.ndarray) -> bytes:
    """sha256 of an array's shape, dtype and bytes: the key of an input batch."""
    h = hashlib.sha256(repr((a.shape, a.dtype.str)).encode())
    h.update(np.ascontiguousarray(a))
    return h.digest()


def value_keys(graph: GraphModel, batch_keys: dict[str, bytes], state=None) -> dict[str, bytes]:
    """A sha256 content key per node id: two nodes share a key only if
    their values are the same bits. A node's key hashes the ``repr`` of its
    kind, its attrs, its weights' ``array_key``s and the keys of its
    inputs; an input node takes its batch's key from ``batch_keys`` in
    place of input keys. With ``state``, ``state(node)`` is hashed in too:
    what else the node's value reads, such as a simulation's quantizer
    states. Node ids are not hashed, so identical branches share keys."""
    keys: dict[str, bytes] = {}
    for nid, node in graph.nodes.items():
        head = (
            node.kind,
            node.attrs,
            [batch_keys[nid]] if node.kind == "input" else [keys[s] for s in node.inputs],
            [(name, array_key(w)) for name, w in node.weights.items()],
            None if state is None else state(node),
        )
        keys[nid] = hashlib.sha256(repr(head).encode()).digest()
    return keys


def eval_kind(k: str, attrs: dict, w: dict, inputs: list[np.ndarray]) -> np.ndarray:
    """Apply one node kind's kernel; the single kernel dispatch for every runner."""
    if k == "linear":
        return tc.linear(inputs[0], w["weight"], w["bias"])
    if k == "conv2d":
        return tc.conv2d(
            inputs[0],
            w["weight"],
            w["bias"],
            stride=attrs.get("stride", 1),
            padding=attrs.get("padding", 0),
            groups=attrs.get("groups", 1),
        )
    if k == "batchnorm":
        return tc.batchnorm(
            inputs[0], w["gamma"], w["beta"], w["mean"], w["var"], eps=attrs.get("eps", 1e-5)
        )
    if k == "output":
        return inputs[0]
    return tc.elementwise(k, inputs, **attrs)


# ---------------------------------------------------------------------------
# On-disk format


def write_atomic(path, data: str | bytes) -> None:
    """Write text or bytes through a temp file beside ``path`` and
    ``os.replace``, so an interrupted write leaves the previous file (or
    none), never a truncated one."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON, atomically."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header row and ``rows`` as CSV, atomically. The ``csv``
    module's default dialect ends lines with CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def model_paths(prefix) -> tuple[Path, Path]:
    """Manifest and blob paths for a path prefix."""
    return Path(f"{prefix}.model.json"), Path(f"{prefix}.weights.bin")


def read_json(path, fmt: str | None, what: str) -> dict:
    """Read a JSON object tagged ``"format": fmt`` (any object if ``fmt`` is
    None). Any failure (unreadable file, bad JSON, not an object, wrong
    tag) is a ModelFormatError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ModelFormatError(f"cannot read {what} {path}: {e}") from None
    if not isinstance(doc, dict) or (fmt is not None and doc.get("format") != fmt):
        raise ModelFormatError(f"{path} is not a {fmt or 'JSON object'} {what}")
    return doc


_REQUIRED = object()


def field(doc, key: str, kind, where: str, default=_REQUIRED, check=None):
    """``doc[key]`` if it is an instance of ``kind`` (a type or a tuple of
    them; a bool never counts as a number) and passes ``check``. A missing
    key gives ``default`` when one is passed. Anything else, ``doc`` not
    being an object included, is one ModelFormatError naming ``where``."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where} must be an object, got {doc!r:.80}")
    if key not in doc:
        if default is _REQUIRED:
            raise ModelFormatError(f"{where} has no field {key!r}")
        return default
    value, kinds = doc[key], kind if isinstance(kind, tuple) else (kind,)
    wrong = not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds)
    if wrong or not (check is None or check(value)):
        want = " or ".join(k.__name__ for k in kinds)
        raise ModelFormatError(f"{where}: field {key!r} = {value!r:.80} is not a valid {want}")
    return value


def save_pair(manifest_path, blob_path, doc: dict, tensor_maps: list[dict]) -> None:
    """Write the manifest ``doc``, then its blob. Each dict in ``tensor_maps``
    lies inside ``doc`` and maps names to arrays; every array is replaced by
    its ``{shape, offset}`` entry, offsets assigned in order, and laid into
    the blob as little-endian float32."""
    chunks: list[np.ndarray] = []
    offset = 0
    for tensors in tensor_maps:
        for name, arr in tensors.items():
            tensors[name] = {"shape": list(arr.shape), "offset": offset}
            chunks.append(np.asarray(arr, dtype="<f4").ravel())
            offset += arr.size
    write_json(manifest_path, doc)
    write_atomic(blob_path, np.concatenate(chunks).tobytes() if chunks else b"")


def load_pair(blob_path, tensor_maps: list[tuple[str, dict]]) -> list[dict[str, np.ndarray]]:
    """Read the blob of a manifest + blob pair. ``tensor_maps`` holds, per
    owner name, the manifest's ``{name: {shape, offset}}`` map; returns each
    map with its entries sliced out of the blob as float64 arrays. Sorted
    by offset the entries must tile the blob: each starts where the one
    before it ends, the first at 0, and the last ends at the blob's end."""
    try:
        blob = np.frombuffer(Path(blob_path).read_bytes(), dtype="<f4")
    except (OSError, ValueError) as e:
        raise ModelFormatError(f"cannot read blob {blob_path}: {e}") from None
    out, spans = [], []
    for owner, specs in tensor_maps:
        arrays = {}
        for name in specs:
            where = f"tensor {owner}.{name}"
            spec = field(specs, name, dict, f"tensors of {owner}")
            shape = field(spec, "shape", list, where, check=lambda s: all(type(d) is int and d >= 0 for d in s))
            off = field(spec, "offset", int, where, check=lambda o: o >= 0)
            size = math.prod(shape)
            if off + size > blob.size:
                raise ModelFormatError(
                    f"{where} (offset {off}, size {size}) exceeds blob of {blob.size} floats"
                )
            arrays[name] = blob[off : off + size].reshape(shape).astype(np.float64)
            spans.append((off, size, where))
        out.append(arrays)
    end = 0
    for off, size, where in sorted(spans):
        if off != end:
            raise ModelFormatError(f"{where} starts at float {off}, not {end}: tensors must tile the blob")
        end += size
    if end != blob.size:
        raise ModelFormatError(f"blob {blob_path} holds {blob.size} floats but the manifest declares {end}")
    return out


def save_model(model: GraphModel, manifest_path, blob_path=None) -> None:
    """Write the manifest + blob pair; a single argument is taken as a prefix."""
    if blob_path is None:
        manifest_path, blob_path = model_paths(manifest_path)
    entries = []
    for node in model.nodes.values():
        entry = {"id": node.id, "kind": node.kind, "inputs": node.inputs, "attrs": node.attrs}
        if node.weights:
            entry["tensors"] = dict(node.weights)
        entries.append(entry)
    manifest = {"format": MANIFEST_FORMAT, "name": model.name, "nodes": entries}
    save_pair(manifest_path, blob_path, manifest, [e["tensors"] for e in entries if "tensors" in e])


def load_model(manifest_path, blob_path=None) -> GraphModel:
    """Inverse of :func:`save_model`; a single argument is taken as a prefix."""
    if blob_path is None:
        manifest_path, blob_path = model_paths(manifest_path)
    manifest = read_json(manifest_path, MANIFEST_FORMAT, "model manifest")
    fields, specs = [], []
    for i, entry in enumerate(field(manifest, "nodes", list, str(manifest_path))):
        where = f"{manifest_path} node {i}"
        nid = field(entry, "id", str, where)
        inputs = field(entry, "inputs", list, where, [], lambda v: all(isinstance(s, str) for s in v))
        fields.append((nid, field(entry, "kind", str, where), inputs, field(entry, "attrs", dict, where, {})))
        specs.append((nid, field(entry, "tensors", dict, where, {})))
    weights = load_pair(blob_path, specs)
    try:
        nodes = [Node(*f, weights=w) for f, w in zip(fields, weights)]
        return GraphModel(nodes, name=field(manifest, "name", str, str(manifest_path), "model"))
    except GraphError as e:
        raise ModelFormatError(str(e)) from None
