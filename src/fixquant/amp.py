"""Automatic mixed precision.

Three phases over a calibrated simulation:

0. group the quantizers (a MAC layer travels with its following relu,
   everything feeding an add/concat shares a group, an avgpool shares its
   producer's group since it reuses that encoding),
1. per-group sensitivity: set one group at a time to each non-max
   candidate, re-derive that group's encodings from the stored
   calibration statistics, evaluate, cache,
2. greedy pareto-front construction: repeatedly apply the move with the
   least estimated accuracy drop per unit of bit-ops saved, evaluating
   after each move, until the allowed accuracy drop is exceeded or no
   bit-ops-reducing move remains.

Both phases cache to JSON in the results directory (accuracy_list.json,
pareto_list.json), each stamped with a fingerprint of the model structure
and candidate set; a rerun replays the caches instead of re-evaluating.
The pareto cache also records the move that stopped the search and its
score, so a rerun does not evaluate that move again.
Evaluation callbacks take a simulation and return a score where larger is
better. Frozen quantizers keep their encodings and bitwidths; the search
moves everything else in the group.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import CacheError, EncodingError, ModelFormatError
from .graph_ir import MAC_KINDS, GraphModel, field, read_json, write_csv, write_json
from .quantsim import QuantSimModel, compute_activation_encodings, compute_param_encodings

__all__ = [
    "CandidatePair",
    "QuantizerGroup",
    "AccuracyEntry",
    "ParetoEntry",
    "find_layer_groups",
    "bit_ops",
    "sensitivity_analysis",
    "build_pareto",
    "choose_mixed_precision",
]

ACCURACY_LIST_FORMAT = "fixquant-accuracy-list-v1"
PARETO_LIST_FORMAT = "fixquant-pareto-list-v1"


@dataclass(frozen=True)
class CandidatePair:
    activation_bw: int
    param_bw: int

    def __post_init__(self):
        for bw in (self.activation_bw, self.param_bw):
            if type(bw) is not int or not 2 <= bw <= 32:
                raise EncodingError(f"candidate bitwidth {bw!r} is not an integer in [2, 32]")

    @staticmethod
    def of(value) -> "CandidatePair":
        if isinstance(value, CandidatePair):
            return value
        a, p = value
        return CandidatePair(a, p)

    def as_list(self) -> list:
        return [self.activation_bw, self.param_bw]


@dataclass(frozen=True)
class QuantizerGroup:
    group_id: str
    node_ids: tuple
    param_keys: tuple
    activation_keys: tuple


@dataclass(frozen=True)
class AccuracyEntry:
    group_id: str
    candidate: CandidatePair
    accuracy: float


@dataclass(frozen=True)
class ParetoEntry:
    group_id: str
    candidate: CandidatePair
    relative_bit_ops: float
    accuracy: float


# ---------------------------------------------------------------------------
# Phase 0: grouping


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, a: str) -> str:
        self.parent.setdefault(a, a)
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def find_layer_groups(sim: QuantSimModel) -> list[QuantizerGroup]:
    """Partition the enabled quantizers into search groups.

    Deterministic: group ids join the sorted member node ids with "+" and
    the list is sorted by group id.
    """
    graph = sim.graph
    consumers = graph.consumers()
    uf = _UnionFind()
    for nid in graph.topo_order():
        uf.find(nid)
        node = graph.nodes[nid]
        if node.kind in MAC_KINDS:
            cons = consumers[nid]
            if len(cons) == 1 and graph.nodes[cons[0]].kind in ("relu", "relu6"):
                uf.union(nid, cons[0])
        if node.kind in ("add", "concat"):
            for a in node.inputs[1:]:
                uf.union(node.inputs[0], a)
        if node.kind == "avgpool":
            # Reuses its input encoding, so it must move with its producer.
            uf.union(node.inputs[0], nid)

    members: dict[str, list[str]] = {}
    for nid in graph.topo_order():
        members.setdefault(uf.find(nid), []).append(nid)

    groups = []
    for node_ids in members.values():
        node_ids = sorted(node_ids)
        param_keys = sorted(
            key
            for key, spec in sim.param_quantizers.items()
            if spec.enabled and key.rsplit(".", 1)[0] in node_ids
        )
        activation_keys = sorted(
            nid for nid in node_ids if nid in sim.activation_quantizers and sim.activation_quantizers[nid].enabled
        )
        if not param_keys and not activation_keys:
            continue
        groups.append(
            QuantizerGroup(
                group_id="+".join(node_ids),
                node_ids=tuple(node_ids),
                param_keys=tuple(param_keys),
                activation_keys=tuple(activation_keys),
            )
        )
    return sorted(groups, key=lambda g: g.group_id)


def _apply_candidate(sim: QuantSimModel, group: QuantizerGroup, cand: CandidatePair) -> None:
    """Move one group to a candidate, re-deriving encodings from stored stats."""
    for key in group.param_keys:
        spec = sim.param_quantizers[key]
        if not spec.frozen and spec.enabled:
            spec.bitwidth = cand.param_bw
    compute_param_encodings(sim, keys=group.param_keys)
    for nid in group.activation_keys:
        spec = sim.activation_quantizers[nid]
        if not spec.frozen and spec.enabled:
            spec.bitwidth = cand.activation_bw
    compute_activation_encodings(sim, keys=group.activation_keys)


def _max_candidate(candidates: list[CandidatePair]) -> CandidatePair:
    """Highest-cost candidate: largest act*param product, ties to larger act."""
    return max(candidates, key=lambda c: (c.activation_bw * c.param_bw, c.activation_bw))


# ---------------------------------------------------------------------------
# Bit ops


def _mac_count(sim: QuantSimModel, node) -> int:
    """MACs per sample: weight elements times output H x W, the spatial size
    recorded by compute_encodings (1 for linear layers, or if never run)."""
    return int(np.prod(node.weights["weight"].shape)) * sim.mac_spatial.get(node.id, 1)


def _bit_ops_terms(sim: QuantSimModel, groups: list[QuantizerGroup]):
    """(per-group MAC totals, constant term for MAC nodes outside any group)."""
    node_group = {nid: g.group_id for g in groups for nid in g.node_ids}
    group_macs = {g.group_id: 0 for g in groups}
    constant = 0
    for nid in sim.graph.topo_order():
        node = sim.graph.nodes[nid]
        if node.kind not in MAC_KINDS:
            continue
        macs = _mac_count(sim, node)
        gid = node_group.get(nid)
        if gid is not None:
            group_macs[gid] += macs
        else:
            pspec = sim.param_quantizers.get(f"{nid}.weight")
            aspec = sim.activation_quantizers.get(nid)
            pbw = pspec.bitwidth if pspec is not None and pspec.enabled else 32
            abw = aspec.bitwidth if aspec is not None and aspec.enabled else 32
            constant += macs * abw * pbw
    return group_macs, constant


def bit_ops(sim: QuantSimModel, assignment: dict, groups: Optional[list[QuantizerGroup]] = None) -> int:
    """Total cost Σ MACs x activation_bw x param_bw under an assignment.

    ``assignment`` maps group id to a CandidatePair (or (act, param) tuple).
    MAC layers outside every group count at their current bitwidths.
    """
    groups = groups if groups is not None else find_layer_groups(sim)
    group_macs, constant = _bit_ops_terms(sim, groups)
    total = constant
    for g in groups:
        cand = CandidatePair.of(assignment[g.group_id])
        total += group_macs[g.group_id] * cand.activation_bw * cand.param_bw
    return total


# ---------------------------------------------------------------------------
# Fingerprint and cache plumbing


def _graph_manifest(graph: GraphModel) -> dict:
    return {
        "name": graph.name,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "inputs": list(n.inputs),
                "attrs": {k: v for k, v in sorted(n.attrs.items()) if k != "folded_bn"},
                "weights": {k: list(v.shape) for k, v in sorted(n.weights.items())},
            }
            for nid in graph.topo_order()
            for n in [graph.nodes[nid]]
        ],
    }


def fingerprint(sim: QuantSimModel, candidates: list[CandidatePair]) -> str:
    payload = {
        "graph": _graph_manifest(sim.graph),
        "candidates": [CandidatePair.of(c).as_list() for c in candidates],
        "default_param_bw": sim.default_param_bw,
        "default_output_bw": sim.default_output_bw,
        "scheme": [sim.scheme.kind, bool(sim.scheme.per_channel), sim.scheme.channel_axis],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _load_cache(path: Path, expected_format: str, fp: str) -> Optional[dict]:
    """The cache at ``path``, or None if there is none. An unreadable file,
    a field of the wrong type or range, or another fingerprint is a
    CacheError. A missing ``entries`` list reads as empty."""
    if not path.exists():
        return None
    try:
        doc = read_json(path, expected_format, "cache")
        where = str(path)
        if field(doc, "fingerprint", str, where) != fp:
            raise CacheError(
                f"cache {path} was built for a different model or candidate set; rerun with a clean start"
            )
        field(doc, "baseline", (int, float), where, check=math.isfinite)
        doc["entries"] = field(doc, "entries", list, where, [])
        scores = ("relative_bit_ops", "accuracy") if expected_format == PARETO_LIST_FORMAT else ("accuracy",)
        moves = [(f"{where} entry {i}", e, scores) for i, e in enumerate(doc["entries"])]
        if "rejected" in doc:
            moves.append((f"{where} rejected move", doc["rejected"], ("accuracy",)))
        for at, move, names in moves:
            field(move, "group", str, at)
            CandidatePair.of(field(move, "candidate", list, at))
            for name in names:
                field(move, name, (int, float), at, check=math.isfinite)
    except ModelFormatError as exc:
        raise CacheError(str(exc)) from None
    except (EncodingError, ValueError, TypeError) as exc:  # from CandidatePair.of
        raise CacheError(f"{at}: field 'candidate': {exc}") from None
    return doc


# ---------------------------------------------------------------------------
# Phase 1: sensitivity


def sensitivity_analysis(
    sim: QuantSimModel,
    groups: list[QuantizerGroup],
    candidates: list,
    eval_phase1: Callable[[QuantSimModel], float],
    cache_dir,
) -> tuple[float, list[AccuracyEntry]]:
    """Evaluate every (group, non-max candidate) combination.

    The all-max sim is built once; each evaluation, the baseline included,
    runs on its own clone of it, so evaluations are independent. Results
    append to accuracy_list.json after every evaluation and a rerun with an
    intact cache performs no evaluations at all. A sensitivity CSV for
    plotting is rewritten alongside. Returns (all-max baseline, entries).
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    candidates = [CandidatePair.of(c) for c in candidates]
    if not candidates:
        raise EncodingError("candidate list is empty")
    max_cand = _max_candidate(candidates)
    fp = fingerprint(sim, candidates)
    path = cache_dir / "accuracy_list.json"

    at_max = sim.clone()
    for g in groups:
        _apply_candidate(at_max, g, max_cand)

    doc = _load_cache(path, ACCURACY_LIST_FORMAT, fp)
    if doc is None:
        baseline = float(eval_phase1(at_max.clone()))
        doc = {"format": ACCURACY_LIST_FORMAT, "fingerprint": fp, "baseline": baseline, "entries": []}
        write_json(path, doc)

    cached = {(e["group"], tuple(e["candidate"])) for e in doc["entries"]}
    for g, c in itertools.product(groups, candidates):
        if c == max_cand or (g.group_id, (c.activation_bw, c.param_bw)) in cached:
            continue
        clone = at_max.clone()
        _apply_candidate(clone, g, c)
        score = float(eval_phase1(clone))
        doc["entries"].append({"group": g.group_id, "candidate": c.as_list(), "accuracy": score})
        write_json(path, doc)

    rows = [[e["group"], f"{e['candidate'][0]}x{e['candidate'][1]}", e["accuracy"]] for e in doc["entries"]]
    write_csv(cache_dir / "sensitivity.csv", ["group", "candidate", "metric"], rows)

    return float(doc["baseline"]), [
        AccuracyEntry(e["group"], CandidatePair.of(e["candidate"]), e["accuracy"])
        for e in doc["entries"]
    ]


# ---------------------------------------------------------------------------
# Phase 2: pareto front


def build_pareto(
    sim: QuantSimModel,
    groups: list[QuantizerGroup],
    candidates: list,
    acc_list: list[AccuracyEntry],
    p1_baseline: float,
    eval_phase2: Callable[[QuantSimModel], float],
    allowed_accuracy_drop: float,
    cache_dir,
    clean_start: bool = True,
) -> list[ParetoEntry]:
    """Greedy bit-ops descent from the all-max assignment.

    The sim must already hold the all-max assignment. Each iteration picks,
    among candidates that strictly reduce a group's bit-ops, the one whose
    phase-1 accuracy drop below ``p1_baseline`` (the all-max phase-1 score)
    per unit of relative bit-ops saved is smallest, applies it, and
    re-evaluates. An entry is appended only while the constraint holds; the
    first violation reverts the move and stops, so the sim ends at the last
    assignment meeting the constraint.

    The move that violated the constraint is recorded in the cache as
    ``rejected`` (group, candidate, accuracy). With clean_start false the
    cached list is replayed without evaluation (stopping early if a cached
    entry violates the current allowed drop, in which case the file is left
    untouched) and the search continues past the cache; its first move, if
    it is the recorded one, takes the recorded accuracy instead of an
    evaluation, so a resume at the same allowed drop evaluates nothing.
    Returns the full pareto list.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    candidates = [CandidatePair.of(c) for c in candidates]
    max_cand = _max_candidate(candidates)
    fp = fingerprint(sim, candidates)
    path = cache_dir / "pareto_list.json"
    doc = _load_cache(path, PARETO_LIST_FORMAT, fp)
    if doc is None and not clean_start:
        raise CacheError(f"pareto cache {path} is missing and clean_start is false")

    phase1 = {(e.group_id, e.candidate): e.accuracy for e in acc_list}
    group_macs, _ = _bit_ops_terms(sim, groups)
    assignment: dict[str, CandidatePair] = {g.group_id: max_cand for g in groups}
    denom = bit_ops(sim, assignment, groups)
    by_id = {g.group_id: g for g in groups}

    if doc is None:
        doc = {
            "format": PARETO_LIST_FORMAT,
            "fingerprint": fp,
            "baseline": float(eval_phase2(sim)),
            "entries": [],
        }
        write_json(path, doc)
    baseline = doc["baseline"]

    # Replay the cache without re-evaluating.
    stopped = False
    for e in doc["entries"]:
        if e["accuracy"] < baseline - allowed_accuracy_drop:
            stopped = True
            break
        gid = e["group"]
        if gid not in by_id:
            raise CacheError(f"pareto cache {path} names unknown group {gid!r}")
        cand = CandidatePair.of(e["candidate"])
        _apply_candidate(sim, by_id[gid], cand)
        assignment[gid] = cand

    # The move that stopped the cached search, with its score: when the
    # replay reaches it again, its score is reused instead of re-evaluated.
    rejected = None if stopped else doc.get("rejected")

    while not stopped:
        moves = []
        for g in groups:
            cur = assignment[g.group_id]
            cur_cost = group_macs[g.group_id] * cur.activation_bw * cur.param_bw
            for c in candidates:
                cost = group_macs[g.group_id] * c.activation_bw * c.param_bw
                if cost >= cur_cost:
                    continue
                saved = (cur_cost - cost) / denom
                key = (g.group_id, c)
                if key not in phase1:
                    raise CacheError(
                        f"phase-1 accuracy missing for group {g.group_id} candidate {c.as_list()}"
                    )
                drop = max(0.0, p1_baseline - phase1[key])
                moves.append((drop / saved, g.group_id, candidates.index(c), g, c))
        if not moves:
            break
        moves.sort(key=lambda m: (m[0], m[1], m[2]))
        _, gid, _, g, cand = moves[0]
        prev = assignment[gid]
        _apply_candidate(sim, g, cand)
        assignment[gid] = cand
        if rejected is not None and [rejected["group"], rejected["candidate"]] == [gid, cand.as_list()]:
            accuracy = rejected["accuracy"]
        else:
            accuracy = float(eval_phase2(sim))
        rejected = None
        if accuracy < baseline - allowed_accuracy_drop:
            _apply_candidate(sim, g, prev)
            assignment[gid] = prev
            move = {"group": gid, "candidate": cand.as_list(), "accuracy": accuracy}
            if doc.get("rejected") != move:
                doc["rejected"] = move
                write_json(path, doc)
            break
        doc.pop("rejected", None)
        rel = bit_ops(sim, assignment, groups) / denom
        doc["entries"].append(
            {
                "group": gid,
                "candidate": cand.as_list(),
                "relative_bit_ops": rel,
                "accuracy": accuracy,
            }
        )
        write_json(path, doc)

    rows = [
        [i, e["group"], f"{e['candidate'][0]}x{e['candidate'][1]}", e["relative_bit_ops"], e["accuracy"]]
        for i, e in enumerate(doc["entries"])
    ]
    write_csv(cache_dir / "pareto.csv", ["index", "group", "candidate", "relative_bit_ops", "accuracy"], rows)

    return [
        ParetoEntry(e["group"], CandidatePair.of(e["candidate"]), e["relative_bit_ops"], e["accuracy"])
        for e in doc["entries"]
    ]


# ---------------------------------------------------------------------------
# Driver


def choose_mixed_precision(
    sim: QuantSimModel,
    candidates: list,
    eval_phase1: Callable[[QuantSimModel], float],
    eval_phase2: Callable[[QuantSimModel], float],
    allowed_accuracy_drop: float,
    results_dir,
    clean_start: bool = True,
) -> tuple[QuantSimModel, list[ParetoEntry]]:
    """Run grouping, sensitivity, and pareto search; mutates sim in place.

    With clean_start both caches in results_dir are wiped first; otherwise
    they are validated against the model fingerprint and reused.
    """
    candidates = [CandidatePair.of(c) for c in candidates]
    if not candidates:
        raise EncodingError("candidate list is empty")
    if allowed_accuracy_drop < 0:
        raise EncodingError("allowed accuracy drop must be nonnegative")
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    if clean_start:
        for name in ("accuracy_list.json", "pareto_list.json"):
            p = results_dir / name
            if p.exists():
                p.unlink()

    groups = find_layer_groups(sim)
    max_cand = _max_candidate(candidates)
    for g in groups:
        _apply_candidate(sim, g, max_cand)
    p1_baseline, acc_list = sensitivity_analysis(sim, groups, candidates, eval_phase1, results_dir)
    entries = build_pareto(
        sim,
        groups,
        candidates,
        acc_list,
        p1_baseline,
        eval_phase2,
        allowed_accuracy_drop,
        results_dir,
        clean_start=clean_start,
    )
    return sim, entries
