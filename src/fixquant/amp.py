"""Automatic mixed precision.

Three phases over a calibrated simulation:

0. group the quantizers (a MAC layer travels with its following relu,
   everything feeding an add/concat shares a group, an avgpool shares its
   producer's group since it reuses that encoding),
1. per-group sensitivity: from the all-max assignment, set one group at
   a time to each non-max candidate, re-derive that group's encodings
   from the stored calibration statistics, evaluate, cache, and set the
   group back,
2. greedy pareto-front construction: repeatedly apply the move with the
   least estimated accuracy drop per unit of bit-ops saved, evaluating
   after each move, until the allowed accuracy drop is exceeded or no
   bit-ops-reducing move remains.

Both phases cache to JSON in the results directory (accuracy_list.json,
pareto_list.json), each stamped with a fingerprint of the model, its
weights, the encodings calibration gives it at the all-max assignment and
the candidate set, and written after every evaluation. A rerun evaluates
only what its caches lack: phase 1 skips the cached combinations, and
phase 2 walks its greedy loop with each cached move's score, the move that
stopped the search included, evaluating once they run out. So a run
interrupted anywhere resumes (``clean_start=False``) as long as the
phase-1 baseline was cached.
Both phases try every setting in place on the one sim they are given, and
``choose_mixed_precision`` runs them in one ``sim.resuming()`` scope, so an
evaluation reruns only the nodes that differ from the previous one's.
Evaluation callbacks take that sim, must not change it, and return a finite
score where larger is better; a non-finite one is a NumericError before any
cache holds it. Frozen quantizers keep their encodings and bitwidths; the
search moves everything else in the group.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import CacheError, EncodingError, ModelFormatError, NumericError
from .graph_ir import MAC_KINDS, field, read_json, value_keys, write_csv, write_json
from .quantizer import check_bitwidth
from .quantsim import QuantSimModel, compute_activation_encodings, compute_param_encodings

__all__ = [
    "CandidatePair",
    "check_candidates",
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
        for name in ("activation_bw", "param_bw"):
            object.__setattr__(self, name, check_bitwidth(getattr(self, name), "candidate bitwidth"))

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


def find_layer_groups(sim: QuantSimModel) -> list[QuantizerGroup]:
    """Partition the enabled quantizers into search groups.

    Deterministic: group ids join the sorted member node ids with "+" and
    the list is sorted by group id.
    """
    graph = sim.graph
    rep = {nid: nid for nid in graph.nodes}  # node -> its group's representative

    def union(a: str, b: str) -> None:
        ra, rb = rep[a], rep[b]
        for nid, r in rep.items():
            if r == rb:
                rep[nid] = ra

    for nid, node in graph.nodes.items():
        reader = graph.sole_reader(nid)
        if node.kind in MAC_KINDS and reader is not None and reader.kind in ("relu", "relu6"):
            union(nid, reader.id)
        if node.kind in ("add", "concat"):
            for a in node.inputs[1:]:
                union(node.inputs[0], a)
        if node.kind == "avgpool":
            # Reuses its input encoding, so it must move with its producer.
            union(node.inputs[0], nid)

    members: dict[str, list[str]] = {}
    for nid, r in rep.items():
        members.setdefault(r, []).append(nid)

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


def bit_ops(sim: QuantSimModel, assignment: dict, groups: Optional[list[QuantizerGroup]] = None) -> int:
    """Total cost Σ MACs x activation_bw x param_bw under an assignment, the
    search's one cost model: a move saves the difference of two totals.

    ``assignment`` maps group id to a CandidatePair (or (act, param) tuple).
    A MAC node's MACs per sample are its weight elements times its output
    H x W, the spatial size recorded by compute_encodings (1 for linear
    layers, or if never run). A MAC node outside every group counts at its
    current bitwidths, 32 where a quantizer is off.
    """
    groups = groups if groups is not None else find_layer_groups(sim)
    node_cand = {nid: CandidatePair.of(assignment[g.group_id]) for g in groups for nid in g.node_ids}
    total = 0
    for nid, node in sim.graph.nodes.items():
        if node.kind not in MAC_KINDS:
            continue
        if nid in node_cand:
            abw, pbw = node_cand[nid].activation_bw, node_cand[nid].param_bw
        else:
            pspec = sim.param_quantizers.get(f"{nid}.weight")
            aspec = sim.activation_quantizers.get(nid)
            pbw = pspec.bitwidth if pspec is not None and pspec.enabled else 32
            abw = aspec.bitwidth if aspec is not None and aspec.enabled else 32
        total += node.weights["weight"].size * sim.mac_spatial.get(nid, 1) * abw * pbw
    return total


# ---------------------------------------------------------------------------
# Fingerprint and cache plumbing


def fingerprint(sim: QuantSimModel, candidates: list[CandidatePair]) -> str:
    """sha256 of the graph's name, each node's id, input ids and value key,
    the candidates and the scheme. The keys are ``value_keys`` with the
    sim's quantizer states, so they cover every weight and encoding; taken
    at the all-max assignment, they tie a cache to the model and to what
    calibration gave it. The evaluation data is not in it."""
    graph = sim.graph
    keys = value_keys(graph, dict.fromkeys(graph.input_ids, b""), sim.qdq_states)
    payload = (
        graph.name,
        [(nid, graph.nodes[nid].inputs, key) for nid, key in keys.items()],
        [CandidatePair.of(c).as_list() for c in candidates],
        [sim.scheme.kind, bool(sim.scheme.per_channel)],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _open_cache(path: Path, expected_format: str, fp: str, baseline: Callable[[], float]) -> dict:
    """The cache at ``path``, or, if there is none, a new one holding
    ``baseline()`` and no entries, written. An unreadable file, a field of
    the wrong type or range, or another fingerprint is a CacheError. A
    missing ``entries`` list reads as empty."""
    if not path.exists():
        doc = {"format": expected_format, "fingerprint": fp, "baseline": baseline(), "entries": []}
        write_json(path, doc)
        return doc
    try:
        doc = read_json(path, expected_format, "cache")
        where = str(path)
        if field(doc, "fingerprint", str, where) != fp:
            raise CacheError(
                f"cache {path} was built for a different model, calibration or candidate set; rerun with a clean start"
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


def _score(evaluate: Callable[[QuantSimModel], float], sim: QuantSimModel, what: str) -> float:
    """``evaluate(sim)`` as a float. A non-finite score is a NumericError
    naming ``what`` was evaluated, raised before any cache can hold it."""
    score = float(evaluate(sim))
    if not math.isfinite(score):
        raise NumericError(f"evaluation of the {what} gave the non-finite score {score}")
    return score


def check_candidates(candidates: list) -> list[CandidatePair]:
    """The candidates as pairs. An empty list or a pair listed twice, which
    would be evaluated twice per group, is an EncodingError."""
    pairs = [CandidatePair.of(c) for c in candidates]
    if not pairs:
        raise EncodingError("candidate list is empty")
    for i, c in enumerate(pairs):
        if c in pairs[:i]:
            raise EncodingError(f"candidate {c.activation_bw},{c.param_bw} is listed twice")
    return pairs


def _prepare(candidates: list, cache_dir) -> tuple[list[CandidatePair], CandidatePair, Path]:
    """The candidates checked as pairs, the all-max one among them, and the
    cache directory, created."""
    candidates = check_candidates(candidates)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    return candidates, _max_candidate(candidates), cache_dir


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

    ``sim`` is set to the all-max assignment, the baseline, and the cache's
    fingerprint is taken there, so a stale cache leaves the sim at all-max.
    Each combination is tried on it in place: the group moves to the
    candidate, ``sim`` is evaluated, and the group moves back, also when the
    evaluation raises. Inside ``sim.resuming()`` an evaluation reruns only
    the nodes at or below the groups that differ from the previous
    evaluation's. Results append to accuracy_list.json after every
    evaluation and a rerun with an intact cache performs no evaluations at
    all. A sensitivity CSV for plotting is rewritten alongside. Returns
    (all-max baseline, entries).
    """
    candidates, max_cand, cache_dir = _prepare(candidates, cache_dir)
    for g in groups:
        _apply_candidate(sim, g, max_cand)
    fp = fingerprint(sim, candidates)
    path = cache_dir / "accuracy_list.json"
    doc = _open_cache(path, ACCURACY_LIST_FORMAT, fp, lambda: _score(eval_phase1, sim, "phase-1 baseline"))

    cached = {(e["group"], tuple(e["candidate"])) for e in doc["entries"]}
    for g, c in itertools.product(groups, candidates):
        if c == max_cand or (g.group_id, (c.activation_bw, c.param_bw)) in cached:
            continue
        _apply_candidate(sim, g, c)
        try:
            score = _score(eval_phase1, sim, f"group {g.group_id} at {c.as_list()}")
        finally:
            _apply_candidate(sim, g, max_cand)
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
) -> list[ParetoEntry]:
    """Greedy bit-ops descent from the all-max assignment.

    The sim must already hold the all-max assignment. Each iteration prices
    every (group, candidate) move by its saving, the current ``bit_ops``
    total less the total with the move made. Among the moves that save
    bit-ops it picks the one whose phase-1 accuracy drop below
    ``p1_baseline`` (the all-max phase-1 score) per unit of saving,
    relative to the all-max total, is smallest, applies it, and scores it.
    An entry is appended only while the constraint holds; the first
    violation reverts the move and stops, so the sim ends at the last
    assignment meeting the constraint. An evaluation that raises reverts
    its move too, so the sim stays at the last cached entry. Returns the
    full pareto list.

    pareto_list.json holds the accepted moves and, as ``rejected``, the
    move that stopped the search. A rerun walks the same loop: each move
    takes its score from the cached entries, then from the rejected move,
    and is evaluated once they run out. A cached move the loop would not
    make is a CacheError. A cached entry that violates the current allowed
    drop stops the search and leaves the file untouched, so a resume at the
    same allowed drop evaluates nothing.

    Inside ``sim.resuming()``, which choose_mixed_precision opens, each
    evaluation after a move reruns only the moved group and what lies
    below it; everything above keeps the values of the previous evaluation.
    """
    candidates, max_cand, cache_dir = _prepare(candidates, cache_dir)
    fp = fingerprint(sim, candidates)
    path = cache_dir / "pareto_list.json"
    doc = _open_cache(path, PARETO_LIST_FORMAT, fp, lambda: _score(eval_phase2, sim, "phase-2 baseline"))
    limit = doc["baseline"] - allowed_accuracy_drop
    cached = doc["entries"] + ([doc["rejected"]] if "rejected" in doc else [])

    phase1 = {(e.group_id, e.candidate): e.accuracy for e in acc_list}
    assignment: dict[str, CandidatePair] = {g.group_id: max_cand for g in groups}
    denom = bit_ops(sim, assignment, groups)

    for step in itertools.count():
        moves = []
        now = bit_ops(sim, assignment, groups)
        for g, c in itertools.product(groups, candidates):
            saved = now - bit_ops(sim, {**assignment, g.group_id: c}, groups)
            if saved <= 0:  # checked before dividing: a model without MACs has denom 0
                continue
            if (g.group_id, c) not in phase1:
                raise CacheError(f"phase-1 accuracy missing for group {g.group_id} candidate {c.as_list()}")
            drop = max(0.0, p1_baseline - phase1[g.group_id, c])
            moves.append((drop / (saved / denom), g.group_id, candidates.index(c), g, c))
        best = min(moves, key=lambda m: m[:3], default=None)
        made = best and [best[1], best[4].as_list()]
        if step < len(cached) and made != [cached[step]["group"], cached[step]["candidate"]]:
            raise CacheError(
                f"pareto cache {path} move {step} is not the move the search makes; rerun with a clean start"
            )
        if best is None:
            break
        _, gid, _, g, cand = best
        fresh, accuracy = step >= len(cached), None
        _apply_candidate(sim, g, cand)
        try:  # a move that raises or breaks the constraint goes back
            accuracy = _score(eval_phase2, sim, f"group {gid} at {cand.as_list()}") if fresh else cached[step]["accuracy"]
        finally:
            if accuracy is None or accuracy < limit:
                _apply_candidate(sim, g, assignment[gid])
        move = {"group": gid, "candidate": cand.as_list(), "accuracy": accuracy}
        if accuracy < limit:
            if fresh:
                doc["rejected"] = move
                write_json(path, doc)
            break
        assignment[gid] = cand
        if step == len(doc["entries"]):
            doc.pop("rejected", None)
            doc["entries"].append({**move, "relative_bit_ops": bit_ops(sim, assignment, groups) / denom})
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
    """Run grouping, sensitivity, and pareto search on ``sim`` in place,
    inside one ``sim.resuming()`` scope around both phases.

    With clean_start both caches in results_dir are wiped first. Otherwise
    they are validated against the model fingerprint and reused: resuming
    needs accuracy_list.json, and without it raises a CacheError before any
    evaluation or write; a missing pareto_list.json starts phase 2 afresh.
    """
    if not allowed_accuracy_drop >= 0:
        raise EncodingError(f"allowed accuracy drop must be a nonnegative number, got {allowed_accuracy_drop}")
    candidates, _, results_dir = _prepare(candidates, results_dir)
    caches = [results_dir / "accuracy_list.json", results_dir / "pareto_list.json"]
    if clean_start:
        for p in caches:
            p.unlink(missing_ok=True)
    elif not caches[0].exists():
        raise CacheError(f"no sensitivity cache {caches[0]} to resume from; rerun with a clean start")

    groups = find_layer_groups(sim)
    with sim.resuming():
        p1_baseline, acc_list = sensitivity_analysis(sim, groups, candidates, eval_phase1, results_dir)
        entries = build_pareto(
            sim, groups, candidates, acc_list, p1_baseline, eval_phase2, allowed_accuracy_drop, results_dir
        )
    return sim, entries
