"""Mixed-precision search demo on a three-layer toy model.

Calibrates a simulation, runs the two-phase bitwidth search against an
in-range reconstruction metric, and prints the pareto moves plus the
final per-group assignment. The caches land in --results-dir, so a
second run with --resume replays phase 1 and 2 from disk without a
single model evaluation.

Run from the repo root:  python3 scripts/run_amp_search.py
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fixquant import toys
from fixquant.amp import bit_ops, choose_mixed_precision, find_layer_groups
from fixquant.quantsim import compute_encodings, create_quantsim

SIM_BW = 16  # the bitwidth of every quantizer before the search


def build_sim(width: int):
    model = toys.three_group_model(seed=0, width=width)
    sim = create_quantsim(model, default_param_bw=SIM_BW, default_output_bw=SIM_BW)
    compute_encodings(sim, toys.random_feed((32, width), n_batches=2, seed=1))
    return sim


def make_eval(sim, width: int):
    # score = closeness to the float forward pass, on in-range data so the
    # metric reflects rounding precision rather than clipping
    x = toys.random_feed((32, width), n_batches=2, seed=1)[0] * 0.8
    ref = sim.graph.forward(x)

    def ev(s):
        return -float(np.mean((s.forward(x) - ref) ** 2))

    return ev


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=8)
    ap.add_argument("--allowed-drop", type=float, default=1e-4)
    ap.add_argument("--results-dir", type=Path, default=Path("amp_results"))
    ap.add_argument("--resume", action="store_true", help="reuse caches in results-dir")
    args = ap.parse_args(argv)

    candidates = [(16, 16), (16, 8), (8, 16), (8, 8)]
    sim = build_sim(args.width)
    ev = make_eval(sim, args.width)

    sim, entries = choose_mixed_precision(
        sim,
        candidates,
        eval_phase1=ev,
        eval_phase2=ev,
        allowed_accuracy_drop=args.allowed_drop,
        results_dir=args.results_dir,
        clean_start=not args.resume,
    )

    groups = find_layer_groups(sim)
    print(f"{len(groups)} groups, candidates {candidates}, allowed drop {args.allowed_drop:g}")
    for e in entries:
        print(
            f"  {e.group_id:<12s} -> {e.candidate.activation_bw}x{e.candidate.param_bw}"
            f"   bit-ops {e.relative_bit_ops:.3f}   score {e.accuracy:.3e}"
        )
    if not entries:
        print("  no move fit inside the budget; everything stays at the max candidate")

    assignment = {}
    for g in groups:
        spec = sim.param_quantizers.get(g.param_keys[0]) if g.param_keys else None
        act = sim.activation_quantizers[g.activation_keys[0]] if g.activation_keys else None
        abw = act.bitwidth if act is not None else SIM_BW
        pbw = spec.bitwidth if spec is not None else SIM_BW
        assignment[g.group_id] = (abw, pbw)
        print(f"final {g.group_id:<12s} activations {abw:>2d} bit, params {pbw:>2d} bit")
    base = bit_ops(sim, {g.group_id: max(candidates) for g in groups}, groups)
    print(f"bit-ops {bit_ops(sim, assignment, groups) / base:.3f} of the all-max baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
