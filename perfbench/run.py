"""fixquant benchmark: time one workload and print every metric by name and unit.

    python3 perfbench/run.py --workload ptq_conv --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The load is a closed loop with one caller in one process: after set-up,
the workload's workflow repeats back to back until ``--seconds`` have
passed (at least ``MIN_REPS`` times), and each metric is the median over
the repetitions. Timings are reported at nominal machine speed (see
``reference.py``); raw wall-clock medians are printed alongside.
BLAS/OpenMP pools are pinned to one thread and ``FIXQUANT_THREADS`` is
cleared, so the library runs its default.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``
from runs with nothing installed. ``--trace 1`` runs the same number of
repetitions untraced and then traced, and reports the per-layer metrics
(calls, self time and boundary counters per repetition) plus the tracing
overhead; the spans go to ``perfbench/.work/spans-<workload>-seed<n>.jsonl``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Earlier lines record the environment, the workload's input sizes, and
every metric, including the workload-specific ones, as
``metric <name> <value> <unit>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
MIN_REPS = 3
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fixquant, fixquant.cli; "
    "print(time.perf_counter() - t)"
)

# End-to-end metrics every workload reports (BENCHMARK.json lists the same set).
END_TO_END = {
    "setup_s": "s",
    "workflow_s": "s",
    "calib_s": "s",
    "sim_infer_samples_per_s": "1/s",
    "output_sqnr_db": "dB",
    "peak_rss_mb": "MB",
}
AMP_COUNTS = {"amp.evals": "count", "amp.resume_evals": "count", "amp.bit_ops_reported_ratio": "ratio"}
TRACE_METRICS = {"trace.overhead_ratio": "ratio", "trace.wall_s": "s", "trace.unattributed_s": "s"}


def pin_environment() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("FIXQUANT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "FIXQUANT_THREADS": "unset (library default 1)",
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def import_seconds() -> float:
    """Time `import fixquant` takes in a fresh interpreter, as that interpreter measures it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_reps(workload, ctx, seconds: float, count: int | None = None, tracer=None, sample: bool = True) -> list:
    """Repeat the workflow for ``seconds`` (at least MIN_REPS times), or exactly ``count`` times.

    With ``sample`` the reference kernel is timed between stages, so timings
    can be read at nominal machine speed; without it every time is plain
    wall-clock time (traced runs, whose spans must cover the wall time).
    """
    import reference
    from workloads import Rep

    clock = reference.Timeline(sample)
    reps = []
    start = perf_counter()
    while len(reps) < count if count is not None else (
        perf_counter() - start < seconds or len(reps) < MIN_REPS
    ):
        rep = Rep(clock)
        tmp = Path(tempfile.mkdtemp(dir=WORK))
        if tracer is not None:
            tracer.start_run(len(reps))
        t = perf_counter()
        try:
            workload.run(ctx, rep, tmp)
        except Exception:
            traceback.print_exc()
            rep.failures.append("raised")
        rep.wall_s = perf_counter() - t
        shutil.rmtree(tmp)
        for failure in rep.failures:
            print(f"check failed in repetition {len(reps)}: {failure}", file=sys.stderr)
        reps.append(rep)
    clock.mark(force=True)
    return reps


def median_of(reps, name: str, nominal: bool = True) -> float:
    values = []
    for rep in reps:
        try:
            values.append(rep.value(name, nominal))
        except KeyError:
            continue  # the repetition raised before measuring it
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))])


def end_to_end(workload, reps) -> tuple[dict, dict, dict]:
    """(shared metrics, workload metrics, raw wall-clock medians of the timings)."""
    units = {**END_TO_END, **workload.detail}
    metrics = {name: median_of(reps, name) for name in END_TO_END if name not in ("setup_s", "peak_rss_mb")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {name: median_of(reps, name) for name in workload.detail}
    raw = {
        name: median_of(reps, name, nominal=False)
        for name, unit in units.items()
        if unit in ("s", "1/s") and name != "setup_s"
    }
    if "qat_step_ms_p50" in workload.detail:
        for out, nominal in ((detail, True), (raw, False)):
            steps = [r.clock.seconds(a, b, nominal) * 1e3 for r in reps for a, b in r.steps]
            out["qat_step_ms_p50"] = percentile(steps, 0.5) if steps else 0.0
            out["qat_step_ms_p90"] = percentile(steps, 0.9) if steps else 0.0
        detail["qat_step_count"] = len(steps)
    return metrics, detail, raw


def per_layer(workload, ctx, seconds: float) -> tuple[list, dict]:
    """Untraced then traced repetitions; per-layer metrics per traced repetition.

    Self times are raw wall-clock seconds, so together with the
    unattributed remainder they add up to the traced wall time.
    """
    from tracer import Tracer, layer_metric_units

    plain = run_reps(workload, ctx, seconds / 2, sample=False)
    with Tracer() as tracer:
        traced = run_reps(workload, ctx, 0.0, count=len(plain), tracer=tracer, sample=False)
    tracer.write(WORK / f"spans-{workload.name}-seed{ctx['seed']}.jsonl")

    n = len(traced)
    units = layer_metric_units()
    metrics = {
        name: total if units[name] == "ratio" else total / n
        for name, total in tracer.layer_totals().items()
    }
    for name in AMP_COUNTS:
        metrics[name] = median_of(traced, name)
    attributed = tracer.run_self_time()
    walls = [r.wall_s for r in traced]
    metrics["trace.wall_s"] = sum(walls) / n
    metrics["trace.unattributed_s"] = sum(w - attributed[i] for i, w in enumerate(walls)) / n
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(
        r.wall_s for r in plain
    )
    return plain + traced, metrics


def layer_units() -> dict:
    from tracer import layer_metric_units

    return {**layer_metric_units(), **AMP_COUNTS, **TRACE_METRICS}


def setup_seconds(workload, seed: int, size: dict) -> tuple[float, float, dict]:
    """(nominal set-up seconds, raw set-up seconds, context of the last build).

    Imports are timed in fresh interpreters, construction of model and data
    in this one, each SETUP_REPEATS times with the reference kernel timed
    around every attempt; set-up time is the median import plus the median
    construction.
    """
    import reference

    clock = reference.Timeline()
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        clock.mark(force=True)
        a = perf_counter()
        measured = import_seconds()
        b = perf_counter()
        imports.append((measured, a, b))
    for _ in range(SETUP_REPEATS):
        clock.mark(force=True)
        a = perf_counter()
        ctx = workload.setup(seed, size)
        builds.append((a, perf_counter()))
    clock.mark(force=True)
    nominal = statistics.median(m * clock.seconds(a, b) / (b - a) for m, a, b in imports)
    nominal += statistics.median(clock.seconds(a, b) for a, b in builds)
    raw = statistics.median(m for m, _, _ in imports) + statistics.median(b - a for a, b in builds)
    return nominal, raw, ctx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fixquant" / "__init__.py").is_file():
        print(f"error: no fixquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pin_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    print("env " + json.dumps(env, sort_keys=True))
    print("workload " + json.dumps(
        {"name": workload.name, "seed": args.seed, "size": args.size, "inputs": size, "why": workload.why},
        sort_keys=True,
    ))
    WORK.mkdir(parents=True, exist_ok=True)

    setup_s, raw_setup_s, ctx = setup_seconds(workload, args.seed, size)

    if args.trace:
        reps, metrics = per_layer(workload, ctx, args.seconds)
        units = layer_units()
    else:
        reps = run_reps(workload, ctx, args.seconds)
        metrics, detail, raw = end_to_end(workload, reps)
        metrics["setup_s"] = setup_s
        raw["setup_s"] = raw_setup_s
        units = dict(END_TO_END)
        for name, value in detail.items():
            print(f"metric {name} {value!r} {workload.detail[name]}")
        for name, value in raw.items():
            print(f"wall_clock {name} {value!r} {units.get(name) or workload.detail[name]}")
        factors = [f for _, _, f in reps[0].clock.segments]
        print(f"speed_factor_median {statistics.median(factors)!r} over {len(factors)} segments")
    failed = sum(1 for r in reps if r.failures)
    print(f"metric failed_ratio {failed / len(reps)!r} ratio")
    print(f"repetitions {len(reps)}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
