"""Self-test of the benchmark: every workload at its smallest size, both modes.

    python3 -m pytest -q perfbench        # or: python3 perfbench/test_perfbench.py

Checks that each run ends with the one-line JSON result, that every
metric is reported by name with a unit, that no output check fails, that
traced self times plus the unattributed remainder add up to the traced
wall time, and that the benchmark refuses to run without the library's
sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Workflow metrics each workload prints besides the BENCHMARK.json set.
WORKFLOW_METRICS = {
    "ptq_conv": ["adaround_iters_per_s", "bias_correct_s", "ptq_s"],
    "qat_conv": ["qat_samples_per_s", "qat_step_ms_p50", "qat_step_ms_p90", "qat_step_count", "qat_final_loss"],
    "amp_search": ["amp_evals_per_s", "relative_bit_ops"],
    "cli_roundtrip": ["cli_roundtrip_s"],
}
ALL_WORKLOADS = ["setup_s", "calib_s", "sim_infer_samples_per_s", "peak_rss_mb", "output_sqnr_db", "failed_ratio"]

LAYER_METRICS = [
    "tensor_core.conv2d.calls", "tensor_core.conv2d.self_s", "tensor_core.conv2d.gmac",
    "tensor_core.linear.self_s", "tensor_core.batchnorm.self_s", "tensor_core.elementwise.self_s",
    "graph_ir.GraphModel.evaluate_all.calls", "graph_ir.GraphModel.evaluate_all.self_s",
    "graph_ir.eval_kind.calls", "graph_ir.eval_kind.self_s",
    "graph_ir.save_model.self_s", "graph_ir.load_model.self_s",
    "quantizer.qdq.calls", "quantizer.qdq.self_s", "quantizer.qdq.elements", "quantizer.ste_mask.self_s",
    "quantizer.qdq_tensor.calls",
    "range_setting.RangeAccumulator.observe.calls", "range_setting.RangeAccumulator.observe.self_s",
    "range_setting.RangeAccumulator.observe.range_grows",
    "range_setting.compute_sqnr.calls", "range_setting.compute_sqnr.self_s", "range_setting.compute_minmax.self_s",
    "quantsim.QuantSimModel.evaluate_all.calls", "quantsim.QuantSimModel.evaluate_all.self_s",
    "quantsim.QuantSimModel.quantized_weights.calls", "quantsim.QuantSimModel.quantized_weights.self_s",
    "quantsim.QuantSimModel.quantized_weights.repeat_ratio",
    "quantsim.QuantSimModel.clone.calls", "quantsim.QuantSimModel.clone.self_s",
    "quantsim.compute_encodings.self_s", "quantsim.export.self_s", "quantsim.import_encodings.self_s",
    "ptq.equalize_model.self_s", "ptq.adaround.self_s", "ptq.bias_correct.self_s", "ptq.bias_correct.sim_passes",
    "qat.forward_with_tape.calls", "qat.forward_with_tape.self_s", "qat.backward.calls", "qat.backward.self_s",
    "qat.conv2d_backward.calls", "qat.conv2d_backward.self_s",
    "amp.sensitivity_analysis.self_s", "amp.build_pareto.self_s",
    "amp.evals", "amp.resume_evals", "amp.bit_ops_reported_ratio",
    "datasets.save_dataset.self_s", "datasets.load_dataset.self_s", "datasets.evaluate.self_s",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_ratio",
]


def run(workload: str, trace: int, cwd: Path = ROOT, runner: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> tuple[dict, dict]:
    """(last-line result, every `metric name value unit` line as name -> (value, unit))."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as runner

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} >= set(LAYER_METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    res, printed = result(run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert printed["failed_ratio"] == (0.0, "ratio")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]) and m["value"] != 0, name
    for name in ALL_WORKLOADS + WORKFLOW_METRICS[workload]:
        assert name in printed and printed[name][1], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    res, _ = result(run(workload, 1))
    assert res["correct"] and res["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    m = {k: v["value"] for k, v in res["metrics"].items()}
    attributed = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.unattributed_s"]
    assert attributed == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.unattributed_s"] >= 0 and m["trace.overhead_ratio"] > 0


def test_refuses_to_run_without_the_library():
    work = ROOT / "perfbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare, runner=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
