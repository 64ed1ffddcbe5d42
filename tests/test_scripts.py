"""Smoke tests of the tooling: every example script runs to completion from a
clean directory, and every function the benchmark tracer wraps still exists."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, cwd, *args) -> str:
    """The stdout of ``script`` run in ``cwd``, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["run_ptq_spiral.py", "run_qat_spiral.py", "run_amp_search.py"])
def test_script_exits_zero(script, tmp_path):
    assert run_script(script, tmp_path).strip()


def test_amp_search_script_resumes_to_the_same_output_and_files(tmp_path):
    files = ("accuracy_list.json", "pareto_list.json", "sensitivity.csv", "pareto.csv")
    results = tmp_path / "amp_results"
    fresh = run_script("run_amp_search.py", tmp_path)
    blobs = [(results / f).read_bytes() for f in files]
    assert run_script("run_amp_search.py", tmp_path, "--resume") == fresh
    assert [(results / f).read_bytes() for f in files] == blobs


def test_benchmark_tracer_finds_and_restores_every_patch_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for layer in tracer.TRACED.values() for site in layer]
    before = [owner.__dict__[attr] for owner, attr in sites]
    with tracer.Tracer():  # raises unless each layer's bindings are one and the same function
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(sites, before))
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(sites, before))
