"""Smoke tests of the tooling: every example script runs to completion from a
clean directory and prints the output ``tests/golden.json`` records, and
every function the benchmark tracer wraps still exists."""

import importlib.util
from pathlib import Path

import pytest

from test_golden import SCRIPTS, load_record, script_stdout, sha256

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_zero(script, tmp_path):
    assert sha256(script_stdout(script, tmp_path)) == load_record()["scripts"][script]


def test_amp_search_script_resumes_to_the_same_output_and_files(tmp_path):
    files = ("accuracy_list.json", "pareto_list.json", "sensitivity.csv", "pareto.csv")
    results = tmp_path / "amp_results"
    fresh = script_stdout("run_amp_search.py", tmp_path)
    blobs = [(results / f).read_bytes() for f in files]
    assert script_stdout("run_amp_search.py", tmp_path, "--resume") == fresh
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
