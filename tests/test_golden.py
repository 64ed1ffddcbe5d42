"""Digests of every seeded artifact, compared against ``tests/golden.json``.

Each run in ``RUNS`` goes through ``cli.main`` in-process, on toy models and
datasets that ``write_inputs`` saves from ``toys``. The record holds, per
run, the sha256 of its stdout (its ``--out`` path replaced by ``<out>``)
and of every file it leaves in ``--out``; and the sha256 of the stdout of
each example script, which ``tests/test_scripts.py`` checks in the runs it
makes anyway. So a change that moves any artifact's bytes fails here, and
the record shows which one moved.

The record holds the numpy version and the platform it was written on; on
any other, the comparison fails and names the difference.

Regenerate the record (list each changed digest and its reason in
CHANGES.md):  python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from fixquant import toys  # noqa: E402
from fixquant.cli import main  # noqa: E402
from fixquant.datasets import Dataset, save_dataset  # noqa: E402
from fixquant.graph_ir import save_model  # noqa: E402
from fixquant.ptq import fold_batch_norms  # noqa: E402

RECORD = Path(__file__).with_name("golden.json")
SCRIPTS = ("run_ptq_spiral.py", "run_qat_spiral.py", "run_amp_search.py")

# name -> argv; {d} is the directory of the inputs, and a run's --out is
# {d}/<name>, except where another run's output is its input.
RUNS = {
    "quantsim": "quantsim --model {d}/mlp --data {d}/spiral300 --out {d}/quantsim",
    # --per-channel gives conv1.weight and conv2.weight one grid per output channel
    "quantsim-sqnr-per-channel": "quantsim --model {d}/conv --data {d}/images --scheme sqnr --per-channel"
    " --param-bw 4 --out {d}/quantsim-sqnr-per-channel",
    "fold-bn": "fold-bn --model {d}/convbn --out {d}/fold-bn",
    "equalize": "equalize --model {d}/convbn --out {d}/equalize",
    "calibrate": "calibrate --model {d}/mlp --data {d}/spiral300 --out {d}/calibrate",
    "eval": "eval --model {d}/mlp --data {d}/spiral300 --encodings {d}/calibrate/encodings.json",
    "export": "export --model {d}/mlp --encodings {d}/calibrate/encodings.json --out {d}/export",
    "adaround": "adaround --model {d}/conv --data {d}/images --param-bw 4 --seed 0 --iterations 20"
    " --out {d}/adaround",
    "bias-correct-empirical": "bias-correct --model {d}/conv --data {d}/images --param-bw 4"
    " --out {d}/bias-correct-empirical",
    "bias-correct-analytic": "bias-correct --model {d}/conv --data {d}/images --param-bw 4 --mode analytic"
    " --out {d}/bias-correct-analytic",
    "qat": "qat --model {d}/mlp --data {d}/spiral100 --seed 0 --epochs 2 --out {d}/qat",
    "amp": "amp --model {d}/mlp --data {d}/spiral300 --out {d}/amp",
    "amp-resume": "amp --model {d}/mlp --data {d}/spiral300 --resume --out {d}/amp",
    # AMP's file holds 16-bit activations and 8-bit weights; it alone sets the imported sim
    "eval-amp": "eval --model {d}/amp/amp --data {d}/spiral300 --encodings {d}/amp/amp.encodings.json",
    "export-amp": "export --model {d}/amp/amp --encodings {d}/amp/amp.encodings.json --out {d}/export-amp",
    "visualize": "visualize --model {d}/conv --out {d}/visualize",
    "debug-100": "debug --model {d}/mlp --data {d}/spiral100 --out {d}/debug-100",
    "debug-300": "debug --model {d}/mlp --data {d}/spiral300 --out {d}/debug-300",
}


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def load_record() -> dict:
    """The record, which must have been written under this environment."""
    record = json.loads(RECORD.read_text())
    moved = [f"{k} is {v} here but {record.get(k)} in the record" for k, v in environment().items() if record.get(k) != v]
    assert not moved, f"{RECORD.name} was written elsewhere: {'; '.join(moved)}"
    return record


def write_inputs(d: Path) -> None:
    """The toy models and datasets every run reads: fold-bn and equalize
    get a conv model with its batch norm, and the image set feeds its folded
    copy, whose ``folded_bn`` statistics analytic bias correction reads."""
    save_model(toys.mlp([2, 16, 16, 2], seed=0), d / "mlp")
    save_model(toys.conv_bn_relu_conv(seed=0), d / "convbn")
    save_model(fold_batch_norms(toys.conv_bn_relu_conv(seed=0)), d / "conv")
    save_dataset(toys.spiral_dataset(n_per_class=50, seed=0), d / "spiral100")
    save_dataset(toys.spiral_dataset(n_per_class=150, seed=0), d / "spiral300")
    rng = np.random.default_rng(5)
    save_dataset(Dataset(rng.normal(size=(24, 3, 8, 8)), rng.normal(size=(24, 4, 8, 8)), "mse"), d / "images")


def run_digests(d: Path) -> dict:
    """Every run of ``RUNS`` in order, in ``d``: name -> {stdout, files}."""
    write_inputs(d)
    digests = {}
    for name, argv in RUNS.items():
        argv = argv.format(d=d).split()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        assert rc == 0, f"{name}: {stderr.getvalue()}"
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out else []
        digests[name] = {
            "stdout": sha256(stdout.getvalue().replace(str(out), "<out>")),
            "files": {p.relative_to(out).as_posix(): sha256(p.read_bytes()) for p in files},
        }
    return digests


def script_stdout(script, cwd, *args) -> str:
    """The stdout of ``scripts/<script>`` run in ``cwd``, which must exit 0."""
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


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_digests(tmp_path_factory.mktemp("golden"))


def test_record_lists_every_run_and_script():
    record = load_record()
    assert list(record["runs"]) == list(RUNS)
    assert list(record["scripts"]) == list(SCRIPTS)


@pytest.mark.parametrize("name", RUNS)
def test_run_writes_its_recorded_bytes(digests, name):
    got, want = digests[name], load_record()["runs"][name]
    moved = [k for k in ("stdout",) if got[k] != want[k]]
    moved += sorted(f for f in got["files"].keys() | want["files"].keys() if got["files"].get(f) != want["files"].get(f))
    assert not moved, f"{name} moved: {', '.join(moved)}"


def write_record() -> None:
    with tempfile.TemporaryDirectory() as d:
        runs = run_digests(Path(d))
    scripts = {}
    for script in SCRIPTS:
        with tempfile.TemporaryDirectory() as d:
            scripts[script] = sha256(script_stdout(script, d))
    record = {**environment(), "runs": runs, "scripts": scripts}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write_record()
