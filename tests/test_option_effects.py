"""Every CLI option changes what its command does.

The test walks ``build_parser()``: every subcommand, and every option of
it but --model, --data, --out and --help. Each option is run at two values
on an otherwise fixed command line (``BASE``), the first value being the
base's own (the option's default where the base leaves it out). The two
runs must differ in exit code, in stdout or in some file under --out. An
option that parses and is then read by nothing fails here, and so does an
option that no entry of ``VALUES`` covers.

The inputs are the golden ones of ``test_golden``: the folded conv model
with its 24-row image set. Only adaround reads other data: the image set
tiled to 288 rows, whose last 32 rows (a second calibration batch) are
scaled by 8, so that the batch each iteration draws, and so --seed and
--batches, move the rounding within 40 iterations.
"""

import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from test_golden import write_inputs

from fixquant.cli import build_parser, main
from fixquant.datasets import Dataset, load_dataset, save_dataset

NOT_WALKED = {"--model", "--data", "--out", "-h"}
CONV = "--model {d}/conv --data {d}/images"
# Each command's fixed arguments; an option given again after them wins.
BASE = {
    "quantsim": CONV,
    "calibrate": CONV,
    "eval": CONV + " --encodings {d}/min_max/encodings.json",
    "adaround": "--model {d}/conv --data {d}/images288 --param-bw 2 --seed 0 --iterations 40",
    "bias-correct": CONV,
    "qat": CONV + " --seed 0 --epochs 2 --batch-size 8",
    "amp": CONV + " --candidates 8,8;2,8",
    "export": "--model {d}/conv --encodings {d}/min_max/encodings.json",
    "debug": CONV,
}
SIM = {
    "--param-bw": ("", "--param-bw 4"),
    "--output-bw": ("", "--output-bw 4"),
    "--scheme": ("", "--scheme sqnr"),
    "--per-channel": ("", "--per-channel"),
    # the config takes relu outputs' quantizers away
    "--config": ("", "--config {d}/config.json"),
}
CALIBRATE = {k: SIM[k] for k in ("--scheme", "--per-channel", "--config")}
# command -> option -> the two argument strings put after the base in turn
VALUES = {
    "quantsim": SIM,
    "fold-bn": {},
    "equalize": {},
    "calibrate": SIM,
    "eval": {"--encodings": ("", "--encodings {d}/sqnr/encodings.json")},
    "adaround": {
        "--param-bw": ("", "--param-bw 3"),
        "--scheme": SIM["--scheme"],
        "--per-channel": SIM["--per-channel"],
        "--seed": ("", "--seed 1"),
        "--iterations": ("", "--iterations 80"),
        "--reg": ("--reg 0", "--reg 10000"),
        "--batches": ("", "--batches 1"),
    },
    "bias-correct": {**SIM, "--mode": ("", "--mode analytic")},
    "qat": {
        **SIM,
        "--seed": ("", "--seed 1"),
        "--epochs": ("", "--epochs 1"),
        "--lr": ("", "--lr 0.1"),
        "--batch-size": ("", "--batch-size 32"),
        "--refresh-ranges": ("", "--refresh-ranges"),
    },
    "amp": {
        **CALIBRATE,
        "--candidates": ("", "--candidates 8,8;4,8"),
        "--allowed-drop": ("", "--allowed-drop 1000"),
        # a resume needs the caches of an earlier run in --out
        "--resume": ("", "--resume"),
        "--phase1-samples": ("", "--phase1-samples 8"),
    },
    "export": {"--encodings": ("", "--encodings {d}/sqnr/encodings.json")},
    "visualize": {},
    "debug": {**CALIBRATE, "--target-bw": ("", "--target-bw 4")},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("options")
    write_inputs(d)
    images = load_dataset(d / "images")
    x = np.concatenate([images.x] * 12)
    x[256:] *= 8
    save_dataset(Dataset(x, np.concatenate([images.y] * 12), images.metric), d / "images288")
    (d / "config.json").write_text(json.dumps({"op_type": {"relu": {"is_output_quantized": False}}}))
    for scheme in ("min_max", "sqnr"):
        assert main(["calibrate", *CONV.format(d=d).split(), "--scheme", scheme, "--out", str(d / scheme)]) == 0
    return d


def test_every_option_changes_what_its_command_does(inputs):
    parsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {a.option_strings[0] for a in p._actions if a.option_strings} for name, p in parsers.items()}
    assert {name: fs - NOT_WALKED for name, fs in flags.items()} == {name: set(v) for name, v in VALUES.items()}

    outcomes = {}

    def outcome(command: str, extra: str):
        """(exit code, stdout, {file: bytes} under --out) of one run, made once."""
        if (command, extra) not in outcomes:
            out = inputs / "runs" / str(len(outcomes))
            argv = [command, *f"{BASE[command]} {extra}".format(d=inputs).split()]
            argv += ["--out", str(out)] if "--out" in flags[command] else []
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            outcomes[command, extra] = rc, stdout.getvalue().replace(str(out), "<out>"), files
        return outcomes[command, extra]

    no_effect = [
        f"{command} {a or '(base)'} / {b}"
        for command, options in VALUES.items()
        for a, b in options.values()
        if outcome(command, a) == outcome(command, b)
    ]
    assert not no_effect, f"options that change nothing: {no_effect}"
