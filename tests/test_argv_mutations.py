"""One-option mutations of every numeric CLI option.

Each numeric option of the commands below is set, one at a time, to each
of a few edge values on an otherwise valid small run. The command must
then return 0, or print exactly one ``error:`` line on stderr; a Python
traceback (an exception out of ``cli.main``) or a numpy warning fails the
gate, as in ``test_file_mutations``.
"""

import numpy as np
import pytest
from test_file_mutations import _run

from fixquant import toys
from fixquant.cli import build_parser
from fixquant.datasets import Dataset, save_dataset
from fixquant.graph_ir import GraphModel, Node, save_model

VALUES = ["0", "-1", "1", "nan", "inf", "33"]
# Each command's own options beyond --model/--data/--out, chosen to keep a run small.
BASE = {
    "eval": [],
    "quantsim": [],
    "calibrate": [],
    "adaround": ["--seed", "0", "--iterations", "2"],
    "bias-correct": [],
    "qat": ["--seed", "0", "--epochs", "1", "--batch-size", "8"],
    "amp": [],
    "debug": [],
}


def numeric_options(command: str) -> list[str]:
    """The options of ``command`` whose values parse as numbers."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return [
        a.option_strings[0]
        for a in sub._actions
        if a.option_strings and getattr(a.type, "__name__", None) in ("int", "float")
    ]


COMMANDS = ["quantsim", "calibrate", "adaround", "bias-correct", "qat", "amp", "debug"]
CASES = [(c, opt, v) for c in COMMANDS for opt in numeric_options(c) for v in VALUES]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    save_model(toys.mlp([2, 8, 2], seed=0), root / "net")
    save_dataset(toys.spiral_dataset(n_per_class=8, seed=0), root / "data")
    return root


def test_every_command_has_numeric_options():
    assert all(numeric_options(c) for c in COMMANDS)
    assert {"--phase1-samples", "--allowed-drop"} <= set(numeric_options("amp"))


@pytest.mark.parametrize("command, option, value", CASES, ids=[" ".join(c) for c in CASES])
def test_one_option_mutation_ends_in_one_error_line(inputs, command, option, value):
    args = {**dict(zip(BASE[command][::2], BASE[command][1::2])), option: value}
    out = inputs / f"{command}{option}{value}"
    argv = [command, "--model", str(inputs / "net"), "--data", str(inputs / "data"), "--out", str(out)]
    rc, lines = _run(argv + [s for kv in args.items() for s in kv])
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


TRAINING_CASES = (
    [("qat", "--lr", v) for v in ("-1", "0", "nan", "inf")]
    + [(c, opt, v) for c, opt in (("qat", "--epochs"), ("adaround", "--iterations")) for v in ("0", "-1")]
    + [("adaround", "--reg", v) for v in ("-1", "nan", "inf")]
    + [("amp", "--allowed-drop", v) for v in ("-1", "nan")]
)


@pytest.mark.parametrize("command, option, value", TRAINING_CASES, ids=[" ".join(c) for c in TRAINING_CASES])
def test_a_training_option_that_runs_no_descent_is_a_usage_error(inputs, command, option, value):
    """A learning rate that is not positive and finite, fewer than one epoch
    or iteration, a rounding regularizer that is not finite and >= 0, or an
    allowed drop that is NaN or negative, is rejected while parsing, before
    anything is written."""
    args = {**dict(zip(BASE[command][::2], BASE[command][1::2])), option: value}
    out = inputs / f"training{command}{option}{value}"
    argv = [command, "--model", str(inputs / "net"), "--data", str(inputs / "data"), "--out", str(out)]
    rc, lines = _run(argv + [s for kv in args.items() for s in kv])
    assert rc == 2 and len(lines) == 1 and lines[0].startswith("error:usage:"), (rc, lines)
    assert not out.exists()


def test_one_output_and_rows_required_before_any_write(inputs, tmp_path):
    """A model with two outputs, or an empty dataset, is one shape error
    before any file is written."""
    mlp = toys.mlp([2, 8, 2], seed=0)
    save_model(GraphModel([*mlp.nodes.values(), Node("out2", "output", inputs=["fc0"])]), tmp_path / "two")
    save_dataset(Dataset(np.zeros((0, 2)), np.zeros(0)), tmp_path / "empty")
    runs = [["eval", "--model", str(inputs / "net"), "--data", str(tmp_path / "empty")]]
    for command in ("eval", "quantsim", "qat", "amp", "debug"):
        out = [] if command == "eval" else ["--out", str(tmp_path / command)]
        runs.append([command, "--model", str(tmp_path / "two"), "--data", str(inputs / "data"), *out, *BASE[command]])
    for argv in runs:
        rc, lines = _run(argv)
        assert rc == 3 and len(lines) == 1 and lines[0].startswith("error:shape:"), (argv, lines)
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["two.model.json", "two.weights.bin", "empty.data.json", "empty.data.bin", "quantsim", "qat", "amp", "debug"]
    )
