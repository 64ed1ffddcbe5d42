"""One-field mutations of every file the CLI reads.

Each file kind (model manifest, the same model with its batch norms
folded, dataset manifest, encodings, sim config, AMP accuracy and pareto
caches) is written once from a small valid run. A mutation sets one
field, at any depth, to a value of the wrong type or range, or deletes
it; a CLI command that reads the file must then return 0, or 2, 3 or 4
with exactly one ``error:`` line on stderr. A Python traceback (an
exception out of ``cli.main``) or a numpy warning fails the property.
"""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixquant.cli import main
from fixquant.datasets import Dataset, save_dataset
from fixquant.graph_ir import GraphModel, Node, save_model
from fixquant.quantsim import DEFAULT_CONFIG_DICT

FILES = {
    "model": "net.model.json",
    "folded-model": "fold/folded.model.json",
    "dataset": "data.data.json",
    "encodings": "cal/encodings.json",
    "config": "config.json",
    "accuracy-cache": "amp/accuracy_list.json",
    "pareto-cache": "amp/pareto_list.json",
}
DELETE = object()
VALUES = ["x", {}, [], -1, None, 1.5, float("nan"), True, DELETE]


def _net(rng) -> GraphModel:
    """A grouped conv, batchnorm, relu and 1x1 conv (an equalization pair
    once folded), add, concat, both pools and a linear head: every
    attribute a kernel reads appears in the manifest."""
    return GraphModel(
        [
            Node("in", "input"),
            Node(
                "cv", "conv2d", inputs=["in"], attrs={"stride": 1, "padding": 1, "groups": 2},
                weights={"weight": rng.normal(size=(4, 1, 3, 3)), "bias": rng.normal(size=4)},
            ),
            Node(
                "bn", "batchnorm", inputs=["cv"], attrs={"eps": 1e-5},
                weights={"gamma": np.ones(4), "beta": np.zeros(4), "mean": np.zeros(4), "var": np.ones(4)},
            ),
            Node("act", "relu", inputs=["bn"]),
            Node(
                "cv2", "conv2d", inputs=["act"], attrs={"groups": 1},
                weights={"weight": rng.normal(size=(2, 4, 1, 1)), "bias": np.zeros(2)},
            ),
            Node("sum", "add", inputs=["cv2", "in"]),
            Node("cat", "concat", inputs=["sum", "in"], attrs={"axis": 1}),
            Node("mp", "maxpool", inputs=["cat"], attrs={"kernel": 2, "stride": 2, "padding": 0}),
            Node("ap", "avgpool", inputs=["mp"], attrs={"kernel": [3, 3]}),
            Node(
                "fc", "linear", inputs=["ap"],
                weights={"weight": rng.normal(size=(2, 4)), "bias": np.zeros(2)},
            ),
            Node("out", "output", inputs=["fc"]),
        ],
        name="mutations",
    )


def _inputs(root: Path, model: str = "net") -> list[str]:
    return ["--model", str(root / model), "--data", str(root / "data"), "--config", str(root / "config.json")]


def _commands(root: Path, kind: str) -> list[list[str]]:
    """The commands that read the file of ``kind``."""
    if kind == "encodings":
        return [["eval", *_inputs(root)[:4], "--encodings", str(root / FILES["encodings"])]]
    if kind.endswith("cache"):
        return [["amp", *_inputs(root), "--out", str(root / "amp"), "--candidates", "8,8;8,4;4,8", "--resume"]]
    if kind == "folded-model":
        folded = _inputs(root, "fold/folded")
        return [
            ["equalize", *folded[:2], "--out", str(root / "cle")],
            ["bias-correct", *folded, "--out", str(root / "bc"), "--mode", "analytic"],
        ]
    qat = ["qat", *_inputs(root), "--out", str(root / "qat"), "--seed", "0", "--epochs", "1", "--batch-size", "8"]
    return [qat, ["fold-bn", *_inputs(root)[:2], "--out", str(root / "fold")]] if kind == "model" else [qat]


def _run(argv) -> tuple[int, list[str]]:
    """``cli.main``'s return code and stderr lines, numpy warnings counted as lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    return rc, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _paths(doc, prefix=()):
    """Every field path of a JSON document, parents before their fields."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def write_pristine(root: Path) -> dict[str, list[tuple]]:
    """Write one valid file of every kind under ``root``; returns the field paths of each."""
    rng = np.random.default_rng(0)
    save_model(_net(rng), root / "net")
    save_dataset(Dataset(rng.normal(size=(16, 2, 6, 6)), rng.integers(0, 2, size=16)), root / "data")
    (root / "config.json").write_text(json.dumps(DEFAULT_CONFIG_DICT))
    assert _run(["calibrate", *_inputs(root), "--out", str(root / "cal")]) == (0, [])
    assert _run(_commands(root, "model")[1]) == (0, [])
    assert _run(_commands(root, "accuracy-cache")[0][:-1]) == (0, [])
    return {kind: list(_paths(json.loads((root / name).read_text()))) for kind, name in FILES.items()}


@pytest.fixture(scope="module")
def pristine():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp), write_pristine(Path(tmp))


def mutate_and_run(pristine, kind: str, index: int, value, command: int = 0) -> tuple[int, list[str]]:
    """Copy the pristine files, apply one mutation to the file of ``kind``
    at its ``index``-th field path (modulo their number), run its
    ``command``-th command (modulo their number)."""
    src, paths = pristine
    path = paths[kind][index % len(paths[kind])]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(src, root, dirs_exist_ok=True)
        target = root / FILES[kind]
        doc = json.loads(target.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        target.write_text(json.dumps(doc))
        commands = _commands(root, kind)
        return _run(commands[command % len(commands)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(FILES)),
    index=st.integers(min_value=0, max_value=10_000),
    value=st.sampled_from(VALUES),
    command=st.integers(min_value=0, max_value=1),
)
def test_one_field_mutation_ends_in_one_error_line(pristine, kind, index, value, command):
    rc, lines = mutate_and_run(pristine, kind, index, value, command)
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
