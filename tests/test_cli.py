import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fixquant
from fixquant import toys
from fixquant.cli import build_parser, main
from fixquant.datasets import Dataset, save_dataset
from fixquant.graph_ir import GraphModel, Node, save_model


@pytest.fixture
def model_prefix(tmp_path):
    save_model(toys.mlp([2, 8, 2], seed=0), tmp_path / "net")
    return str(tmp_path / "net")


@pytest.fixture
def data_prefix(tmp_path):
    ds = toys.spiral_dataset(n_per_class=40, seed=0)
    save_dataset(ds, tmp_path / "spiral")
    return str(tmp_path / "spiral")


@pytest.fixture
def conv_prefix(tmp_path):
    save_model(toys.conv_bn_relu_conv(seed=0), tmp_path / "convnet")
    return str(tmp_path / "convnet")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fixquant" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_arg_is_usage_error(capsys, data_prefix, tmp_path):
    assert main(["quantsim", "--data", data_prefix, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, option",
    [
        ("eval", "--scheme sqnr"),
        ("eval", "--per-channel"),
        ("export", "--scheme sqnr"),
        ("export", "--per-channel"),
        # the encodings file alone sets every quantizer that eval and export import
        ("eval", "--param-bw 4"),
        ("eval", "--output-bw 8"),
        ("eval", "--config c.json"),
        ("export", "--param-bw 4"),
        ("export", "--output-bw 8"),
        ("export", "--config c.json"),
        ("adaround", "--output-bw 4"),
        ("adaround", "--config c.json"),
        ("amp", "--param-bw 4"),
        ("amp", "--output-bw 4"),
        ("visualize", "--what ranges"),
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, model_prefix, data_prefix, tmp_path, command, option):
    inputs = {
        "eval": ["--data", data_prefix, "--encodings", "e.json"],
        "export": ["--encodings", "e.json", "--out", str(tmp_path / "o")],
        "adaround": ["--data", data_prefix, "--seed", "0", "--out", str(tmp_path / "o")],
        "amp": ["--data", data_prefix, "--out", str(tmp_path / "o")],
        "visualize": ["--out", str(tmp_path / "o")],
    }[command]
    assert main([command, "--model", model_prefix, *inputs, *option.split()]) == 2
    assert capsys.readouterr().err == f"error:usage: unrecognized arguments: {option}\n"
    assert not (tmp_path / "o").exists()


def test_missing_model_file_exits_data_error(capsys, data_prefix, tmp_path):
    rc = main(
        ["quantsim", "--model", str(tmp_path / "nope"), "--data", data_prefix, "--out", str(tmp_path / "o")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1  # a single line, not a traceback


def test_quantsim_writes_artifacts(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "qs"
    rc = main(["quantsim", "--model", model_prefix, "--data", data_prefix, "--out", str(out)])
    assert rc == 0
    for suffix in ("model.json", "weights.bin", "encodings.json"):
        assert (out / f"quantsim.{suffix}").exists()
    assert "metric accuracy" in capsys.readouterr().out


def test_fold_bn(capsys, conv_prefix, tmp_path):
    out = tmp_path / "fb"
    assert main(["fold-bn", "--model", conv_prefix, "--out", str(out)]) == 0
    assert "folded 1 batchnorm(s)" in capsys.readouterr().out
    manifest = json.loads((out / "folded.model.json").read_text())
    assert all(n["kind"] != "batchnorm" for n in manifest["nodes"])


def test_equalize(capsys, conv_prefix, tmp_path):
    out = tmp_path / "eq"
    assert main(["equalize", "--model", conv_prefix, "--out", str(out)]) == 0
    report = json.loads((out / "equalize_report.json").read_text())
    assert len(report["pairs"]) == 1


def test_calibrate_writes_encodings(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "encodings.json").read_text())
    assert doc["format"] == "fixquant-encodings-v1"
    assert "fc0.weight" in doc["param_encodings"]


def test_eval_float_and_quantized(capsys, model_prefix, data_prefix, tmp_path):
    assert main(["eval", "--model", model_prefix, "--data", data_prefix]) == 0
    float_line = capsys.readouterr().out.strip()
    assert float_line.startswith("metric accuracy ")

    out = tmp_path / "cal"
    main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(out)])
    capsys.readouterr()
    rc = main(
        ["eval", "--model", model_prefix, "--data", data_prefix, "--encodings", str(out / "encodings.json")]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("metric accuracy ")


def _import(capsys, command, model_prefix, data_prefix, tmp_path, doc: dict):
    """``command`` (eval or export) on ``doc`` written to a file: its exit
    code, its stderr lines, and the files it left in --out."""
    path = tmp_path / "doc.encodings.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    inputs = ["--data", data_prefix] if command == "eval" else ["--out", str(tmp_path / "ex")]
    rc = main([command, "--model", model_prefix, *inputs, "--encodings", str(path)])
    files = sorted(p.name for p in (tmp_path / "ex").glob("*"))
    return rc, capsys.readouterr().err.splitlines(), files


def _calibrated(model_prefix, data_prefix, tmp_path, *options) -> dict:
    """The encodings document that calibrate writes under ``options``."""
    out = tmp_path / "cal"
    assert main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(out), *options]) == 0
    return json.loads((out / "encodings.json").read_text())


@pytest.mark.parametrize("command", ["eval", "export"])
def test_an_import_of_entries_at_two_bitwidths_exits_data_error(capsys, model_prefix, data_prefix, tmp_path, command):
    doc = _calibrated(model_prefix, data_prefix, tmp_path, "--per-channel")
    doc["param_encodings"]["fc0.weight"][3]["bitwidth"] = 4
    rc, err, files = _import(capsys, command, model_prefix, data_prefix, tmp_path, doc)
    assert (rc, err, files) == (3, ["error:encoding: param_encodings['fc0.weight']: entries disagree on bitwidth [4, 8]"], [])


@pytest.mark.parametrize(
    "section, key, count, fits",
    [("param_encodings", "fc0.weight", 3, "1 or 8"), ("activation_encodings", "act0", 2, "1")],
)
@pytest.mark.parametrize("command", ["eval", "export"])
def test_an_entry_count_fitting_no_granularity_exits_data_error(
    capsys, model_prefix, data_prefix, tmp_path, command, section, key, count, fits
):
    doc = _calibrated(model_prefix, data_prefix, tmp_path)
    doc[section][key] = doc[section][key][:1] * count
    rc, err, files = _import(capsys, command, model_prefix, data_prefix, tmp_path, doc)
    assert (rc, err, files) == (3, [f"error:encoding: {section}[{key!r}]: {count} encodings, not {fits}"], [])


def test_mixed_precision_amp_encodings_round_trip(capsys, tmp_path):
    """AMP's encodings set weights at 16 and 4 bits and activations at 4
    and 16: eval scores them as the last accepted pareto move did, and
    export re-emits them, now frozen."""
    model = toys.three_group_model(seed=0, width=8)
    x = np.concatenate(toys.random_feed((32, 8), n_batches=2, seed=1))
    save_model(model, tmp_path / "m")
    save_dataset(Dataset(x, model.forward(x), metric="mse"), tmp_path / "d")
    amp = tmp_path / "amp"
    argv = ["--model", str(tmp_path / "m"), "--data", str(tmp_path / "d")]
    assert main(["amp", *argv, "--out", str(amp), "--candidates", "16,16;16,4;4,16;4,4", "--allowed-drop", "3e-3"]) == 0
    last_score = json.loads((amp / "pareto_list.json").read_text())["entries"][-1]["accuracy"]
    doc = json.loads((amp / "amp.encodings.json").read_text())
    bitwidths = {s: {e[0]["bitwidth"] for e in doc[s].values()} for s in ("activation_encodings", "param_encodings")}
    assert bitwidths == {"activation_encodings": {4, 16}, "param_encodings": {4, 16}}

    capsys.readouterr()
    assert main(["eval", *argv, "--encodings", str(amp / "amp.encodings.json")]) == 0
    assert capsys.readouterr().out == f"metric mse {-last_score:.6f}\n"
    assert main(["export", "--model", str(amp / "amp"), "--encodings", str(amp / "amp.encodings.json"),
                 "--out", str(tmp_path / "ex")]) == 0
    exported = json.loads((tmp_path / "ex" / "exported.encodings.json").read_text())
    for s in ("activation_encodings", "param_encodings"):
        doc[s] = {k: [{**e, "frozen": True} for e in entries] for k, entries in doc[s].items()}
    assert exported == doc


def test_adaround_requires_seed(capsys, model_prefix, data_prefix, tmp_path):
    rc = main(
        ["adaround", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_adaround_is_deterministic(capsys, model_prefix, data_prefix, tmp_path):
    argv = ["adaround", "--model", model_prefix, "--data", data_prefix, "--iterations", "50", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("adaround.weights.bin", "adaround.encodings.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bias_correct(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "bc"
    rc = main(
        ["bias-correct", "--model", model_prefix, "--data", data_prefix, "--out", str(out), "--mode", "empirical"]
    )
    assert rc == 0
    assert (out / "bias_corrected.model.json").exists()


def test_qat_requires_seed(capsys, model_prefix, data_prefix, tmp_path):
    rc = main(["qat", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_qat_trains_and_logs(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "qat"
    rc = main(
        [
            "qat",
            "--model", model_prefix,
            "--data", data_prefix,
            "--out", str(out),
            "--seed", "3",
            "--epochs", "2",
            "--lr", "0.05",
        ]
    )
    assert rc == 0
    log = (out / "qat_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,loss,lr"
    assert len(log) == 3
    assert (out / "qat.encodings.json").exists()


def test_amp_search_and_resume(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "amp"
    argv = [
        "amp",
        "--model", model_prefix,
        "--data", data_prefix,
        "--out", str(out),
        "--candidates", "16,16;8,8",
        "--allowed-drop", "1.0",
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "pareto entries:" in stdout
    blobs = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv + ["--resume"]) == 0  # the same data calibrates to the same fingerprint
    assert capsys.readouterr().out == stdout
    assert {p.name: p.read_bytes() for p in out.iterdir()} == blobs


def test_amp_non_finite_score_is_numeric_error(capsys, monkeypatch, model_prefix, data_prefix, tmp_path):
    monkeypatch.setattr("fixquant.cli.metric_score", lambda *a: float("nan"))
    out = tmp_path / "amp"
    argv = ["amp", "--model", model_prefix, "--data", data_prefix, "--out", str(out), "--candidates", "16,16;8,8"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("error:numeric: evaluation of the phase-1 baseline")
    assert not (out / "accuracy_list.json").exists()


def test_amp_bad_candidate_string_is_data_error(capsys, model_prefix, data_prefix, tmp_path):
    rc = main(
        [
            "amp",
            "--model", model_prefix,
            "--data", data_prefix,
            "--out", str(tmp_path / "o"),
            "--candidates", "64,64",
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:encoding:")


def test_amp_out_of_range_candidate_is_rejected_before_any_work(capsys, model_prefix, data_prefix, tmp_path):
    argv = ["amp", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "o")]
    assert main(argv + ["--candidates", "16,16;64,64"]) == 3
    assert capsys.readouterr().err.startswith("error:encoding:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "candidates, message",
    [
        ("", "candidate list is empty"),
        (";;", "candidate list is empty"),
        ("16,16;8,8;8,8", "candidate 8,8 is listed twice"),
    ],
    ids=["empty", "only-separators", "repeated-pair"],
)
def test_amp_empty_or_repeated_candidates_are_rejected_before_any_work(
    capsys, model_prefix, data_prefix, tmp_path, candidates, message
):
    argv = ["amp", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "o")]
    assert main(argv + ["--candidates", candidates]) == 3
    assert capsys.readouterr().err == f"error:encoding: {message}\n"
    assert not (tmp_path / "o").exists()


def test_amp_resume_on_another_models_cache_is_cache_error(capsys, tmp_path):
    """Two models of one structure differ only in their weights, which the
    AMP fingerprint covers: resuming one's search from the other's caches
    would replay the other's scores (0.500000 where a clean run on seed 1
    prints 0.562500)."""
    for seed in (0, 1):
        save_model(toys.mlp([2, 8, 2], seed=seed), tmp_path / f"net{seed}")
    save_dataset(toys.spiral_dataset(n_per_class=8, seed=0), tmp_path / "d")
    argv = ["amp", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "amp"), "--allowed-drop", "0.05"]
    assert main(argv + ["--model", str(tmp_path / "net0")]) == 0
    capsys.readouterr()
    assert main(argv + ["--model", str(tmp_path / "net1"), "--resume"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:cache: ")
    assert captured.out == ""


def test_amp_resume_on_other_data_is_cache_error(capsys, tmp_path):
    """Another dataset calibrates the same model to other encodings, which
    the AMP fingerprint covers: resuming from the first dataset's caches
    would replay scores measured on it."""
    save_model(toys.mlp([2, 8, 2], seed=0), tmp_path / "net")
    for seed in (0, 1):
        save_dataset(toys.spiral_dataset(n_per_class=8, seed=seed), tmp_path / f"d{seed}")
    argv = ["amp", "--model", str(tmp_path / "net"), "--out", str(tmp_path / "amp"), "--allowed-drop", "0.05"]
    assert main(argv + ["--data", str(tmp_path / "d0")]) == 0
    blobs = {p.name: p.read_bytes() for p in (tmp_path / "amp").iterdir()}
    capsys.readouterr()
    assert main(argv + ["--data", str(tmp_path / "d1"), "--resume"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:cache: ") and "calibration" in lines[0]
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in (tmp_path / "amp").iterdir()} == blobs


BITWIDTH_CASES = [
    (command, option, value)
    for command, option in [
        ("quantsim", "--param-bw"),
        ("quantsim", "--output-bw"),
        ("bias-correct", "--param-bw"),
        ("adaround", "--param-bw"),
        ("debug", "--target-bw"),
    ]
    for value in ("0", "1", "33", "-4")
]


@pytest.mark.parametrize("command, option, value", BITWIDTH_CASES, ids=[" ".join(c) for c in BITWIDTH_CASES])
def test_out_of_range_bitwidth_is_rejected_while_parsing(capsys, model_prefix, data_prefix, tmp_path, command, option, value):
    out = tmp_path / "o"
    argv = [command, "--model", model_prefix, "--data", data_prefix, "--out", str(out), option, value]
    assert main(argv + (["--seed", "0"] if command == "adaround" else [])) == 3
    assert capsys.readouterr().err == f"error:encoding: bitwidth {value} is not an integer in [2, 32]\n"
    assert not out.exists()


@pytest.mark.parametrize("candidates", ["16", "16,16;x,8", "16,16;8,8,8"])
def test_amp_malformed_candidates_are_usage_errors(capsys, model_prefix, data_prefix, tmp_path, candidates):
    argv = ["amp", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "o")]
    assert main(argv + ["--candidates", candidates]) == 2
    assert "argument --candidates" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any work


def test_export_round_trip(capsys, model_prefix, data_prefix, tmp_path):
    cal = tmp_path / "cal"
    main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(cal)])
    out = tmp_path / "ex"
    rc = main(
        ["export", "--model", model_prefix, "--out", str(out), "--encodings", str(cal / "encodings.json")]
    )
    assert rc == 0
    doc = json.loads((out / "exported.encodings.json").read_text())
    # entries are lists of per-channel encodings; import froze every one
    assert all(e["frozen"] for encs in doc["param_encodings"].values() for e in encs)


def test_visualize_ranges(capsys, model_prefix, tmp_path):
    out = tmp_path / "viz"
    assert main(["visualize", "--model", model_prefix, "--out", str(out)]) == 0
    lines = (out / "weight_ranges.csv").read_text().strip().splitlines()
    assert lines[0] == "layer,channel,min,max"
    assert len(lines) == 1 + 8 + 2  # one row per output channel of fc0 and fc1


def test_debug_report(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "dbg"
    rc = main(["debug", "--model", model_prefix, "--data", data_prefix, "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fp32 sanity: ok" in printed
    report = json.loads((out / "debug_report.json").read_text())
    assert report["fp32_sanity_ok"] is True
    assert (out / "debug_layers.csv").exists()


def test_zero_stride_model_is_shape_error(capsys, tmp_path):
    model = toys.conv_bn_relu_conv(seed=0)
    model.nodes["conv1"].attrs["stride"] = 0
    save_model(model, tmp_path / "bad")
    ds = Dataset(np.random.default_rng(0).normal(size=(8, 3, 6, 6)), np.zeros(8), metric="mse")
    save_dataset(ds, tmp_path / "imgs")
    argv = ["calibrate", "--model", str(tmp_path / "bad"), "--data", str(tmp_path / "imgs")]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:shape:")
    assert err.count("\n") == 1


def test_numeric_failure_exits_four(capsys, data_prefix, tmp_path):
    # a poisoned batchnorm variance blows up the calibration forward pass
    model = toys.conv_bn_relu_conv(seed=0)
    model.nodes["bn1"].weights["var"][0] = -1.0
    save_model(model, tmp_path / "bad")
    ds = Dataset(np.random.default_rng(0).normal(size=(8, 3, 6, 6)), np.zeros(8), metric="mse")
    save_dataset(ds, tmp_path / "imgs")
    rc = main(
        [
            "calibrate",
            "--model", str(tmp_path / "bad"),
            "--data", str(tmp_path / "imgs"),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:numeric:")


@pytest.mark.parametrize(
    "tensor, value", [("y", 1.7), ("y", np.nan), ("x", np.nan)], ids=["fractional-label", "nan-label", "nan-input"]
)
def test_eval_of_a_dataset_file_with_a_bad_value_is_one_format_line(capsys, model_prefix, data_prefix, tensor, value):
    manifest = json.loads(Path(f"{data_prefix}.data.json").read_text())
    blob = Path(f"{data_prefix}.data.bin")
    floats = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
    floats[manifest["tensors"][tensor]["offset"] + 1] = value
    blob.write_bytes(floats.tobytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--model", model_prefix, "--data", data_prefix])
    err = capsys.readouterr().err.splitlines()
    assert (rc, len(err), caught) == (3, 1, [])
    assert err[0].startswith("error:format: ")


def _run_cli(*argv):
    """``python -m fixquant.cli argv`` in a child that imports the package under test."""
    src = str(Path(fixquant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fixquant.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_entry_point(tmp_path):
    proc = _run_cli("--help")
    assert proc.returncode == 0
    assert "fixquant" in proc.stdout


def test_console_entry_point_parses_a_subcommand_from_sys_argv(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # one help width for this process and the child
    proc = _run_cli("eval", "--help")
    assert proc.returncode == 0
    assert proc.stdout == _subcommands()["eval"].format_help()


def test_console_entry_point_lists_every_command_for_an_unknown_one():
    proc = _run_cli("bogus")
    assert proc.returncode == 2
    choices = ", ".join(repr(name) for name in _subcommands())
    assert proc.stderr == f"error:usage: argument command: invalid choice: 'bogus' (choose from {choices})\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["quantsim", "--data", "d", "--out", "o"],
        ["amp", "--model", "m", "--data", "d", "--out", "o", "--candidates", "16,16;x,8"],
    ],
    ids=["no-command", "unknown-command", "missing-model", "bad-candidates"],
)
def test_usage_errors_print_one_error_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:usage: ")
    assert captured.out == ""


def test_pool_padding_reaching_its_kernel_is_shape_error(capsys, tmp_path):
    rng = np.random.default_rng(0)
    model = GraphModel(
        [
            Node("in", "input"),
            Node(
                "cv", "conv2d", inputs=["in"], attrs={"padding": 1},
                weights={"weight": rng.normal(size=(2, 3, 3, 3)), "bias": np.zeros(2)},
            ),
            Node("pool", "maxpool", inputs=["cv"], attrs={"kernel": 1, "padding": 1}),
            Node("out", "output", inputs=["pool"]),
        ],
        name="padded_pool",
    )
    save_model(model, tmp_path / "bad")
    save_dataset(Dataset(rng.normal(size=(8, 3, 6, 6)), np.zeros(8), metric="mse"), tmp_path / "imgs")
    argv = ["calibrate", "--model", str(tmp_path / "bad"), "--data", str(tmp_path / "imgs")]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:shape:")
    assert err.count("\n") == 1


def _set(*path, value=None, drop=False):
    """A one-field mutation of a JSON document: set (or delete) the field at ``path``."""

    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if drop:
            del doc[last]
        else:
            doc[last] = value

    return mutate


@pytest.mark.parametrize(
    "target, mutate",
    [
        ("encodings", _set("param_encodings", "fc0.weight", value=[])),
        ("encodings", _set("param_encodings", "fc0.weight", value=True)),
        ("encodings", _set("activation_encodings", value=[])),
        ("encodings", _set("param_encodings", "fc0.weight", 0, "bitwidth", value=8.9)),
        ("dataset", lambda doc: [doc]),
        ("dataset", _set("tensors", drop=True)),
        ("dataset", _set("metric", drop=True)),
        ("dataset", _set("tensors", "x", "offset", value=-1)),
        ("dataset", _set("tensors", "x", "offset", drop=True)),
        ("dataset", _set("tensors", "x", "shape", value="a")),
        ("model", _set("nodes", 1, "tensors", "weight", "offset", drop=True)),
        ("model", _set("nodes", 1, "tensors", "weight", "offset", value="x")),
        ("model", _set("nodes", 1, "tensors", "weight", "shape", value="a")),
        ("model", _set("nodes", 1, "tensors", "weight", value=-1)),
        ("model", _set("nodes", 1, "id", value={})),
        ("model", _set("nodes", 1, "attrs", value="x")),
        ("config", lambda doc: [{"a": 1}]),
        ("config", _set("defaults", value="x")),
        ("config", _set("supergroups", value=[1])),
        ("config", _set("defaults", value={"params": {"per_channel": True}})),
        ("config", _set("defaults", value={"params": {"is_symetric": False}})),
        ("config", _set("op_type", value={"Linear": {"is_output_quantized": False}})),
    ],
    ids=[
        "encodings-entries-empty", "encodings-entries-true", "encodings-section-list",
        "encodings-fractional-bitwidth", "dataset-list", "dataset-no-tensors", "dataset-no-metric",
        "dataset-negative-offset", "dataset-no-offset", "dataset-shape-string", "model-no-offset",
        "model-offset-string", "model-shape-string", "model-spec-int", "model-id-object",
        "model-attrs-string", "config-list", "config-defaults-string", "config-supergroup-int",
        "config-per-channel", "config-misspelled-flag", "config-op-type-case",
    ],
)
def test_malformed_file_is_one_format_error_line(capsys, model_prefix, data_prefix, tmp_path, target, mutate):
    main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "cal")])
    (tmp_path / "config.json").write_text("{}")
    path = {
        "encodings": tmp_path / "cal" / "encodings.json",
        "dataset": tmp_path / "spiral.data.json",
        "model": tmp_path / "net.model.json",
        "config": tmp_path / "config.json",
    }[target]
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(doc) or doc))
    capsys.readouterr()
    if target == "config":
        argv = ["calibrate", "--config", str(path), "--out", str(tmp_path / "cal2")]
    else:
        argv = ["eval", "--encodings", str(tmp_path / "cal" / "encodings.json")]
    assert main(argv + ["--model", model_prefix, "--data", data_prefix]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:format: ")


@pytest.mark.parametrize(
    "mutate",
    [lambda doc: [1], _set("entries", 0, "accuracy", value="x")],
    ids=["cache-list", "cache-accuracy-string"],
)
def test_malformed_amp_cache_is_one_cache_error_line(capsys, model_prefix, data_prefix, tmp_path, mutate):
    argv = ["amp", "--model", model_prefix, "--data", data_prefix, "--out", str(tmp_path / "amp")]
    assert main(argv + ["--candidates", "8,8;8,4"]) == 0
    path = tmp_path / "amp" / "accuracy_list.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(doc) or doc))
    capsys.readouterr()
    assert main(argv + ["--candidates", "8,8;8,4", "--resume"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:cache: ")


def test_output_not_shaped_like_mse_targets_is_shape_error(capsys, tmp_path):
    rng = np.random.default_rng(0)
    save_model(toys.mlp([2, 8, 3], seed=0), tmp_path / "net")
    save_dataset(Dataset(rng.normal(size=(16, 2)), rng.normal(size=16), metric="mse"), tmp_path / "reg")
    argv = ["--model", str(tmp_path / "net"), "--data", str(tmp_path / "reg")]
    for cmd in (["eval"], ["quantsim", "--out", str(tmp_path / "qs")]):
        assert main(cmd + argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:shape: ")
    assert not (tmp_path / "qs" / "quantsim.encodings.json").exists()


def test_attributes_named_like_kernel_parameters_do_not_break_the_forward(capsys, tmp_path):
    rng = np.random.default_rng(0)
    model = GraphModel(
        [
            Node("in", "input"),
            Node(
                "cv", "conv2d", inputs=["in"], attrs={"padding": 1},
                weights={"weight": rng.normal(size=(2, 3, 3, 3)), "bias": np.zeros(2)},
            ),
            Node("act", "relu", inputs=["cv"], attrs={"kind": 1}),
            Node("pool", "maxpool", inputs=["act"], attrs={"kernel": 2, "inputs": 3}),
            Node("out", "output", inputs=["pool"]),
        ],
        name="odd_attrs",
    )
    x = rng.normal(size=(8, 3, 6, 6))
    y = model.forward(x)
    plain = model.copy()
    del plain.nodes["act"].attrs["kind"], plain.nodes["pool"].attrs["inputs"]
    assert np.array_equal(y, plain.forward(x))
    save_model(model, tmp_path / "odd")
    save_dataset(Dataset(x, np.zeros_like(y), metric="mse"), tmp_path / "imgs")
    assert main(["eval", "--model", str(tmp_path / "odd"), "--data", str(tmp_path / "imgs")]) == 0
    assert capsys.readouterr().out.startswith("metric mse ")


def test_accuracy_label_out_of_range_is_shape_error(capsys, model_prefix, tmp_path):
    x = np.random.default_rng(0).normal(size=(20, 2))
    save_dataset(Dataset(x, np.arange(20) % 5), tmp_path / "five")  # labels 0..4 for a 2-output mlp
    argv = ["--model", model_prefix, "--data", str(tmp_path / "five")]
    for cmd in (["eval"], ["quantsim", "--out", str(tmp_path / "qs")]):
        assert main(cmd + argv) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:shape: ")
        assert captured.out == ""
    assert list((tmp_path / "qs").iterdir()) == []  # quantsim evaluates before it exports


@pytest.mark.parametrize("command", ["fold-bn", "quantsim"])
def test_out_naming_an_existing_file_is_one_data_error_line(capsys, model_prefix, data_prefix, tmp_path, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    argv = [command, "--model", model_prefix, "--out", str(taken)]
    assert main(argv + (["--data", data_prefix] if command == "quantsim" else [])) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:data: ")
    assert captured.out == ""
    assert taken.read_text() == "not a directory"


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_subcommand_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: fixquant {command} ")
    assert captured.out == _subcommands()[command].format_help()  # as the full tree prints it
    assert captured.err == ""


def test_a_named_command_builds_only_its_own_parser(monkeypatch, capsys, model_prefix, data_prefix):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["eval", "--model", model_prefix, "--data", data_prefix]) == 0
    assert added == ["eval"]
    assert main(["bogus"]) == 2  # an unknown command gets the full tree, to list every choice
    assert added[1:] == list(_subcommands())
