import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_eval_bitwidth_mismatch_exits_data_error(capsys, model_prefix, data_prefix, tmp_path):
    out = tmp_path / "cal"
    main(["calibrate", "--model", model_prefix, "--data", data_prefix, "--out", str(out)])
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--model", model_prefix,
            "--data", data_prefix,
            "--encodings", str(out / "encodings.json"),
            "--param-bw", "4",
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:encoding:")


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
    assert "pareto entries:" in capsys.readouterr().out
    blob = (out / "pareto_list.json").read_bytes()
    assert main(argv + ["--resume"]) == 0
    assert (out / "pareto_list.json").read_bytes() == blob


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fixquant.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "fixquant" in proc.stdout


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
    ],
    ids=[
        "encodings-entries-empty", "encodings-entries-true", "encodings-section-list",
        "encodings-fractional-bitwidth", "dataset-list", "dataset-no-tensors", "dataset-no-metric",
        "dataset-negative-offset", "dataset-no-offset", "dataset-shape-string", "model-no-offset",
        "model-offset-string", "model-shape-string", "model-spec-int", "model-id-object",
        "model-attrs-string", "config-list", "config-defaults-string", "config-supergroup-int",
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
    encodings = str(tmp_path / "cal" / "encodings.json")
    argv = ["eval", "--model", model_prefix, "--data", data_prefix, "--encodings", encodings]
    assert main(argv + ["--config", str(tmp_path / "config.json")]) == 3
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
    assert captured.err == ""
