import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fixquant import toys
from fixquant.datasets import (
    Dataset,
    dataset_paths,
    evaluate,
    iter_batches,
    load_dataset,
    metric_score,
    save_dataset,
)
from fixquant.errors import ModelFormatError, ShapeError


def test_dataset_validates_lengths():
    with pytest.raises(Exception):
        Dataset(np.zeros((4, 2)), np.zeros(3), metric="mse")


def test_dataset_validates_metric():
    with pytest.raises(Exception):
        Dataset(np.zeros((4, 2)), np.zeros(4), metric="f1")


def test_accuracy_labels_cast_to_int64():
    ds = Dataset(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), metric="accuracy")
    assert ds.y.dtype == np.int64


@pytest.mark.parametrize(
    "x, y, metric",
    [
        (np.zeros((3, 2)), [0, 1.7, 0], "accuracy"),
        (np.zeros((3, 2)), [0, np.nan, 1], "accuracy"),
        (np.zeros((3, 2)), [0, 2.0**70, 1], "accuracy"),
        (np.zeros((3, 2)), [0.5, np.inf, 1.0], "mse"),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), [0, 1], "accuracy"),
        (np.array([[0.0, -np.inf], [1.0, 1.0]]), [0.5, 1.5], "mse"),
    ],
    ids=["fractional-label", "nan-label", "label-past-int64", "inf-target", "nan-input", "inf-input"],
)
def test_non_finite_values_and_non_integral_labels_are_one_format_error(x, y, metric):
    # checked before the cast to int64 labels, which would round 1.7 to 1 and warn on NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelFormatError, match="finite|integers"):
            Dataset(x, y, metric=metric)


@pytest.mark.parametrize(
    "x, y", [(np.zeros(()), np.zeros(1)), (np.zeros((1, 2)), np.zeros(())), (np.zeros((3, 2)), np.zeros(2))]
)
def test_inputs_and_targets_must_pair_up(x, y):
    with pytest.raises(ShapeError):
        Dataset(x, y, metric="mse")


def test_round_trip(tmp_path):
    ds = toys.spiral_dataset(n_per_class=20, seed=0)
    save_dataset(ds, tmp_path / "d")
    ds2 = load_dataset(tmp_path / "d")
    assert ds2.metric == "accuracy"
    assert np.array_equal(ds2.y, ds.y)
    # x stored as float32: values match after the same cast
    assert np.array_equal(ds2.x, ds.x.astype(np.float32).astype(np.float64))


def test_format_tag_checked(tmp_path):
    ds = toys.spiral_dataset(n_per_class=5, seed=0)
    save_dataset(ds, tmp_path / "d")
    meta, _ = dataset_paths(tmp_path / "d")
    doc = json.loads(meta.read_text())
    doc["format"] = "wrong"
    meta.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_dataset(tmp_path / "d")


def test_blob_size_checked(tmp_path):
    ds = toys.spiral_dataset(n_per_class=5, seed=0)
    save_dataset(ds, tmp_path / "d")
    _, blob = dataset_paths(tmp_path / "d")
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ModelFormatError):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("tensor, offset, error", [
    ("y", 0, "x starts at float 0, not 10"),  # y reads x's first floats
    ("x", 1, "x starts at float 1, not 0"),  # float 0 unread, x overlaps y
])
def test_blob_entries_must_tile_the_blob(tmp_path, tensor, offset, error):
    rng = np.random.default_rng(0)
    save_dataset(Dataset(rng.normal(size=(10, 2)), rng.normal(size=10), metric="mse"), tmp_path / "d")
    meta, _ = dataset_paths(tmp_path / "d")
    doc = json.loads(meta.read_text())
    doc["tensors"][tensor]["offset"] = offset
    meta.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=error):
        load_dataset(tmp_path / "d")


def test_iter_batches_covers_everything():
    x = np.arange(10).reshape(10, 1).astype(float)
    chunks = list(iter_batches(x, batch_size=4))
    assert [c.shape[0] for c in chunks] == [4, 4, 2]
    assert np.array_equal(np.concatenate(chunks), x)


def test_evaluate_accuracy():
    model = toys.mlp([2, 8, 2], seed=0)
    ds = toys.spiral_dataset(n_per_class=30, seed=1)
    acc = evaluate(model, ds)
    # fraction of argmax hits, in [0, 1]
    logits = model.forward(ds.x)
    expected = float(np.mean(np.argmax(logits, axis=1) == ds.y))
    assert acc == expected


def test_evaluate_mse():
    model = toys.mlp([2, 4, 1], seed=2)
    x = np.random.default_rng(3).normal(size=(20, 2))
    y = np.random.default_rng(4).normal(size=(20, 1))
    ds = Dataset(x, y, metric="mse")
    assert evaluate(model, ds) == pytest.approx(float(np.mean((model.forward(x) - y) ** 2)))


@pytest.mark.parametrize(
    "sizes, y_shape, metric",
    [([2, 8, 3], (16,), "mse"), ([2, 8, 1], (16,), "mse"), ([2, 8, 1], (16, 2), "mse"), ([2, 8, 2], (16, 1), "accuracy")],
    ids=["mse-3-outputs", "mse-column-vs-vector", "mse-narrower", "accuracy-2d-labels"],
)
def test_evaluate_rejects_output_not_fitting_targets(sizes, y_shape, metric):
    # (16, 1) against (16,) would broadcast to (16, 16) and give a wrong mse
    x = np.random.default_rng(3).normal(size=(16, 2))
    ds = Dataset(x, np.zeros(y_shape), metric=metric)
    with pytest.raises(ShapeError, match="does not fit"):
        evaluate(toys.mlp(sizes, seed=0), ds)


def test_evaluate_accuracy_needs_2d_output():
    model = toys.conv_bn_relu_conv(seed=0)  # 4-d output
    ds = Dataset(np.random.default_rng(0).normal(size=(4, 3, 6, 6)), np.zeros(4))
    with pytest.raises(ShapeError, match="does not fit"):
        evaluate(model, ds)


def test_metric_score_orientation():
    # higher is better for both metrics once mapped through metric_score
    assert metric_score(0.9, "accuracy") > metric_score(0.5, "accuracy")
    assert metric_score(0.1, "mse") > metric_score(2.0, "mse")


def test_interrupted_blob_write_keeps_previous_file(tmp_path, monkeypatch):
    save_dataset(toys.spiral_dataset(n_per_class=10, seed=0), tmp_path / "d")
    blob = dataset_paths(tmp_path / "d")[1].read_bytes()

    def torn_write(path, data):
        with open(path, "wb") as fh:
            fh.write(data[:5])
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(toys.spiral_dataset(n_per_class=10, seed=1), tmp_path / "d")
    monkeypatch.undo()
    assert dataset_paths(tmp_path / "d")[1].read_bytes() == blob
    assert len(load_dataset(tmp_path / "d")) == 20
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.data.bin", "d.data.json"]


@pytest.mark.parametrize("label", [-1, 2, 5])
def test_evaluate_rejects_accuracy_label_outside_the_classes(label):
    # softmax_cross_entropy rejects such labels too; counting them as misses would hide them
    x = np.random.default_rng(3).normal(size=(6, 2))
    ds = Dataset(x, [0, 1, 0, 1, 0, label])
    with pytest.raises(ShapeError, match=r"\[0, 2\)"):
        evaluate(toys.mlp([2, 8, 2], seed=0), ds)
