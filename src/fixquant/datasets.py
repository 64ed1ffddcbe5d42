"""Dataset files and evaluation.

Datasets use the same conventions as model files: a JSON manifest next to
a raw little-endian float32 blob, offsets counted in float32 elements.
The manifest declares the eval metric ("accuracy" for integer class
labels, "mse" for regression targets); labels are stored in the blob as
float32 and cast back on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, ShapeError
from .graph_ir import field, load_pair, read_json, save_pair

__all__ = [
    "Dataset",
    "dataset_paths",
    "save_dataset",
    "load_dataset",
    "iter_batches",
    "evaluate",
    "metric_score",
]

DATASET_FORMAT = "fixquant-dataset-v1"
METRICS = ("accuracy", "mse")


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    metric: str = "accuracy"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.metric not in METRICS:
            raise ModelFormatError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.metric == "accuracy":
            self.y = np.asarray(self.y, dtype=np.int64)
        else:
            self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim == 0 or self.y.ndim == 0 or self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(f"dataset needs one target per input, got shapes {self.x.shape} and {self.y.shape}")

    def __len__(self) -> int:
        return self.x.shape[0]


def dataset_paths(prefix) -> tuple[Path, Path]:
    return Path(f"{prefix}.data.json"), Path(f"{prefix}.data.bin")


def save_dataset(ds: Dataset, prefix) -> None:
    tensors = {"x": ds.x, "y": ds.y}
    manifest = {"format": DATASET_FORMAT, "metric": ds.metric, "tensors": tensors}
    save_pair(*dataset_paths(prefix), manifest, [tensors])


def load_dataset(prefix) -> Dataset:
    manifest_path, blob_path = dataset_paths(prefix)
    manifest = read_json(manifest_path, DATASET_FORMAT, "dataset manifest")
    where = str(manifest_path)
    specs = field(manifest, "tensors", dict, where, check=lambda t: set(t) == {"x", "y"})
    metric = field(manifest, "metric", str, where, check=lambda m: m in METRICS)
    (tensors,) = load_pair(blob_path, [("dataset", specs)])
    return Dataset(tensors["x"], tensors["y"], metric=metric)


def iter_batches(x: np.ndarray, batch_size: int = 256):
    x = np.asarray(x)
    for start in range(0, x.shape[0], batch_size):
        yield x[start : start + batch_size]


def evaluate(model, ds: Dataset, batch_size: int = 256) -> float:
    """Raw metric of a GraphModel or QuantSimModel on the dataset.

    Accuracy is the fraction of argmax matches over the rows of a 2-d
    (N, C) output, with every label in [0, C); mse the mean squared error
    of an output shaped like the targets. Any other output shape or label
    is a ShapeError. Use ``metric_score`` for a higher-is-better view.
    """
    outs = [model.forward(xb) for xb in iter_batches(ds.x, batch_size)]
    y_hat = np.concatenate(outs, axis=0)
    accuracy = ds.metric == "accuracy"
    if ds.y.shape != (y_hat.shape[:1] if accuracy else y_hat.shape) or (accuracy and y_hat.ndim != 2):
        raise ShapeError(f"model output {y_hat.shape} does not fit {ds.metric} targets {ds.y.shape}")
    if accuracy:
        if np.any((ds.y < 0) | (ds.y >= y_hat.shape[1])):
            raise ShapeError(f"accuracy labels must lie in [0, {y_hat.shape[1]}) for model output {y_hat.shape}")
        return float(np.mean(y_hat.argmax(axis=1) == ds.y))
    diff = y_hat - ds.y
    return float(np.mean(diff * diff))


def metric_score(value: float, metric: str) -> float:
    """Map a metric value to a score where larger is always better."""
    return value if metric == "accuracy" else -value
