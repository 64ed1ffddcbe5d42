"""Small deterministic models and datasets for experiments and tests."""

from __future__ import annotations

import numpy as np

from .datasets import Dataset
from .graph_ir import GraphModel, Node

__all__ = [
    "mlp",
    "conv_bn_relu_conv",
    "depthwise_net",
    "three_group_model",
    "spiral_dataset",
    "random_feed",
]


def _lin(rng, nid, n_in, n_out, src, w_scale=1.0):
    return Node(
        nid,
        "linear",
        [src],
        weights={
            "weight": rng.normal(0.0, w_scale / np.sqrt(n_in), size=(n_out, n_in)),
            "bias": rng.normal(0.0, 0.1, size=(n_out,)),
        },
    )


def mlp(layer_sizes, seed: int = 0, activation: str = "relu", name: str = "mlp") -> GraphModel:
    """input -> linear -> act -> ... -> linear -> output."""
    rng = np.random.default_rng(seed)
    nodes = [Node("in", "input", [])]
    src = "in"
    for i in range(len(layer_sizes) - 1):
        lid = f"fc{i}"
        nodes.append(_lin(rng, lid, layer_sizes[i], layer_sizes[i + 1], src))
        src = lid
        if i < len(layer_sizes) - 2:
            aid = f"act{i}"
            nodes.append(Node(aid, activation, [src]))
            src = aid
    nodes.append(Node("out", "output", [src]))
    return GraphModel(nodes, name=name)


def conv_bn_relu_conv(seed: int = 0, c_in: int = 3, c_mid: int = 6, c_out: int = 4) -> GraphModel:
    """conv -> batchnorm -> relu -> conv, randomized but reproducible.

    Batch-norm scales land in [0.5, 2] and shifts in [-1, 1], so folding
    and equalization exercise nontrivial per-channel rescaling.
    """
    rng = np.random.default_rng(seed)
    nodes = [
        Node("in", "input", []),
        Node(
            "conv1",
            "conv2d",
            ["in"],
            attrs={"stride": 1, "padding": 1},
            weights={
                "weight": rng.normal(0.0, 0.5, size=(c_mid, c_in, 3, 3)),
                "bias": rng.normal(0.0, 0.1, size=(c_mid,)),
            },
        ),
        Node(
            "bn1",
            "batchnorm",
            ["conv1"],
            weights={
                "gamma": rng.uniform(0.5, 2.0, size=(c_mid,)),
                "beta": rng.uniform(-1.0, 1.0, size=(c_mid,)),
                "mean": rng.normal(0.0, 0.5, size=(c_mid,)),
                "var": rng.uniform(0.5, 1.5, size=(c_mid,)),
            },
        ),
        Node("relu1", "relu", ["bn1"]),
        Node(
            "conv2",
            "conv2d",
            ["relu1"],
            attrs={"stride": 1, "padding": 1},
            weights={
                "weight": rng.normal(0.0, 0.5, size=(c_out, c_mid, 3, 3)),
                "bias": rng.normal(0.0, 0.1, size=(c_out,)),
            },
        ),
        Node("out", "output", ["conv2"]),
    ]
    return GraphModel(nodes, name="conv_bn_relu_conv")


def depthwise_net(seed: int = 0, channels: int = 4) -> GraphModel:
    """conv -> relu -> depthwise conv -> relu -> conv (separable block)."""
    rng = np.random.default_rng(seed)
    c = channels
    nodes = [
        Node("in", "input", []),
        Node(
            "conv1",
            "conv2d",
            ["in"],
            attrs={"stride": 1, "padding": 1},
            weights={
                "weight": rng.normal(0.0, 0.5, size=(c, 3, 3, 3)),
                "bias": rng.normal(0.0, 0.1, size=(c,)),
            },
        ),
        Node("relu1", "relu", ["conv1"]),
        Node(
            "dw",
            "conv2d",
            ["relu1"],
            attrs={"stride": 1, "padding": 1, "groups": c},
            weights={
                "weight": rng.normal(0.0, 0.5, size=(c, 1, 3, 3)),
                "bias": rng.normal(0.0, 0.1, size=(c,)),
            },
        ),
        Node("relu2", "relu", ["dw"]),
        Node(
            "conv2",
            "conv2d",
            ["relu2"],
            weights={
                "weight": rng.normal(0.0, 0.5, size=(c, c, 1, 1)),
                "bias": rng.normal(0.0, 0.1, size=(c,)),
            },
        ),
        Node("out", "output", ["conv2"]),
    ]
    return GraphModel(nodes, name="depthwise_net")


def three_group_model(seed: int = 0, width: int = 8, n_classes: int = 3) -> GraphModel:
    """linear->relu->linear->relu->linear: three mixed-precision groups."""
    return mlp([width, width, width, n_classes], seed=seed, name="three_group_model")


def spiral_dataset(n_per_class: int = 200, n_classes: int = 2, seed: int = 0, noise: float = 0.15) -> Dataset:
    """Interleaved spirals, the usual 2-d toy classification task."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls in range(n_classes):
        t = np.linspace(0.25, 1.0, n_per_class)
        angle = t * 3.0 * np.pi + cls * (2.0 * np.pi / n_classes)
        r = t * 2.0
        pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        pts += rng.normal(0.0, noise, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(n_per_class, cls, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    order = rng.permutation(x.shape[0])
    return Dataset(x[order], y[order], metric="accuracy")


def random_feed(shape, n_batches: int = 4, seed: int = 0, scale: float = 1.0) -> list:
    """List of random input batches for calibration."""
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, scale, size=shape) for _ in range(n_batches)]
