"""Opt-in span tracing of fixquant's public functions, installed from outside.

A traced run wraps each measured function in every namespace its callers
look it up in (``tc.conv2d`` is looked up on the ``tensor_core`` module,
``qdq`` is bound by name inside ``quantsim`` and ``qat``, methods live on
their classes), records one span per call and restores the originals on
exit. Untraced runs never construct a ``Tracer``, so they run the library
exactly as shipped.

A span is ``[name, start, end, parent, run]``: the layer name, two
``perf_counter`` stamps, the index of the enclosing span (-1 at top level)
and the repetition it belongs to. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested on one
thread, so that equals the duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from fixquant import (
    amp,
    cli,
    datasets,
    graph_ir,
    ptq,
    qat,
    quantizer,
    quantsim,
    range_setting,
    tensor_core,
)
from fixquant.errors import CalibrationError

# layer name -> every (namespace, attribute) a caller resolves it through
TRACED = {
    "tensor_core.conv2d": [(tensor_core, "conv2d")],
    "tensor_core.linear": [(tensor_core, "linear")],
    "tensor_core.batchnorm": [(tensor_core, "batchnorm")],
    "tensor_core.elementwise": [(tensor_core, "elementwise")],
    "graph_ir.GraphModel.evaluate_all": [(graph_ir.GraphModel, "evaluate_all")],
    "graph_ir.eval_kind": [(graph_ir, "eval_kind"), (ptq, "eval_kind")],
    "graph_ir.save_model": [(graph_ir, "save_model"), (cli, "save_model")],
    "graph_ir.load_model": [(graph_ir, "load_model"), (cli, "load_model")],
    "quantizer.qdq": [(quantizer, "qdq"), (quantsim, "qdq"), (qat, "qdq"), (ptq, "qdq")],
    "quantizer.ste_mask": [(quantizer, "ste_mask"), (qat, "ste_mask")],
    # only the binding range_setting scores sqnr candidates through
    "quantizer.qdq_tensor": [(range_setting, "qdq_tensor")],
    "range_setting.RangeAccumulator.observe": [(range_setting.RangeAccumulator, "observe")],
    "range_setting.compute_sqnr": [(range_setting, "compute_sqnr")],
    "range_setting.compute_minmax": [(range_setting, "compute_minmax")],
    "quantsim.QuantSimModel.evaluate_all": [(quantsim.QuantSimModel, "evaluate_all")],
    "quantsim.QuantSimModel.quantized_weights": [(quantsim.QuantSimModel, "quantized_weights")],
    "quantsim.QuantSimModel.clone": [(quantsim.QuantSimModel, "clone")],
    "quantsim.compute_encodings": [
        (quantsim, "compute_encodings"),
        (cli, "compute_encodings"),
        (qat, "compute_encodings"),
        (ptq, "compute_encodings"),
    ],
    "quantsim.export": [(quantsim, "export"), (cli, "export")],
    "quantsim.import_encodings": [
        (quantsim, "import_encodings"),
        (cli, "import_encodings"),
        (ptq, "import_encodings"),
    ],
    "ptq.equalize_model": [(ptq, "equalize_model"), (cli, "equalize_model")],
    "ptq.adaround": [(ptq, "adaround"), (cli, "adaround")],
    "ptq.bias_correct": [(ptq, "bias_correct"), (cli, "bias_correct")],
    "qat.forward_with_tape": [(qat, "forward_with_tape")],
    "qat.backward": [(qat, "backward")],
    "qat.conv2d_backward": [(qat, "conv2d_backward")],
    "amp.sensitivity_analysis": [(amp, "sensitivity_analysis")],
    "amp.build_pareto": [(amp, "build_pareto")],
    "datasets.save_dataset": [(datasets, "save_dataset")],
    "datasets.load_dataset": [(datasets, "load_dataset"), (cli, "load_dataset")],
    "datasets.evaluate": [(datasets, "evaluate"), (cli, "evaluate")],
    "cli.main": [(cli, "main")],
}

# Counters read at the layer boundary, beyond calls and self time.
EXTRA_STATS = {
    "tensor_core.conv2d.gmac": "GMAC",
    "quantizer.qdq.elements": "count",
    "range_setting.RangeAccumulator.observe.range_grows": "count",
    "quantsim.QuantSimModel.quantized_weights.repeat_ratio": "ratio",
    "ptq.bias_correct.sim_passes": "count",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_STATS)
    return units


class Tracer:
    """Records spans while installed; aggregates them per layer afterwards."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._last_weights: dict[str, list] = {}
        # boundary counters; they run outside the span's own interval
        self._before = {
            "quantizer.qdq": self._count_elements,
            "range_setting.RangeAccumulator.observe": self._observed_range,
            "quantsim.QuantSimModel.quantized_weights": self._count_repeat,
        }
        self._after = {
            "tensor_core.conv2d": self._count_macs,
            "range_setting.RangeAccumulator.observe": self._count_growth,
        }

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, sites in TRACED.items():
            original = sites[0][0].__dict__[sites[0][1]]
            wrapper = self._wrap(name, original)
            for owner, attr in sites:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function {name}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def start_run(self, run: int) -> None:
        self.run = run
        self._last_weights.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = self._before.get(name), self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(result, state, *args, **kwargs)
            return result

        return traced

    # -- boundary counters ------------------------------------------------

    def _count_macs(self, out, state, x, weight, *args, **kwargs):
        w = np.shape(weight)
        self.counters["tensor_core.conv2d.gmac"] += out.size * w[1] * w[2] * w[3] / 1e9

    def _count_elements(self, x, *args, **kwargs):
        self.counters["quantizer.qdq.elements"] += np.size(x)

    def _observed_range(self, acc, *args, **kwargs):
        try:
            return acc.channel_stats()
        except CalibrationError:
            return None  # first observation: nothing to widen yet

    def _count_growth(self, result, before, acc, *args, **kwargs):
        after = acc.channel_stats()
        if before is not None and any(
            mn < mn0 or mx > mx0 for (mn0, mx0, _), (mn, mx, _) in zip(before, after)
        ):
            self.counters["range_setting.RangeAccumulator.observe.range_grows"] += 1

    def _count_repeat(self, sim, node, *args, **kwargs):
        """Did this node's weights and encodings stay unchanged since its last call?"""
        snapshot = []
        for name in sorted(node.weights):
            spec = sim.param_quantizer(node.id, name)
            grid = None if spec is None else (
                spec.enabled, spec.bitwidth, spec.channel_axis, tuple(spec.encodings or ())
            )
            snapshot.append((node.weights[name].copy(), grid))
        prev = self._last_weights.get(node.id)
        if prev is not None and all(
            np.array_equal(a, b) and ga == gb for (a, ga), (b, gb) in zip(prev, snapshot)
        ):
            self.counters["quantsim.QuantSimModel.quantized_weights.repeats"] += 1
        self._last_weights[node.id] = snapshot

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every recorded span, by span index."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_totals(self) -> dict[str, float]:
        """Per-layer calls, self time and boundary counters, summed over all runs."""
        out = {m: 0.0 for m in layer_metric_units()}
        for span, self_s in zip(self.spans, self.self_times()):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_s"] += self_s
        for key in ("tensor_core.conv2d.gmac", "quantizer.qdq.elements",
                    "range_setting.RangeAccumulator.observe.range_grows"):
            out[key] = self.counters[key]
        calls = out["quantsim.QuantSimModel.quantized_weights.calls"]
        repeats = self.counters["quantsim.QuantSimModel.quantized_weights.repeats"]
        out["quantsim.QuantSimModel.quantized_weights.repeat_ratio"] = repeats / calls if calls else 0.0
        out["ptq.bias_correct.sim_passes"] = self._count_within(
            "quantsim.QuantSimModel.evaluate_all", "ptq.bias_correct"
        )
        return out

    def _count_within(self, name: str, ancestor: str) -> int:
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def run_self_time(self) -> dict[int, float]:
        """Total self time of all spans per run (the attributed part of its wall time)."""
        out: dict[int, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            out[span[4]] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
