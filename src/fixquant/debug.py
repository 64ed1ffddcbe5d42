"""Staged diagnosis of quantization accuracy loss.

The flow, each stage narrowing the cause:

1. sanity: with every quantizer disabled the simulation must reproduce
   the float model bit for bit; a mismatch is a pipeline bug and stops
   the analysis,
2. ablation: quantize only weights, then only activations, to see which
   side carries the damage,
3. suggestions keyed on the dominating side,
4. per-layer sweep: enable one quantizer at a time at the target
   bitwidth, everything else disabled, and rank layers by the score drop
   they cause alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .datasets import Dataset, evaluate, iter_batches, metric_score
from .graph_ir import GraphModel, write_csv
from .quantsim import QuantSimModel, SimConfig, compute_encodings, create_quantsim
from .range_setting import RangeScheme

__all__ = ["DebugReport", "run_debug"]

# A quantizer whose lone-enabled score sits within this much of the float
# score is considered harmless.
ROBUST_SCORE_DROP = 0.02


@dataclass
class DebugReport:
    fp32_sanity_ok: bool = False
    fp32_score: float = 0.0
    quantized_score: float = 0.0
    weights_only_score: float = 0.0
    activations_only_score: float = 0.0
    suggestions: list = field(default_factory=list)
    layer_table: list = field(default_factory=list)
    stopped_early: bool = False


def _set_enabled(sim: QuantSimModel, pred) -> None:
    for key, spec in sim.param_quantizers.items():
        spec.enabled = pred("param", key)
    for key, spec in sim.activation_quantizers.items():
        spec.enabled = pred("activation", key)


def run_debug(
    model: GraphModel,
    ds: Dataset,
    target_bw: int = 8,
    scheme: Optional[RangeScheme] = None,
    config: Optional[SimConfig] = None,
    out_dir=None,
    calib_batch_size: int = 256,
) -> DebugReport:
    """Run the full flow; optionally writes the ranked sweep CSV to out_dir."""
    report = DebugReport()
    feed = list(iter_batches(ds.x, calib_batch_size))
    sim = create_quantsim(
        model, default_param_bw=target_bw, default_output_bw=target_bw, scheme=scheme, config=config
    )
    compute_encodings(sim, feed)
    # Calibration fills encodings for everything; remember which quantizers
    # the config actually left on so each stage restores the same state.
    active = {("param", k) for k, s in sim.param_quantizers.items() if s.enabled}
    active |= {("activation", k) for k, s in sim.activation_quantizers.items() if s.enabled}

    report.fp32_score = metric_score(evaluate(model, ds), ds.metric)

    # Stage 1: all quantizers off, outputs must match the float graph exactly.
    _set_enabled(sim, lambda kind, key: False)
    probe = ds.x[: min(len(ds), 64)]
    report.fp32_sanity_ok = bool(np.array_equal(sim.forward(probe), model.forward(probe)))
    if not report.fp32_sanity_ok:
        report.stopped_early = True
        report.suggestions.append(
            "simulation with all quantizers disabled diverges from the float model; "
            "fix the simulation pipeline before interpreting any quantized score"
        )
        _set_enabled(sim, lambda kind, key: (kind, key) in active)
        return report

    # Stage 2: one side at a time.
    _set_enabled(sim, lambda kind, key: (kind, key) in active)
    report.quantized_score = metric_score(evaluate(sim, ds), ds.metric)
    _set_enabled(sim, lambda kind, key: kind == "param" and (kind, key) in active)
    report.weights_only_score = metric_score(evaluate(sim, ds), ds.metric)
    _set_enabled(sim, lambda kind, key: kind == "activation" and (kind, key) in active)
    report.activations_only_score = metric_score(evaluate(sim, ds), ds.metric)

    drop_w = report.fp32_score - report.weights_only_score
    drop_a = report.fp32_score - report.activations_only_score

    # Stage 3: where to aim the global fixes.
    if max(drop_w, drop_a) <= ROBUST_SCORE_DROP:
        report.suggestions.append(
            f"model is robust at {target_bw}-bit; proceed with the current settings"
        )
    else:
        if drop_w >= drop_a:
            report.suggestions.append(
                "weight quantization dominates the loss: try cross-layer equalization, "
                "bias correction, adaround, or per-channel weight grids"
            )
        if drop_a >= drop_w:
            report.suggestions.append(
                "activation quantization dominates the loss: try the sqnr range setting, "
                "a wider activation bitwidth, or quantization-aware fine-tuning"
            )

    # Stage 4: one quantizer on, the rest off (equivalent to 32-bit them).
    keys = [("param", k) for k in sorted(sim.param_quantizers)] + [
        ("activation", k) for k in sorted(sim.activation_quantizers)
    ]
    for kind, key in keys:
        if (kind, key) not in active:
            continue
        _set_enabled(sim, lambda k2, key2: (k2, key2) == (kind, key))
        score = metric_score(evaluate(sim, ds), ds.metric)
        report.layer_table.append(
            {
                "quantizer": key,
                "kind": kind,
                "score": score,
                "drop": report.fp32_score - score,
            }
        )
    report.layer_table.sort(key=lambda row: (-row["drop"], row["quantizer"]))
    _set_enabled(sim, lambda kind, key: (kind, key) in active)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = ["rank", "quantizer", "kind", "score", "drop"]
        rows = [[i, *(row[k] for k in header[1:])] for i, row in enumerate(report.layer_table)]
        write_csv(out_dir / "debug_layers.csv", header, rows)
    return report
