"""The four benchmark workloads: inputs made from a seed, one timed repetition each.

Every workload is a closed loop with one caller: ``setup`` builds the
model and data, and ``run`` performs one repetition of the workflow on
them. A repetition records the start and end of each timed stage, the
rates derived from them, plain values such as fidelity, and every failed
output check. It never mutates the set-up state, so any number of
repetitions can run back to back. Model weights come from the ``toys``
constructors at their default seed; ``--seed`` draws the data.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fixquant import amp, cli, datasets, graph_ir, ptq, qat, quantsim, toys
from fixquant.datasets import Dataset
from fixquant.quantizer import round_half_away
from fixquant.range_setting import RangeScheme
from fixquant.tensor_core import f32
from reference import Timeline

T = time.perf_counter

# Throughput of the final simulation is always measured at this batch size.
INFER_BATCH = 32


@dataclass
class Rep:
    """Measurements of one repetition.

    ``intervals`` maps a timing to its (start, end) stamps, ``rates`` maps a
    rate to (count, names of the intervals it is counted over), ``steps``
    holds (start, end) of every QAT step, ``values`` everything else.
    Timings are read through ``clock``, at nominal machine speed by default.
    """

    clock: Timeline
    values: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @contextlib.contextmanager
    def timed(self, name: str):
        self.clock.mark()
        start = T()
        try:
            yield
        finally:
            self.intervals[name] = (start, T())
            self.clock.mark()

    def value(self, name: str, nominal: bool = True) -> float:
        if name in self.intervals:
            return self.clock.seconds(*self.intervals[name], nominal=nominal)
        if name in self.rates:
            count, over = self.rates[name]
            return count / sum(self.clock.seconds(*self.intervals[i], nominal=nominal) for i in over)
        return self.values[name]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Workload:
    name: str
    why: str
    sizes: dict
    setup: Callable[[int, dict], dict]
    run: Callable[[dict, Rep, Path], None]
    # workflow metrics this workload reports besides the shared set: name -> unit
    detail: dict


def sqnr_db(reference: np.ndarray, output: np.ndarray) -> float:
    noise = float(np.sum((output - reference) ** 2))
    return 10.0 * math.log10(float(np.sum(reference**2)) / max(noise, 1e-300))


def timed_inference(rep: Rep, sim, batches) -> None:
    """Quantized forward passes over the batches, as ``sim_infer_samples_per_s``."""
    with rep.timed("infer"):
        for b in batches:
            sim.forward(b)
    rep.rates["sim_infer_samples_per_s"] = (sum(len(b) for b in batches), ("infer",))


def _batches(x: np.ndarray, size: int = INFER_BATCH) -> list:
    return [x[i : i + size] for i in range(0, len(x), size)]


def _finish(rep: Rep, sim, ctx: dict) -> None:
    """Throughput and fidelity of the workflow's final simulation."""
    timed_inference(rep, sim, ctx["infer"])
    rep.values["output_sqnr_db"] = sqnr_db(ctx["reference"], sim.forward(ctx["held_out"]))


# ---------------------------------------------------------------------------
# ptq_conv: fold, equalize, adaround, calibrate (sqnr), bias-correct, export


def setup_ptq(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    c, hw = size["channels"], size["hw"]
    model = toys.conv_bn_relu_conv(c_in=3, c_mid=c, c_out=c)
    # each batch is wider than the last, so every histogram re-bins
    feed = [
        rng.normal(0.0, 1.0 + 0.5 * i, size=(size["batch"], 3, hw, hw))
        for i in range(size["batches"])
    ]
    held_out = rng.normal(size=(size["eval_samples"], 3, hw, hw))
    return {
        "seed": seed,
        "size": size,
        "model": model,
        "feed": feed,
        "held_out": held_out,
        "infer": _batches(held_out),
        "reference": model.forward(held_out),
    }


def _weights_on_frozen_grid(sim) -> bool:
    """Every quantized weight is frozen and equals the float32 image of a grid point."""
    for key, spec in sim.param_quantizers.items():
        nid, pname = key.rsplit(".", 1)
        if pname != "weight":
            continue
        if not spec.frozen:
            return False
        w = sim.graph.nodes[nid].weights[pname]
        shape = [-1] + [1] * (w.ndim - 1) if spec.per_channel else [1] * w.ndim
        s, zp, lo, hi = (
            np.array([getattr(e, a) for e in spec.encodings], dtype=np.float64).reshape(shape)
            for a in ("scale", "zero_point", "q_lo", "q_hi")
        )
        k = round_half_away(w / s) + zp
        if not (np.all((k >= lo) & (k <= hi)) and np.array_equal(f32(s * (k - zp)), w)):
            return False
    return True


def run_ptq(ctx: dict, rep: Rep, tmp: Path) -> None:
    size, feed = ctx["size"], ctx["feed"]
    scheme = RangeScheme(kind="sqnr")
    with rep.timed("ptq_s"):
        folded = ptq.fold_batch_norms(ctx["model"])
        equalized, _ = ptq.equalize_model(folded)
        with rep.timed("adaround"):
            rounded, _ = ptq.adaround(
                equalized,
                feed,
                params=ptq.AdaRoundParams(num_iterations=size["iterations"]),
                param_bw=4,
                scheme=RangeScheme(kind="sqnr", per_channel=True),
                seed=ctx["seed"],
                encodings_path=tmp / "adaround.encodings.json",
            )
        sim = quantsim.create_quantsim(rounded, default_param_bw=4, default_output_bw=8, scheme=scheme)
        with rep.timed("calib_s"):
            quantsim.compute_encodings(sim, feed)
        # after calibration: importing the weight-only adaround file first
        # would disable every activation quantizer it does not name
        quantsim.import_encodings(sim, tmp / "adaround.encodings.json", freeze=True)
        with rep.timed("bias_correct_s"):
            ptq.bias_correct(sim, mode="empirical", feed=feed)
        paths = quantsim.export(sim, tmp / "ptq")
        reloaded = quantsim.create_quantsim(
            graph_ir.load_model(tmp / "ptq"), default_param_bw=4, default_output_bw=8, scheme=scheme
        )
        quantsim.import_encodings(reloaded, paths["encodings"])
    rep.intervals["workflow_s"] = rep.intervals["ptq_s"]
    n_layers = sum(n.kind in graph_ir.MAC_KINDS for n in rounded.nodes.values())
    rep.rates["adaround_iters_per_s"] = (n_layers * size["iterations"], ("adaround",))

    x = ctx["held_out"]
    out = sim.forward(x)
    rep.check(np.array_equal(reloaded.forward(x), out), "exported trio does not reproduce sim.forward")
    plain = sim.clone()
    for spec in plain.all_quantizers().values():
        spec.enabled = False
    rep.check(
        np.array_equal(plain.forward(x), sim.graph.forward(x)),
        "sim with every quantizer disabled differs from the float model",
    )
    rep.check(_weights_on_frozen_grid(sim), "adaround weights are off their frozen grid")
    _finish(rep, sim, ctx)


# ---------------------------------------------------------------------------
# qat_conv: W4/A8 min-max QAT fitted to the float model's outputs


def setup_qat(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    c, hw = size["channels"], size["hw"]
    model = ptq.fold_batch_norms(toys.conv_bn_relu_conv(c_in=3, c_mid=c, c_out=c))
    x = rng.normal(size=(size["train_samples"], 3, hw, hw))
    held_out = rng.normal(size=(size["eval_samples"], 3, hw, hw))
    return {
        "seed": seed,
        "size": size,
        "model": model,
        "x": x,
        "y": model.forward(x),
        "held_out": held_out,
        "infer": _batches(held_out),
        "reference": model.forward(held_out),
    }


def run_qat(ctx: dict, rep: Rep, tmp: Path) -> None:
    size, x = ctx["size"], ctx["x"]
    stamps = []

    def timed_mse(y, target):
        # called once per training step, so consecutive calls are one step apart
        rep.clock.mark()
        stamps.append(T())
        return qat.mse_loss(y, target)

    with rep.timed("workflow_s"):
        sim = quantsim.create_quantsim(ctx["model"], default_param_bw=4, default_output_bw=8)
        with rep.timed("calib_s"):
            quantsim.compute_encodings(sim, [x])
        with rep.timed("train"):
            log = qat.qat_train(
                sim,
                x,
                ctx["y"],
                loss_fn=timed_mse,
                options=qat.QatOptions(epochs=size["epochs"], batch_size=size["batch"]),
                seed=ctx["seed"],
            )

    rep.check(
        len(log) == size["epochs"] and all(math.isfinite(e["loss"]) for e in log),
        "a QAT epoch loss is not finite",
    )
    rep.rates["qat_samples_per_s"] = (size["epochs"] * len(x), ("train",))
    rep.values["qat_final_loss"] = log[-1]["loss"]
    rep.steps = list(zip(stamps, stamps[1:]))
    _finish(rep, sim, ctx)


# ---------------------------------------------------------------------------
# amp_search: read-heavy mixed-precision search, then the same search resumed

AMP_CANDIDATES = [(16, 16), (16, 8), (8, 16), (8, 8), (8, 4), (4, 8)]


def setup_amp(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    hw, b = size["hw"], size["batch"]
    model = toys.depthwise_net(channels=size["channels"])
    held_out = rng.normal(size=(b, 3, hw, hw))
    values = model.evaluate_all(held_out[:1])
    return {
        "seed": seed,
        "size": size,
        "model": model,
        # each batch is narrower than the first, so no histogram re-bins: this
        # workload bypasses the rebinning that ptq_conv exercises
        "calib": [
            rng.normal(0.0, 1.0 - 0.2 * i, size=(b, 3, hw, hw)) for i in range(size["calib_batches"])
        ],
        "infer": [rng.normal(size=(b, 3, hw, hw)) for _ in range(size["infer_batches"])],
        "held_out": held_out,
        "reference": model.forward(held_out),
        # output H x W of every MAC layer, for MAC counts from layer shapes
        "spatial": {
            nid: int(np.prod(values[nid].shape[2:]))
            for nid, n in model.nodes.items()
            if n.kind in graph_ir.MAC_KINDS
        },
    }


def relative_bit_ops(sim, spatial: dict) -> float:
    """Sum of MACs x b_a x b_w over the groups, relative to all groups at 16x16.

    MACs are weight elements times output H x W, counted here rather than
    taken from ``amp.bit_ops``.
    """
    cost = full = 0
    for g in amp.find_layer_groups(sim):
        macs = sum(
            sim.graph.nodes[nid].weights["weight"].size * spatial[nid]
            for nid in g.node_ids
            if nid in spatial
        )
        b_a = sim.activation_quantizers[g.activation_keys[0]].bitwidth if g.activation_keys else 32
        b_w = sim.param_quantizers[g.param_keys[0]].bitwidth if g.param_keys else 32
        cost += macs * b_a * b_w
        full += macs * 16 * 16
    return cost / full


def run_amp(ctx: dict, rep: Rep, tmp: Path) -> None:
    size, x, ref = ctx["size"], ctx["held_out"], ctx["reference"]
    drop = size["allowed_drop"]
    evals = [0]

    def neg_mse(sim) -> float:
        return -float(np.mean((sim.forward(x) - ref) ** 2))

    def score(sim) -> float:
        evals[0] += 1
        rep.clock.mark()
        return neg_mse(sim)

    with rep.timed("workflow_s"):
        sim = quantsim.create_quantsim(ctx["model"], default_param_bw=16, default_output_bw=16)
        with rep.timed("calib_s"):
            quantsim.compute_encodings(sim, ctx["calib"])
        timed_inference(rep, sim, ctx["infer"])
        baseline = neg_mse(sim)
        resume_sim = sim.clone()
        with rep.timed("search"):
            sim, entries = amp.choose_mixed_precision(
                sim, AMP_CANDIDATES, score, score, drop, results_dir=tmp, clean_start=True
            )
        rep.values["amp.evals"], evals[0] = evals[0], 0
        with rep.timed("resume"):
            _, resumed = amp.choose_mixed_precision(
                resume_sim, AMP_CANDIDATES, score, score, drop, results_dir=tmp, clean_start=False
            )
        rep.values["amp.resume_evals"] = evals[0]

    rep.check(resumed == entries, "resumed search returned other pareto entries")
    rep.check(neg_mse(sim) >= baseline - drop, "final score is outside the allowed drop")
    rep.rates["amp_evals_per_s"] = (
        rep.values["amp.evals"] + rep.values["amp.resume_evals"],
        ("search", "resume"),
    )
    rel = relative_bit_ops(sim, ctx["spatial"])
    rep.values["relative_bit_ops"] = rel
    reported = entries[-1].relative_bit_ops if entries else 1.0
    rep.values["amp.bit_ops_reported_ratio"] = reported / rel
    rep.values["output_sqnr_db"] = sqnr_db(ref, sim.forward(x))


# ---------------------------------------------------------------------------
# cli_roundtrip: in-process `fixquant` subcommands over files on disk


def setup_cli(seed: int, size: dict) -> dict:
    model = toys.mlp(size["layers"])
    # at most 256 samples: one calibration batch, so no histogram re-bins
    spiral = toys.spiral_dataset(n_per_class=size["per_class"], seed=seed)
    # float32 values, so the dataset file round-trips exactly
    ds = Dataset(f32(spiral.x), spiral.y, metric=spiral.metric)
    return {
        "seed": seed,
        "size": size,
        "model": model,
        "ds": ds,
        "held_out": ds.x,
        "infer": _batches(ds.x),
        "reference": model.forward(ds.x),
    }


def _cli(argv: list, out: io.StringIO) -> int:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return cli.main([str(a) for a in argv])


def run_cli(ctx: dict, rep: Rep, tmp: Path) -> None:
    ds = ctx["ds"]
    m, d = tmp / "mlp", tmp / "spiral"
    enc = tmp / "cal" / "encodings.json"
    log, eval_out = io.StringIO(), io.StringIO()
    with rep.timed("cli_roundtrip_s"):
        graph_ir.save_model(ctx["model"], m)
        datasets.save_dataset(ds, d)
        codes = [_cli(["quantsim", "--model", m, "--data", d, "--out", tmp / "quantsim"], log)]
        with rep.timed("calib_s"):
            codes.append(_cli(["calibrate", "--model", m, "--data", d, "--out", tmp / "cal"], log))
        codes.append(_cli(["eval", "--model", m, "--data", d, "--encodings", enc], eval_out))
        for out in ("export1", "export2"):
            codes.append(_cli(["export", "--model", m, "--encodings", enc, "--out", tmp / out], log))
    rep.intervals["workflow_s"] = rep.intervals["cli_roundtrip_s"]

    rep.check(all(c == 0 for c in codes), f"cli exit codes {codes}: {log.getvalue()[-300:]}")
    sim = quantsim.create_quantsim(ctx["model"], default_param_bw=8, default_output_bw=8)
    quantsim.import_encodings(sim, enc, freeze=True)
    score = f"metric {ds.metric} {datasets.evaluate(sim, ds):.6f}"
    rep.check(score in eval_out.getvalue().splitlines(), "eval --encodings disagrees with the in-process sim")
    rep.check(
        all(
            (tmp / "export1" / f"exported{s}").read_bytes() == (tmp / "export2" / f"exported{s}").read_bytes()
            for s in (".model.json", ".weights.bin", ".encodings.json")
        ),
        "two exports of the same inputs differ",
    )
    _finish(rep, sim, ctx)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "ptq_conv",
            "the post-training recipe: conv2d and its backward in adaround, the sqnr search and "
            "histogram rebinning, per-layer full-graph sweeps; almost no repeated sim inference",
            {
                "full": dict(channels=16, hw=16, batch=8, batches=4, iterations=30, eval_samples=64),
                "smoke": dict(channels=4, hw=6, batch=2, batches=2, iterations=2, eval_samples=4),
            },
            setup_ptq,
            run_ptq,
            {"adaround_iters_per_s": "1/s", "bias_correct_s": "s", "ptq_s": "s"},
        ),
        Workload(
            "qat_conv",
            "write-heavy: every QAT step reads then rewrites every weight, so a qdq-weight cache "
            "gains nothing; tape forward/backward, conv2d, qdq and ste_mask, no range search",
            {
                "full": dict(channels=16, hw=16, batch=16, train_samples=128, epochs=2, eval_samples=128),
                "smoke": dict(channels=4, hw=6, batch=4, train_samples=8, epochs=2, eval_samples=4),
            },
            setup_qat,
            run_qat,
            {
                "qat_samples_per_s": "1/s",
                "qat_step_ms_p50": "ms",
                "qat_step_ms_p90": "ms",
                "qat_step_count": "count",
                "qat_final_loss": "mse",
            },
        ),
        Workload(
            "amp_search",
            "read-heavy: hundreds of sim forwards over unchanged weights (evaluate_all, weight qdq, "
            "dispatch, clone, min-max re-derivation); the resume run reads the JSON caches",
            {
                "full": dict(
                    channels=16, hw=16, batch=32, calib_batches=4, infer_batches=4, allowed_drop=1e-3
                ),
                "smoke": dict(
                    channels=4, hw=6, batch=4, calib_batches=2, infer_batches=1, allowed_drop=1e-3
                ),
            },
            setup_amp,
            run_amp,
            {"amp_evals_per_s": "1/s", "relative_bit_ops": "ratio"},
        ),
        Workload(
            "cli_roundtrip",
            "the only workload where the cli, dataset and model file IO and the encodings JSON do "
            "most of the work: quantsim, calibrate, eval --encodings, export twice",
            {
                "full": dict(layers=[2, 64, 64, 2], per_class=128),
                "smoke": dict(layers=[2, 8, 2], per_class=16),
            },
            setup_cli,
            run_cli,
            {"cli_roundtrip_s": "s"},
        ),
    ]
}
