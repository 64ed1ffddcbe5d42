"""Command-line front end.

``main`` reads every subcommand's inputs in one place: it loads --model,
then --data if the subcommand has it, then creates --out if it has it, and
hands all three to the command function. Each command writes its outputs
under --out and prints a short summary to stdout. Outputs are
deterministic: no timestamps, sorted JSON keys, fixed CSV column orders.
Failures exit with a one-line ``error:<category>: message`` on stderr and a
category exit code: 2 usage, 3 data (any unreadable or unwritable path
included), 4 numeric.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .amp import CandidatePair, choose_mixed_precision
from .datasets import Dataset, evaluate, iter_batches, load_dataset, metric_score
from .debug import run_debug
from .errors import FixquantError, NumericError
from .graph_ir import load_model, save_model, write_csv, write_json
from .ptq import (
    AdaRoundParams,
    adaround,
    bias_correct,
    equalize_model,
    fold_batch_norms_detailed,
)
from .qat import QatOptions, mse_loss, qat_train, softmax_cross_entropy
from .quantsim import (
    SimConfig,
    compute_encodings,
    create_quantsim,
    encodings_to_dict,
    export,
    import_encodings,
)
from .range_setting import RangeScheme

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one line; subparsers inherit this
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fixquant", description="fixed-point inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, data=True, out=True, sim=True):
        """A subcommand with the inputs main reads for it and, with ``sim``, the sim options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, data=None, out=None)
        p.add_argument("--model", required=True, help="model file prefix (expects PREFIX.model.json + PREFIX.weights.bin)")
        if data:
            p.add_argument("--data", required=True, help="dataset file prefix (expects PREFIX.data.json + PREFIX.data.bin)")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        if sim:
            p.add_argument("--param-bw", type=int, default=8, help="weight bitwidth (default 8)")
            p.add_argument("--output-bw", type=int, default=8, help="activation bitwidth (default 8)")
            p.add_argument("--scheme", choices=["min_max", "sqnr"], default="min_max", help="range setting scheme")
            p.add_argument("--per-channel", action="store_true", help="per-channel weight grids")
            p.add_argument("--config", default=None, help="quantizer placement config JSON")
        return p

    command("quantsim", cmd_quantsim, "build, calibrate, and export a quantized simulation")
    command("fold-bn", cmd_fold_bn, "fold batch norms into preceding layers", data=False, sim=False)
    command("equalize", cmd_equalize, "cross-layer equalization (fold, scale, absorb)", data=False, sim=False)
    command("calibrate", cmd_calibrate, "compute encodings from data and write encodings JSON")

    p = command("eval", cmd_eval, "evaluate a model (float, or quantized with --encodings)", out=False)
    p.add_argument("--encodings", default=None, help="encodings JSON to import before evaluating")

    p = command("adaround", cmd_adaround, "optimize weight rounding against layer outputs")
    p.add_argument("--seed", type=int, required=True, help="rng seed (required, results are stochastic)")
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--reg", type=float, default=0.01, help="rounding regularizer weight")
    p.add_argument("--batches", type=int, default=None, help="calibration batches to use (default all)")

    p = command("bias-correct", cmd_bias_correct, "correct biases for quantization-induced mean shift")
    p.add_argument("--mode", choices=["empirical", "analytic"], default="empirical")

    p = command("qat", cmd_qat, "fine-tune weights through the quantized forward pass")
    p.add_argument("--seed", type=int, required=True, help="rng seed (required, shuffling is stochastic)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--refresh-ranges", action="store_true", help="recompute ranges after each epoch")

    p = command("amp", cmd_amp, "mixed-precision search over layer groups")
    p.add_argument(
        "--candidates",
        type=_parse_candidates,
        default="16,16;16,8;8,16",
        help="semicolon-separated act,param bitwidth pairs (default '16,16;16,8;8,16')",
    )
    p.add_argument("--allowed-drop", type=float, default=0.5, help="allowed score drop from baseline")
    p.add_argument("--resume", action="store_true", help="reuse caches in --out (default wipes them)")
    p.add_argument("--phase1-samples", type=int, default=256, help="samples for the fast phase-1 eval")

    p = command("export", cmd_export, "re-emit model + encodings as canonical artifact files", data=False)
    p.add_argument("--encodings", required=True, help="encodings JSON to import (frozen)")

    p = command("visualize", cmd_visualize, "emit plot data CSVs", data=False, sim=False)
    p.add_argument("--what", choices=["ranges"], default="ranges")

    p = command("debug", cmd_debug, "staged diagnosis of quantization accuracy loss", sim=False)
    p.add_argument("--target-bw", type=int, default=8)
    p.add_argument("--scheme", choices=["min_max", "sqnr"], default="min_max")
    p.add_argument("--per-channel", action="store_true")
    p.add_argument("--config", default=None)

    return parser


def _scheme(args) -> RangeScheme:
    return RangeScheme(kind=args.scheme, per_channel=args.per_channel)


def _config(args):
    return SimConfig.from_file(args.config) if args.config else None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_sim(args, model, ds=None):
    sim = create_quantsim(
        model,
        default_param_bw=args.param_bw,
        default_output_bw=args.output_bw,
        scheme=_scheme(args),
        config=_config(args),
    )
    if ds is not None:
        compute_encodings(sim, iter_batches(ds.x))
    return sim


def cmd_quantsim(args, model, ds, out) -> None:
    sim = _build_sim(args, model, ds)
    value = evaluate(sim, ds)  # a model that does not fit the dataset fails before any write
    export(sim, out / "quantsim")
    print(f"wrote {out}/quantsim.model.json, .weights.bin, .encodings.json")
    print(f"metric {ds.metric} {value:.6f}")


def cmd_fold_bn(args, model, ds, out) -> None:
    folded, report = fold_batch_norms_detailed(model)
    save_model(folded, out / "folded")
    print(f"folded {len(report['folded'])} batchnorm(s), skipped {len(report['skipped'])}")
    print(f"wrote {out}/folded.model.json, .weights.bin")


def cmd_equalize(args, model, ds, out) -> None:
    equalized, report = equalize_model(model)
    save_model(equalized, out / "equalized")
    write_json(out / "equalize_report.json", dataclasses.asdict(report))
    print(f"equalized {len(report.pairs)} layer pair(s), absorbed bias on {len(report.absorbed)}")
    print(f"wrote {out}/equalized.model.json, .weights.bin, equalize_report.json")


def cmd_calibrate(args, model, ds, out) -> None:
    sim = _build_sim(args, model, ds)
    write_json(out / "encodings.json", encodings_to_dict(sim.activation_quantizers, sim.param_quantizers))
    print(f"wrote {out}/encodings.json")


def cmd_eval(args, model, ds, out) -> None:
    if args.encodings:
        sim = _build_sim(args, model)
        import_encodings(sim, args.encodings, freeze=True)
        value = evaluate(sim, ds)
    else:
        value = evaluate(model, ds)
    print(f"metric {ds.metric} {value:.6f}")


def cmd_adaround(args, model, ds, out) -> None:
    params = AdaRoundParams(
        num_batches=args.batches, num_iterations=args.iterations, reg_param=args.reg
    )
    rounded, _ = adaround(
        model,
        iter_batches(ds.x),
        params=params,
        param_bw=args.param_bw,
        scheme=_scheme(args),
        seed=args.seed,
        encodings_path=out / "adaround.encodings.json",
    )
    save_model(rounded, out / "adaround")
    print(f"wrote {out}/adaround.model.json, .weights.bin, .encodings.json")


def cmd_bias_correct(args, model, ds, out) -> None:
    sim = _build_sim(args, model, ds)
    mode = "empirical" if args.mode == "empirical" else "analytic_then_empirical"
    bias_correct(sim, mode=mode, feed=iter_batches(ds.x))
    export(sim, out / "bias_corrected")
    print(f"wrote {out}/bias_corrected.model.json, .weights.bin, .encodings.json")


def cmd_qat(args, model, ds, out) -> None:
    sim = _build_sim(args, model, ds)
    loss_fn = softmax_cross_entropy if ds.metric == "accuracy" else mse_loss
    options = QatOptions(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        refresh_ranges=args.refresh_ranges,
        log_path=str(out / "qat_log.csv"),
    )
    qat_train(sim, ds.x, ds.y, loss_fn=loss_fn, options=options, seed=args.seed)
    export(sim, out / "qat")
    value = evaluate(sim, ds)
    print(f"wrote {out}/qat.model.json, .weights.bin, .encodings.json, qat_log.csv")
    print(f"metric {ds.metric} {value:.6f}")


def _parse_candidates(text: str) -> list[CandidatePair]:
    """argparse type of --candidates: 'act,param;act,param;...'. Malformed
    text is a usage error; an out-of-range bitwidth raises CandidatePair's
    EncodingError, a data error, while parsing and so before any file is
    read or created."""
    pairs = []
    for part in filter(None, (s.strip() for s in text.split(";"))):
        try:
            act_bw, param_bw = (int(v) for v in part.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not an act,param bitwidth pair") from None
        pairs.append(CandidatePair(act_bw, param_bw))
    return pairs


def cmd_amp(args, model, ds, out) -> None:
    sim = _build_sim(args, model, ds)
    n1 = min(args.phase1_samples, len(ds))
    ds1 = Dataset(ds.x[:n1], ds.y[:n1], metric=ds.metric)

    def eval_phase1(s):
        return metric_score(evaluate(s, ds1), ds.metric)

    def eval_phase2(s):
        return metric_score(evaluate(s, ds), ds.metric)

    sim, entries = choose_mixed_precision(
        sim,
        args.candidates,
        eval_phase1,
        eval_phase2,
        allowed_accuracy_drop=args.allowed_drop,
        results_dir=out,
        clean_start=not args.resume,
    )
    export(sim, out / "amp")
    print(f"pareto entries: {len(entries)}")
    for i, e in enumerate(entries):
        print(
            f"  {i}: {e.group_id} -> a{e.candidate.activation_bw}/w{e.candidate.param_bw} "
            f"rel_bit_ops {e.relative_bit_ops:.4f} score {e.accuracy:.6f}"
        )
    print(f"wrote {out}/accuracy_list.json, pareto_list.json, sensitivity.csv, pareto.csv")


def cmd_export(args, model, ds, out) -> None:
    sim = _build_sim(args, model)
    import_encodings(sim, args.encodings, freeze=True)
    export(sim, out / "exported")
    print(f"wrote {out}/exported.model.json, .weights.bin, .encodings.json")


def cmd_visualize(args, model, ds, out) -> None:
    path = out / "weight_ranges.csv"
    rows = []
    for nid in model.topo_order():
        w = model.nodes[nid].weights.get("weight")
        if w is not None:
            flat = w.reshape(w.shape[0], -1)
            rows += [[nid, ch, float(flat[ch].min()), float(flat[ch].max())] for ch in range(flat.shape[0])]
    write_csv(path, ["layer", "channel", "min", "max"], rows)
    print(f"wrote {path}")


def cmd_debug(args, model, ds, out) -> None:
    report = run_debug(
        model,
        ds,
        target_bw=args.target_bw,
        scheme=_scheme(args),
        config=_config(args),
        out_dir=out,
    )
    write_json(out / "debug_report.json", dataclasses.asdict(report))
    print(f"fp32 sanity: {'ok' if report.fp32_sanity_ok else 'FAILED'}")
    if not report.stopped_early:
        print(f"fp32 score {report.fp32_score:.6f}  quantized {report.quantized_score:.6f}")
        print(
            f"weights-only {report.weights_only_score:.6f}  "
            f"activations-only {report.activations_only_score:.6f}"
        )
        if report.layer_table:
            worst = report.layer_table[0]
            print(f"most damaging quantizer: {worst['quantizer']} (drop {worst['drop']:.6f})")
    for s in report.suggestions:
        print(f"suggestion: {s}")
    print(f"wrote {out}/debug_report.json, debug_layers.csv")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        model = load_model(args.model)
        ds = None if args.data is None else load_dataset(args.data)
        out = None if args.out is None else _outdir(args)
        args.func(args, model, ds, out)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    except FixquantError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_DATA
    except OSError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
