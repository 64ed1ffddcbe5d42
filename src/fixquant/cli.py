"""Command-line front end.

Every subcommand reads model/dataset files, writes its outputs under
--out, and prints a short summary to stdout. Outputs are deterministic:
no timestamps, sorted JSON keys, fixed CSV column orders. Failures exit
with a one-line ``error:<category>: message`` on stderr and a category
exit code: 2 usage, 3 data, 4 numeric.
"""

from __future__ import annotations

import argparse
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


def _add_model_arg(p):
    p.add_argument("--model", required=True, help="model file prefix (expects PREFIX.model.json + PREFIX.weights.bin)")


def _add_data_arg(p):
    p.add_argument("--data", required=True, help="dataset file prefix (expects PREFIX.data.json + PREFIX.data.bin)")


def _add_out_arg(p):
    p.add_argument("--out", required=True, help="output directory")


def _add_sim_args(p):
    p.add_argument("--param-bw", type=int, default=8, help="weight bitwidth (default 8)")
    p.add_argument("--output-bw", type=int, default=8, help="activation bitwidth (default 8)")
    p.add_argument("--scheme", choices=["min_max", "sqnr"], default="min_max", help="range setting scheme")
    p.add_argument("--per-channel", action="store_true", help="per-channel weight grids")
    p.add_argument("--config", default=None, help="quantizer placement config JSON")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one line; subparsers inherit this
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fixquant", description="fixed-point inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantsim", help="build, calibrate, and export a quantized simulation")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.set_defaults(func=cmd_quantsim)

    p = sub.add_parser("fold-bn", help="fold batch norms into preceding layers")
    _add_model_arg(p), _add_out_arg(p)
    p.set_defaults(func=cmd_fold_bn)

    p = sub.add_parser("equalize", help="cross-layer equalization (fold, scale, absorb)")
    _add_model_arg(p), _add_out_arg(p)
    p.set_defaults(func=cmd_equalize)

    p = sub.add_parser("calibrate", help="compute encodings from data and write encodings JSON")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval", help="evaluate a model (float, or quantized with --encodings)")
    _add_model_arg(p), _add_data_arg(p), _add_sim_args(p)
    p.add_argument("--encodings", default=None, help="encodings JSON to import before evaluating")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("adaround", help="optimize weight rounding against layer outputs")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.add_argument("--seed", type=int, required=True, help="rng seed (required, results are stochastic)")
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--reg", type=float, default=0.01, help="rounding regularizer weight")
    p.add_argument("--batches", type=int, default=None, help="calibration batches to use (default all)")
    p.set_defaults(func=cmd_adaround)

    p = sub.add_parser("bias-correct", help="correct biases for quantization-induced mean shift")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.add_argument("--mode", choices=["empirical", "analytic"], default="empirical")
    p.set_defaults(func=cmd_bias_correct)

    p = sub.add_parser("qat", help="fine-tune weights through the quantized forward pass")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.add_argument("--seed", type=int, required=True, help="rng seed (required, shuffling is stochastic)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--refresh-ranges", action="store_true", help="recompute ranges after each epoch")
    p.set_defaults(func=cmd_qat)

    p = sub.add_parser("amp", help="mixed-precision search over layer groups")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.add_argument(
        "--candidates",
        type=_parse_candidates,
        default="16,16;16,8;8,16",
        help="semicolon-separated act,param bitwidth pairs (default '16,16;16,8;8,16')",
    )
    p.add_argument("--allowed-drop", type=float, default=0.5, help="allowed score drop from baseline")
    p.add_argument("--resume", action="store_true", help="reuse caches in --out (default wipes them)")
    p.add_argument("--phase1-samples", type=int, default=256, help="samples for the fast phase-1 eval")
    p.set_defaults(func=cmd_amp)

    p = sub.add_parser("export", help="re-emit model + encodings as canonical artifact files")
    _add_model_arg(p), _add_out_arg(p), _add_sim_args(p)
    p.add_argument("--encodings", required=True, help="encodings JSON to import (frozen)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("visualize", help="emit plot data CSVs")
    _add_model_arg(p), _add_out_arg(p)
    p.add_argument("--what", choices=["ranges"], default="ranges")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("debug", help="staged diagnosis of quantization accuracy loss")
    _add_model_arg(p), _add_data_arg(p), _add_out_arg(p)
    p.add_argument("--target-bw", type=int, default=8)
    p.add_argument("--scheme", choices=["min_max", "sqnr"], default="min_max")
    p.add_argument("--per-channel", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_debug)

    return parser


def _scheme(args) -> RangeScheme:
    return RangeScheme(kind=args.scheme, per_channel=getattr(args, "per_channel", False))


def _config(args):
    return SimConfig.from_file(args.config) if getattr(args, "config", None) else None


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


def cmd_quantsim(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
    sim = _build_sim(args, model, ds)
    value = evaluate(sim, ds)  # a model that does not fit the dataset fails before any write
    export(sim, out / "quantsim")
    print(f"wrote {out}/quantsim.model.json, .weights.bin, .encodings.json")
    print(f"metric {ds.metric} {value:.6f}")
    return EXIT_OK


def cmd_fold_bn(args) -> int:
    model = load_model(args.model)
    out = _outdir(args)
    folded, report = fold_batch_norms_detailed(model)
    save_model(folded, out / "folded")
    print(f"folded {len(report['folded'])} batchnorm(s), skipped {len(report['skipped'])}")
    print(f"wrote {out}/folded.model.json, .weights.bin")
    return EXIT_OK


def cmd_equalize(args) -> int:
    model = load_model(args.model)
    out = _outdir(args)
    equalized, report = equalize_model(model)
    save_model(equalized, out / "equalized")
    write_json(out / "equalize_report.json", report.to_dict())
    print(f"equalized {len(report.pairs)} layer pair(s), absorbed bias on {len(report.absorbed)}")
    print(f"wrote {out}/equalized.model.json, .weights.bin, equalize_report.json")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
    sim = _build_sim(args, model, ds)
    write_json(out / "encodings.json", encodings_to_dict(sim.activation_quantizers, sim.param_quantizers))
    print(f"wrote {out}/encodings.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    if args.encodings:
        sim = _build_sim(args, model)
        import_encodings(sim, args.encodings, freeze=True)
        value = evaluate(sim, ds)
    else:
        value = evaluate(model, ds)
    print(f"metric {ds.metric} {value:.6f}")
    return EXIT_OK


def cmd_adaround(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
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
    return EXIT_OK


def cmd_bias_correct(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
    sim = _build_sim(args, model, ds)
    mode = "empirical" if args.mode == "empirical" else "analytic_then_empirical"
    bias_correct(sim, mode=mode, feed=iter_batches(ds.x))
    export(sim, out / "bias_corrected")
    print(f"wrote {out}/bias_corrected.model.json, .weights.bin, .encodings.json")
    return EXIT_OK


def cmd_qat(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
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
    return EXIT_OK


def _parse_candidates(text: str) -> list[tuple[int, int]]:
    """argparse type of --candidates: 'act,param;act,param;...'. Malformed
    text is a usage error; cmd_amp range-checks the bitwidths with
    amp.CandidatePair, a data error."""
    pairs = []
    for part in filter(None, (s.strip() for s in text.split(";"))):
        try:
            act_bw, param_bw = (int(v) for v in part.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not an act,param bitwidth pair") from None
        pairs.append((act_bw, param_bw))
    return pairs


def cmd_amp(args) -> int:
    candidates = [CandidatePair.of(c) for c in args.candidates]  # range check before any work
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
    sim = _build_sim(args, model, ds)
    n1 = min(args.phase1_samples, len(ds))
    ds1 = Dataset(ds.x[:n1], ds.y[:n1], metric=ds.metric)

    def eval_phase1(s):
        return metric_score(evaluate(s, ds1), ds.metric)

    def eval_phase2(s):
        return metric_score(evaluate(s, ds), ds.metric)

    sim, entries = choose_mixed_precision(
        sim,
        candidates,
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
    return EXIT_OK


def cmd_export(args) -> int:
    model = load_model(args.model)
    out = _outdir(args)
    sim = _build_sim(args, model)
    import_encodings(sim, args.encodings, freeze=True)
    export(sim, out / "exported")
    print(f"wrote {out}/exported.model.json, .weights.bin, .encodings.json")
    return EXIT_OK


def cmd_visualize(args) -> int:
    model = load_model(args.model)
    out = _outdir(args)
    path = out / "weight_ranges.csv"
    rows = []
    for nid in model.topo_order():
        w = model.nodes[nid].weights.get("weight")
        if w is not None:
            flat = w.reshape(w.shape[0], -1)
            rows += [[nid, ch, float(flat[ch].min()), float(flat[ch].max())] for ch in range(flat.shape[0])]
    write_csv(path, ["layer", "channel", "min", "max"], rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_debug(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    out = _outdir(args)
    report = run_debug(
        model,
        ds,
        target_bw=args.target_bw,
        scheme=RangeScheme(kind=args.scheme, per_channel=args.per_channel),
        config=_config(args),
        out_dir=out,
    )
    write_json(out / "debug_report.json", report.to_dict())
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
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except FixquantError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
