"""Command-line front end.

``main`` reads every subcommand's inputs in one place: it loads --model,
then --data if the subcommand has it, then creates --out if it has it, and
hands all three to the command function. Each command writes its outputs
under --out and prints a short summary to stdout. Outputs are
deterministic: no timestamps, sorted JSON keys, fixed CSV column orders.
Failures exit with a one-line ``error:<category>: message`` on stderr and a
category exit code: 2 usage, 3 data (any unreadable or unwritable path
included), 4 numeric.

The subcommands are declared once, in ``_COMMANDS``. A call naming one
builds only its parser (setting up all twelve costs several times the
parse); top-level ``--help``, a missing and an unknown command get the
full tree, so every help text and usage error is the full tree's.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .amp import CandidatePair, check_candidates, choose_mixed_precision
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
from .quantizer import check_bitwidth
from .quantsim import (
    EVERY_TENSOR_CONFIG_DICT,
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


def _at_least(minimum: int):
    """argparse type of an integer option that must be at least ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid <__name__> value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is less than {minimum}")
        return value

    parse.__name__ = "int"
    return parse


def _bitwidth(text: str) -> int:
    """argparse type of a bitwidth option. Text that is no int is a usage
    error; an int outside [2, 32] raises check_bitwidth's EncodingError, a
    data error, while parsing and so before any file is read or created."""
    return check_bitwidth(int(text))


_bitwidth.__name__ = "int"


def _float_where(ok, what: str):
    """argparse type of a float option whose value must pass ``ok`` (NaN
    fails every comparison), described as ``what`` when it does not."""

    def parse(text: str) -> float:
        value = float(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} is not {what}")
        return value

    parse.__name__ = "float"
    return parse


def _scheme(args) -> RangeScheme:
    return RangeScheme(kind=args.scheme, per_channel=args.per_channel)


def _config(args):
    return SimConfig.from_file(args.config) if args.config else None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_sim(args, model, ds):
    """A sim at the parsed bitwidths and config, calibrated on ``ds`` with the parsed scheme."""
    sim = create_quantsim(model, args.param_bw, args.output_bw, _scheme(args), _config(args))
    return compute_encodings(sim, iter_batches(ds.x))


def _imported_sim(args, model):
    """A sim holding --encodings frozen; the file alone sets every quantizer."""
    sim = create_quantsim(model, config=SimConfig.from_dict(EVERY_TENSOR_CONFIG_DICT))
    return import_encodings(sim, args.encodings, freeze=True)


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
    value = evaluate(_imported_sim(args, model) if args.encodings else model, ds)
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
    text is a usage error; an out-of-range bitwidth, an empty list or a
    repeated pair raises amp's EncodingError, a data error, while parsing
    and so before any file is read or created."""
    pairs = []
    for part in filter(None, (s.strip() for s in text.split(";"))):
        try:
            act_bw, param_bw = (int(v) for v in part.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not an act,param bitwidth pair") from None
        pairs.append((act_bw, param_bw))
    return check_candidates(pairs)


def cmd_amp(args, model, ds, out) -> None:
    # The search sets every quantizer's bitwidth from --candidates.
    sim = create_quantsim(model, scheme=_scheme(args), config=_config(args))
    compute_encodings(sim, iter_batches(ds.x))
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
    export(_imported_sim(args, model), out / "exported")
    print(f"wrote {out}/exported.model.json, .weights.bin, .encodings.json")


def cmd_visualize(args, model, ds, out) -> None:
    path = out / "weight_ranges.csv"
    rows = []
    for nid, node in model.nodes.items():
        w = node.weights.get("weight")
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


# The options that more than one subcommand reads: main reads --data and
# --out, the command functions the rest.
_SHARED_OPTIONS = {
    "--data": dict(required=True, help="dataset file prefix (expects PREFIX.data.json + PREFIX.data.bin)"),
    "--out": dict(required=True, help="output directory"),
    "--param-bw": dict(type=_bitwidth, default=8, help="weight bitwidth (default 8)"),
    "--output-bw": dict(type=_bitwidth, default=8, help="activation bitwidth (default 8)"),
    "--scheme": dict(choices=["min_max", "sqnr"], default="min_max", help="range setting scheme"),
    "--per-channel": dict(action="store_true", help="one weight grid per output channel of every conv and linear"),
    "--config": dict(default=None, help="quantizer placement config JSON"),
}


class _Command(NamedTuple):
    """A subcommand: the shared options it reads, and its own options as
    {flag: add_argument keywords}."""

    func: Callable
    help: str
    shared: tuple = tuple(_SHARED_OPTIONS)
    options: dict = {}


_COMMANDS = {
    "quantsim": _Command(cmd_quantsim, "build, calibrate, and export a quantized simulation"),
    "fold-bn": _Command(cmd_fold_bn, "fold batch norms into preceding layers", shared=("--out",)),
    "equalize": _Command(cmd_equalize, "cross-layer equalization (fold, scale, absorb)", shared=("--out",)),
    "calibrate": _Command(cmd_calibrate, "compute encodings from data and write encodings JSON"),
    "eval": _Command(cmd_eval, "evaluate a model (float, or quantized with --encodings)", shared=("--data",), options={
        "--encodings": dict(default=None, help="encodings JSON that sets every quantizer, imported frozen"),
    }),
    "adaround": _Command(cmd_adaround, "optimize weight rounding against layer outputs",
                         shared=("--data", "--out", "--param-bw", "--scheme", "--per-channel"), options={
        "--seed": dict(type=_at_least(0), required=True, help="rng seed (required, results are stochastic)"),
        "--iterations": dict(type=_at_least(1), default=10_000),
        "--reg": dict(type=_float_where(lambda v: 0 <= v < math.inf, "a finite number >= 0"), default=0.01,
                      help="rounding regularizer weight"),
        "--batches": dict(type=_at_least(1), default=None, help="calibration batches to use (default all)"),
    }),
    "bias-correct": _Command(cmd_bias_correct, "correct biases for quantization-induced mean shift", options={
        "--mode": dict(choices=["empirical", "analytic"], default="empirical"),
    }),
    "qat": _Command(cmd_qat, "fine-tune weights through the quantized forward pass", options={
        "--seed": dict(type=_at_least(0), required=True, help="rng seed (required, shuffling is stochastic)"),
        "--epochs": dict(type=_at_least(1), default=20),
        "--lr": dict(type=_float_where(lambda v: 0 < v < math.inf, "a positive finite number"), default=1e-2),
        "--batch-size": dict(type=_at_least(1), default=32),
        "--refresh-ranges": dict(action="store_true", help="recompute ranges after each epoch"),
    }),
    "amp": _Command(cmd_amp, "mixed-precision search over layer groups",
                    shared=("--data", "--out", "--scheme", "--per-channel", "--config"), options={
        "--candidates": dict(type=_parse_candidates, default="16,16;16,8;8,16",
                             help="semicolon-separated act,param bitwidth pairs (default '16,16;16,8;8,16')"),
        "--allowed-drop": dict(type=_float_where(lambda v: v >= 0, "a number >= 0"), default=0.5,
                               help="allowed score drop from baseline"),
        "--resume": dict(action="store_true", help="reuse caches in --out (default wipes them)"),
        "--phase1-samples": dict(type=_at_least(1), default=256, help="samples for the fast phase-1 eval"),
    }),
    "export": _Command(cmd_export, "re-emit model + encodings as canonical artifact files",
                       shared=("--out",), options={
        "--encodings": dict(required=True, help="encodings JSON that sets every quantizer, imported frozen"),
    }),
    "visualize": _Command(cmd_visualize, "emit plot data CSVs", shared=("--out",)),
    "debug": _Command(cmd_debug, "staged diagnosis of quantization accuracy loss",
                      shared=("--data", "--out", "--scheme", "--per-channel", "--config"), options={
        "--target-bw": dict(type=_bitwidth, default=8, help="bitwidth of every quantizer (default 8)"),
    }),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone if given."""
    parser = _Parser(prog="fixquant", description="fixed-point inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, c in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=c.help)
        p.set_defaults(func=c.func, data=None, out=None)
        p.add_argument("--model", required=True, help="model file prefix (expects PREFIX.model.json + PREFIX.weights.bin)")
        for flag, kwargs in [*((f, _SHARED_OPTIONS[f]) for f in c.shared), *c.options.items()]:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        first = next(iter(sys.argv[1:] if argv is None else argv), None)
        args = build_parser(first if first in _COMMANDS else None).parse_args(argv)
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
