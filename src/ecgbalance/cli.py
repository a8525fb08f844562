"""Command-line front end.

Each command is a thin composition of library calls; all randomness flows
from explicit --seed flags, and every output file is byte-deterministic
for a fixed invocation. Exit codes: 0 success, 1 usage error, 2 data or
configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import __version__
from .data import (
    Dataset,
    SplitSpec,
    csv_text,
    generate_synthetic,
    load_csv,
    make_output_dir,
    split,
    write_csv_dataset,
    write_output,
)
from .equalizer import (
    ENCODE_KINDS,
    EncoderSpec,
    channel_stats,
    write_image_csv,
    write_image_raw,
    write_stats_csv,
)
from .errors import EcgBalanceError, EmptyDataset, OutputError, SpecError
from .experiment import (
    RECIPE_FIELDS,
    SYNTH_KEYS,
    parse_experiment_spec,
    parse_kv_file,
    plain_number,
    recipe,
    run_experiment,
    synth_spec_from_mapping,
    write_results_csv,
)
from .imbalance import longtail_counts, resample, write_histogram_csv
from .losses import LOSS_KINDS, LossConfig, gradient_check
from .trainer import TrainConfig, evaluate, featurize_blocks, load_model, save_model, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2, and reads
    ``type=int`` and ``type=float`` flags by the spec files' rule, ``plain_number``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for conv in (int, float):
            self.register("type", conv, functools.partial(plain_number, conv))

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _recipe_flag_type(key: str, parse):
    """A flag's ``type``: ``parse`` as a spec reads ``key``, its SpecError a usage error."""

    def read(raw: str):
        try:
            return parse(key, raw)
        except SpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _add_recipe_flags(p: argparse.ArgumentParser, keys) -> None:
    """One flag for each of the RECIPE_FIELDS ``keys``, defaulting to its field's default."""
    defaults = {"train": TrainConfig(), "encode": EncoderSpec(), "loss": LossConfig()}
    for key in keys:
        part, name, parse, text = RECIPE_FIELDS[key]
        flag, default = "--" + name.replace("_", "-"), getattr(defaults[part], name)
        p.add_argument(flag, type=_recipe_flag_type(key, parse), default=default, help=f"{text}; spec key: {key}")


def _recipe_from_args(args, base: TrainConfig) -> TrainConfig:
    """``base`` with the value of each recipe flag ``args`` holds."""
    flags = vars(args)
    return recipe(base, {key: flags[row[1]] for key, row in RECIPE_FIELDS.items() if row[1] in flags})


def _loss_config_from_args(args, name: str) -> LossConfig:
    return _recipe_from_args(args, TrainConfig(loss=LossConfig(name, args.beta))).loss


def _train_config_from_args(args) -> TrainConfig:
    loss, encode = LossConfig(args.loss, args.beta), EncoderSpec(args.encode)
    return _recipe_from_args(args, TrainConfig(seed=args.seed, loss=loss, encode=encode))


def _load_dataset(args) -> Dataset:
    return load_csv(args.data, manifest=getattr(args, "manifest", None))


def _check_out_files(*paths) -> None:
    """Fail before any work when one of ``paths`` cannot be created as a file; None names no file."""
    for path in filter(None, paths):
        out = Path(path)
        if not out.parent.is_dir():
            raise OutputError(f"cannot write {path}: directory {out.parent} does not exist")
        if out.is_dir():
            raise OutputError(f"cannot write {path}: it is a directory")


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_synth(args) -> int:
    mapping = parse_kv_file(args.spec)
    unknown = set(mapping) - set(SYNTH_KEYS)
    if unknown:
        raise SpecError(f"unknown synth keys: {sorted(unknown)}")
    spec = synth_spec_from_mapping(mapping)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    d = generate_synthetic(spec)
    write_csv_dataset(d, args.out)
    print(f"wrote {len(d)} records over {d.num_classes} classes to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    d = _load_dataset(args)
    stats = channel_stats(d)
    if args.out:
        write_stats_csv(stats, d.class_names, args.out)
        print(f"wrote channel stats for {d.num_channels} channels to {args.out}")
    else:
        for c in range(d.num_channels):
            print(f"channel {c}: rms {stats.per_channel_rms[c]:.6g}, mean power {stats.per_channel_mean_power[c]:.6g}")
    return 0


def _cmd_encode(args) -> int:
    d = _load_dataset(args)
    positions = range(len(d))
    if args.record is not None:
        positions = [i for i, r in enumerate(d) if r.record_id == args.record]
        if not positions:
            raise _UsageError(f"record {args.record!r} not found in {args.data}")
    out = Path(args.out)
    make_output_dir(out)
    encoder = _recipe_from_args(args, TrainConfig(encode=EncoderSpec("image" if args.no_equalize else "cme"))).encode
    for _, block, _, rows in featurize_blocks(d.take, positions, {0: encoder}):
        for r, img in zip(block, rows.reshape(len(block), encoder.height, encoder.width)):
            if args.format in ("csv", "both"):
                write_image_csv(img, out / f"{r.record_id}.csv")
            if args.format in ("raw", "both"):
                write_image_raw(img, out / f"{r.record_id}.f64")
    print(f"encoded {len(positions)} records at {encoder.height}x{encoder.width} into {out}")
    return 0


def _cmd_resample(args) -> int:
    d = _load_dataset(args)
    before = d.class_counts()
    out_d = resample(d, longtail_counts(before, args.alpha), args.seed)
    out = Path(args.out)
    write_csv_dataset(out_d, out)
    write_histogram_csv(d.class_names, before, out_d.class_counts(), out / "histogram.csv")
    print(f"wrote {len(out_d)} records to {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    names = LOSS_KINDS if args.loss == "all" else (args.loss,)
    results = [
        gradient_check(
            _loss_config_from_args(args, name),
            trials=args.trials,
            seed=args.seed,
            threshold=args.threshold,
            num_classes=args.classes,
        )
        for name in names
    ]
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(
            f"gradcheck {res.loss}: {res.trials} trials, max relative error "
            f"{res.max_rel_error:.3e} (threshold {res.threshold:g}): {status}"
        )
    if args.out:
        rows = [(r.loss, r.trials, r.max_rel_error, r.threshold, "pass" if r.passed else "fail") for r in results]
        write_output(args.out, csv_text([("loss", "trials", "max_rel_error", "threshold", "status"), *rows]))
    return 0 if all(r.passed for r in results) else 3


def _check_train_fraction(fraction: float) -> None:
    """1.0 puts every record on the train side."""
    if not 0.0 < fraction <= 1.0:
        raise SpecError(f"--train-fraction must lie in (0, 1], got {fraction}")


def _cmd_train(args) -> int:
    _check_train_fraction(args.train_fraction)
    _check_out_files(args.out, args.log)
    d = _load_dataset(args)
    if args.train_fraction < 1.0:
        d, _ = split(d, SplitSpec(train_fraction=args.train_fraction, seed=args.seed))
    cfg = _train_config_from_args(args)
    model, log = train(d, cfg)
    save_model(model, args.out)
    if args.log:
        write_output(args.log, csv_text([("epoch", "mean_loss"), *enumerate(log)]))
    final = log[-1] if log else float("nan")
    print(f"trained {cfg.epochs} epochs on {len(d)} records; final mean loss {final:.6g}; model at {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _check_train_fraction(args.train_fraction)
    _check_out_files(args.out, args.confusion)
    model = load_model(args.model)
    d = _load_dataset(args)
    if args.split == "test" and args.train_fraction == 1.0:
        raise EmptyDataset("--train-fraction 1.0 leaves no record on the test side")
    if args.split != "all" and args.train_fraction < 1.0:
        d_train, d_test = split(d, SplitSpec(train_fraction=args.train_fraction, seed=args.split_seed))
        d = d_train if args.split == "train" else d_test
    metrics = evaluate(model, d)
    table = [("metric", "value"), ("accuracy", metrics.accuracy), ("macro_f1", metrics.macro_f1), ()]
    table.append(("class", "precision", "recall", "f1", "support"))
    columns = (metrics.per_class_precision, metrics.per_class_recall, metrics.per_class_f1)
    table.extend(zip(d.class_names, *columns, metrics.confusion.sum(axis=1).tolist()))
    text = csv_text(table)
    if args.out:
        write_output(args.out, text)
    else:
        sys.stdout.write(text)
    if args.confusion:
        rows = ((name, *counts) for name, counts in zip(d.class_names, metrics.confusion.tolist()))
        write_output(args.confusion, csv_text([("", *d.class_names), *rows]))
    print(f"accuracy {metrics.accuracy:.4f}, macro F1 {metrics.macro_f1:.4f} on {len(d)} records")
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"experiment: --jobs must be at least 1, got {args.jobs}")
    spec = parse_experiment_spec(args.spec)
    _check_out_files(args.out)
    rows = run_experiment(spec, jobs=args.jobs)
    write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="ecgbalance", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    iwl_text = (
        "The IWL loss of a record whose true class has probability p is (ln(10/(p+eps)))**beta * -ln(p): natural "
        "logarithms, with the weight differentiated. In a log base b it would be this loss times (ln b)**-(1+beta)."
    )
    beta = {"type": float, "default": LossConfig.beta, "help": "IWL temperature"}

    p = sub.add_parser("synth", help="generate a synthetic dataset from a spec file")
    p.add_argument("--spec", required=True, help="key-value spec file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="report per-channel magnitude statistics")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--manifest", default=None, help="manifest path (default: <data>/manifest.csv)")
    p.add_argument("--out", default=None, help="stats CSV path (default: print a summary)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("encode", help="encode records to fixed-size images")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--record", default=None, help="encode only this record id")
    _add_recipe_flags(p, [key for key in RECIPE_FIELDS if key.startswith(("image.", "window."))])
    p.add_argument("--no-equalize", action="store_true", help="encode kind image: skip channel magnitude equalization")
    p.add_argument("--format", choices=("csv", "raw", "both"), default="csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("resample", help="impose a long-tail class profile")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--alpha", type=float, required=True, help="imbalance factor in (0, 1]; 1 keeps every record")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("gradcheck", help="verify analytical gradients against finite differences", description=iwl_text)
    p.add_argument("--loss", default="all", help="iwl, ce, focal, cb, cb_focal, or ldam (default: all)")
    p.add_argument("--beta", **beta)
    _add_recipe_flags(p, [key for key, row in RECIPE_FIELDS.items() if row[0] == "loss"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--classes", type=int, default=9)
    p.add_argument("--out", default=None, help="write the report as CSV")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train", help="train a classifier", description=iwl_text)
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--log", default=None, help="per-epoch loss CSV")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument(
        "--train-fraction",
        type=float,
        default=1.0,
        help="train on a stratified fraction (1.0 = every record)",
    )
    p.add_argument("--loss", default="iwl", help="iwl, ce, focal, cb, cb_focal, or ldam (default: iwl)")
    p.add_argument("--beta", **beta)
    p.add_argument("--encode", choices=ENCODE_KINDS, default=EncoderSpec.kind, help="input representation")
    _add_recipe_flags(p, RECIPE_FIELDS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", default=None, help="metrics CSV path (default: stdout)")
    p.add_argument("--confusion", default=None, help="confusion matrix CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a {loss, beta, alpha, encode} x seeds grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells (at least 1)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            print("error: a command is required", file=sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EcgBalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
