"""Deterministic experiment grids: {loss, beta, alpha, encode} x seeds.

An experiment spec is a flat key-value text file (``key = value`` lines,
``#`` comments). Grid keys take comma-separated lists; everything else is
a scalar. Seeds are the outer loop. Each distinct alpha among a seed's
cells picks its long-tail records and then its train and test rows from
the seed's labels alone. Only the records some alpha keeps are
synthesized, once, in blocks, and each block is featurized straight into
one feature matrix per encode, so no more than a block of raw records is
alive at a time. The cells that share (alpha, encode) differ only in their
loss; they train as one stack (:func:`~ecgbalance.trainer.train_stack`)
and each is scored on the shared test rows. Rows aggregate mean and
sample standard deviation over seeds.

Every fit is a pure function of (spec, cell, seed), because each stage
seeds its own generator and a stacked variant trains bit for bit as it
would alone. A process pool therefore splits the cells, in order, into one
contiguous group per worker, runs each group seed by seed, stacking the
cells it holds, and concatenates the results in cell order; they are
identical for any worker count.
"""

from __future__ import annotations

import csv
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, SplitSpec, SynthSpec, generate_synthetic, load_csv, split_positions, synth_labels
from .equalizer import BLOCK_RECORDS
from .errors import SpecError
from .imbalance import longtail_counts, resample_positions
from .losses import IwlConfig, canonical_loss_name, loss_config
from .trainer import ENCODE_KINDS, EncoderSpec, TrainConfig, featurize_dataset, score, train_stack

# Not called here, but kept as module globals: perfbench/tracing.py wraps these
# names in this module (tests/test_trace_points.py checks that they exist).
from .data import split  # noqa: F401
from .trainer import evaluate, train  # noqa: F401

RESULT_COLUMNS = (
    "loss",
    "beta",
    "alpha",
    "encode",
    "seeds",
    "accuracy_mean",
    "accuracy_sd",
    "macro_f1_mean",
    "macro_f1_sd",
)

_GRID_KEYS = ("loss", "beta", "alpha", "encode", "seeds")
SYNTH_KEYS = (
    "classes",
    "counts",
    "head_count",
    "channels",
    "channel_gain",
    "class_names",
    "length",
    "noise_sd",
    "seed",
    "sample_rate",
    "amplitude",
    "base_frequency",
    "frequency_spacing",
)


def parse_kv_file(path) -> dict[str, str]:
    """``key = value`` lines; '#' starts a comment; blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"spec file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise SpecError(f"{path}: line {lineno} is not a 'key = value' pair: {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise SpecError(f"{path}: duplicate key {key!r} on line {lineno}")
        mapping[key] = value.strip()
    return mapping


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise SpecError(f"key {key!r}: {raw!r} is not a number") from exc


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise SpecError(f"key {key!r}: {raw!r} is not an integer") from exc


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, v) for v in _split_list(raw))


# Scalar spec key -> (the part of the spec it sets, field name, parser).
_SCALAR_FIELDS = {
    "epochs": ("train", "epochs", _parse_int),
    "learning_rate": ("train", "learning_rate", _parse_float),
    "batch_size": ("train", "batch_size", _parse_int),
    "hidden": ("train", "hidden", _parse_int_list),
    "train_fraction": ("spec", "train_fraction", _parse_float),
    "image.height": ("encode", "height", _parse_int),
    "image.width": ("encode", "width", _parse_int),
    "window.skip": ("encode", "skip", _parse_int),
    "window.take": ("encode", "take", _parse_int),
    "raw.take": ("encode", "raw_take", _parse_int),
    "iwl.epsilon": ("loss", "epsilon", _parse_float),
    "focal.gamma": ("loss", "gamma", _parse_float),
    "cb.beta": ("loss", "cb_beta", _parse_float),
    "ldam.mu": ("loss", "ldam_mu", _parse_float),
    "ldam.s": ("loss", "ldam_s", _parse_float),
}
_SCALAR_KEYS = (*_SCALAR_FIELDS, "data.dir", *("data." + k for k in SYNTH_KEYS))


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved grid plus shared training and data settings.

    ``train`` is the recipe every cell starts from; each run replaces its
    seed, its loss and its encoder kind. ``loss_params`` holds the
    loss settings given by the spec, passed to :func:`loss_config`.
    """

    losses: tuple[str, ...] = ("iwl",)
    betas: tuple[float, ...] = (IwlConfig.beta,)
    alphas: tuple[Optional[float], ...] = (None,)
    encodes: tuple[str, ...] = ("cme",)
    seeds: tuple[int, ...] = (0,)
    train_fraction: float = 0.9
    train: TrainConfig = TrainConfig(epochs=30)
    loss_params: dict = field(default_factory=dict)
    data_dir: Optional[str] = None
    synth: Optional[SynthSpec] = None

    def __post_init__(self):
        if self.data_dir is None and self.synth is None:
            raise SpecError("an experiment needs either data.dir or synthetic data settings")
        for axis in ("losses", "betas", "alphas", "encodes", "seeds"):
            if not getattr(self, axis):
                raise SpecError(f"the experiment grid has no {axis}")
        if min(self.seeds) < 0:
            raise SpecError(f"seeds must be nonnegative, got {self.seeds}")
        for name in self.losses:
            loss_config(name, **self.loss_params)
        for enc in self.encodes:
            if enc not in ENCODE_KINDS:
                raise SpecError(f"unknown encode {enc!r}; expected cme or raw")
        for a in self.alphas:
            if a is not None and not 0.0 < a <= 1.0:
                raise SpecError(f"alpha must lie in (0, 1], got {a}")


@dataclass(frozen=True)
class CellKey:
    """One grid cell; beta is None for losses that do not use it."""

    loss: str
    beta: Optional[float]
    alpha: Optional[float]
    encode: str


@dataclass(frozen=True)
class ResultRow:
    cell: CellKey
    n_seeds: int
    accuracy_mean: float
    accuracy_sd: float
    macro_f1_mean: float
    macro_f1_sd: float


def parse_experiment_spec(path) -> ExperimentSpec:
    mapping = parse_kv_file(path)
    if not mapping:
        raise SpecError(f"{path}: the experiment spec sets no keys")
    unknown = set(mapping) - set(_GRID_KEYS) - set(_SCALAR_KEYS)
    if unknown:
        raise SpecError(f"unknown experiment keys: {sorted(unknown)}")

    kwargs: dict = {}
    if "loss" in mapping:
        kwargs["losses"] = tuple(canonical_loss_name(n) for n in _split_list(mapping["loss"]))
    if "beta" in mapping:
        kwargs["betas"] = tuple(_parse_float("beta", v) for v in _split_list(mapping["beta"]))
    if "alpha" in mapping:
        kwargs["alphas"] = tuple(
            None if v.lower() == "none" else _parse_float("alpha", v) for v in _split_list(mapping["alpha"])
        )
    if "encode" in mapping:
        kwargs["encodes"] = tuple(_split_list(mapping["encode"]))
    if "seeds" in mapping:
        kwargs["seeds"] = _parse_int_list("seeds", mapping["seeds"])

    parts: dict[str, dict] = {"spec": kwargs, "train": {}, "encode": {}, "loss": {}}
    for key, (part, name, conv) in _SCALAR_FIELDS.items():
        if key in mapping:
            parts[part][name] = conv(key, mapping[key])
    base = ExperimentSpec.train
    kwargs["train"] = dataclasses.replace(
        base, encode=dataclasses.replace(base.encode, **parts["encode"]), **parts["train"]
    )
    kwargs["loss_params"] = parts["loss"]

    if "data.dir" in mapping:
        kwargs["data_dir"] = mapping["data.dir"]
    else:
        kwargs["synth"] = synth_spec_from_mapping(mapping, prefix="data.")
    return ExperimentSpec(**kwargs)


# SynthSpec fields a mapping may set, each left at SynthSpec's default when absent.
_SYNTH_OPTIONAL = (
    ("noise_sd", _parse_float),
    ("seed", _parse_int),
    ("sample_rate", _parse_float),
    ("amplitude", _parse_float),
    ("base_frequency", _parse_float),
    ("frequency_spacing", _parse_float),
)


def synth_spec_from_mapping(mapping: dict[str, str], prefix: str = "") -> SynthSpec:
    """Build a SynthSpec from flat keys like ``classes`` / ``data.classes``.

    Per-class counts come from ``counts`` (explicit list) or ``head_count``
    (balanced at that size); the seed key is a default that callers may
    override per run.
    """

    def get(name: str, default: Optional[str] = None) -> Optional[str]:
        return mapping.get(prefix + name, default)

    classes = _parse_int("classes", get("classes", "9"))
    counts_raw = get("counts")
    if counts_raw is not None:
        counts = _parse_int_list("counts", counts_raw)
    else:
        head = _parse_int("head_count", get("head_count", "64"))
        counts = (head,) * classes
    gain_raw = get("channel_gain")
    if gain_raw is not None:
        gains = tuple(_parse_float("channel_gain", v) for v in _split_list(gain_raw))
    else:
        gains = (1.0,) * _parse_int("channels", get("channels", "12"))
    names_raw = get("class_names")
    optional = {name: conv(name, get(name)) for name, conv in _SYNTH_OPTIONAL if get(name) is not None}
    return SynthSpec(
        n_classes=classes,
        n_channels=len(gains),
        length=_parse_int("length", get("length", "3000")),
        per_class_counts=counts,
        channel_gain=gains,
        class_names=tuple(_split_list(names_raw)) if names_raw else None,
        **optional,
    )


def grid_cells(spec: ExperimentSpec) -> list[CellKey]:
    """Cells in deterministic order; beta multiplies only the iwl loss."""
    cells = []
    for loss in spec.losses:
        betas = spec.betas if loss == "iwl" else (None,)
        for beta in betas:
            for alpha in spec.alphas:
                for encode in spec.encodes:
                    cells.append(CellKey(loss=loss, beta=beta, alpha=alpha, encode=encode))
    return cells


def _featurize_blocks(build, wanted: np.ndarray, encoders: dict[str, EncoderSpec]) -> dict[str, np.ndarray]:
    """One feature matrix per encode, row r for the record at position ``wanted[r]``.

    ``build(positions)`` returns those records as a Dataset. Records are
    built and featurized ``BLOCK_RECORDS`` at a time, so no more than one
    block of them is alive at once. An experiment's encoders fix their
    feature width (``raw.take`` is always set), so every block fits.
    """
    features: dict[str, np.ndarray] = {}
    for start in range(0, wanted.size, BLOCK_RECORDS):
        block = build(wanted[start : start + BLOCK_RECORDS])
        for enc, encoder in encoders.items():
            x = featurize_dataset(block, encoder)
            if enc not in features:
                features[enc] = np.empty((wanted.size, x.shape[1]))
            features[enc][start : start + len(block)] = x
    return features


def _fit_seed(spec: ExperimentSpec, cells: list[CellKey], seed: int) -> list[tuple[float, float]]:
    """(accuracy, macro F1) of every cell on one seed's data.

    Each distinct alpha picks its record positions, and then its train and
    test rows, from the seed's labels. Only the union of those positions is
    synthesized (or, for ``data.dir``, taken from the loaded dataset) and
    featurized, once, in blocks, into one matrix per encode. The cells of
    each (alpha, encode) train as one stack on that matrix. Nothing of this
    seed outlives the call.
    """
    if spec.data_dir is not None:
        source = load_csv(spec.data_dir)
        labels, class_names = source.labels(), source.class_names

        def build(at: np.ndarray) -> Dataset:
            return Dataset(tuple(source.records[i] for i in at.tolist()), class_names)

    else:
        assert spec.synth is not None
        synth = dataclasses.replace(spec.synth, seed=seed)
        labels, class_names = synth_labels(synth), synth.dataset_class_names()

        def build(at: np.ndarray) -> Dataset:
            return generate_synthetic(synth, at)

    n_classes = len(class_names)
    counts = np.bincount(labels, minlength=n_classes)
    positions = {
        alpha: np.arange(labels.size)
        if alpha is None
        else resample_positions(labels, longtail_counts(counts, alpha), seed)
        for alpha in dict.fromkeys(cell.alpha for cell in cells)
    }
    wanted = np.unique(np.concatenate(list(positions.values())))
    encoders = {enc: dataclasses.replace(spec.train.encode, kind=enc) for enc in dict.fromkeys(c.encode for c in cells)}
    features = _featurize_blocks(build, wanted, encoders)
    row_labels = labels[wanted]
    split_spec = SplitSpec(train_fraction=spec.train_fraction, seed=seed)
    rows = {}
    for alpha, pos in positions.items():
        kept = np.searchsorted(wanted, pos)
        rows[alpha] = tuple(kept[idx] for idx in split_positions(row_labels[kept], n_classes, split_spec))
    stacks: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        stacks.setdefault((cell.alpha, cell.encode), []).append(i)
    fits: dict[int, tuple[float, float]] = {}
    for (alpha, enc), members in stacks.items():
        train_rows, test_rows = rows[alpha]
        base = dataclasses.replace(spec.train, encode=encoders[enc], seed=seed)
        cfgs = [
            dataclasses.replace(base, loss=loss_config(cells[i].loss, beta=cells[i].beta, **spec.loss_params))
            for i in members
        ]
        x = features[enc]
        models = train_stack(x, train_rows, row_labels[train_rows], cfgs, class_names)
        x_test, test_labels = x[test_rows], row_labels[test_rows]
        for i, (model, _) in zip(members, models):
            metrics = score(model, x_test, test_labels)
            fits[i] = (metrics.accuracy, metrics.macro_f1)
    return [fits[i] for i in range(len(cells))]


def _run_cells(spec: ExperimentSpec, cells: list[CellKey]) -> list[list[tuple[float, float]]]:
    """(accuracy, macro F1) per seed for each of ``cells``, seeds outermost."""
    out: list[list[tuple[float, float]]] = [[] for _ in cells]
    for seed in spec.seeds:
        for pairs, fit in zip(out, _fit_seed(spec, cells, seed)):
            pairs.append(fit)
    return out


def run_cell(spec: ExperimentSpec, cell: CellKey) -> list[tuple[float, float]]:
    """(accuracy, macro F1) per seed for one grid cell."""
    return _run_cells(spec, [cell])[0]


def _aggregate(cell: CellKey, pairs: list[tuple[float, float]]) -> ResultRow:
    acc = np.array([a for a, _ in pairs])
    f1 = np.array([f for _, f in pairs])
    n = len(pairs)
    sd = lambda v: float(np.std(v, ddof=1)) if n >= 2 else 0.0
    return ResultRow(
        cell=cell,
        n_seeds=n,
        accuracy_mean=float(acc.mean()),
        accuracy_sd=sd(acc),
        macro_f1_mean=float(f1.mean()),
        macro_f1_sd=sd(f1),
    )


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Run every cell over every seed; one aggregated row per cell."""
    cells = grid_cells(spec)
    if not cells:
        return []
    if jobs > 1 and len(cells) > 1:
        n = min(jobs, len(cells))
        size, extra = divmod(len(cells), n)
        bounds = [i * size + min(i, extra) for i in range(n + 1)]
        groups = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n) as pool:
            results = [pairs for group in pool.map(_run_cells, [spec] * n, groups) for pairs in group]
    else:
        results = _run_cells(spec, cells)
    return [_aggregate(cell, pairs) for cell, pairs in zip(cells, results)]


def _fmt_pct(v: float) -> str:
    return f"{100.0 * v:.1f}"


def write_results_csv(rows: list[ResultRow], path) -> None:
    """One row per cell; accuracy and F1 as percentages with one decimal."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.cell.loss,
                    "" if row.cell.beta is None else repr(float(row.cell.beta)),
                    "none" if row.cell.alpha is None else repr(float(row.cell.alpha)),
                    row.cell.encode,
                    row.n_seeds,
                    _fmt_pct(row.accuracy_mean),
                    _fmt_pct(row.accuracy_sd),
                    _fmt_pct(row.macro_f1_mean),
                    _fmt_pct(row.macro_f1_sd),
                ]
            )


def read_results_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
