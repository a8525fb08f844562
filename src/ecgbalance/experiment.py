"""Deterministic experiment grids: {loss, beta, alpha, encode} x seeds.

An experiment spec is a flat key-value text file (``key = value`` lines,
``#`` comments). Grid keys take comma-separated lists; everything else is
a scalar. Seeds are the outer loop. Each distinct alpha among a seed's
cells is one fit of its own: it picks its long-tail records and then its
train and test rows from the seed's labels alone, and only the records it
keeps are built, by :func:`~ecgbalance.trainer.featurize`, the featurizer
that ``train`` and ``eval`` use too, into one feature matrix per encode.
The alpha's cells that share an encode differ only in their loss; they
train as one stack (:func:`~ecgbalance.trainer.train_stack`) on its train
rows, and only after its last stack has trained are its test rows built
and each cell scored on them. A row holds its cell's scores on
each seed and derives mean and sd.

Every fit is a pure function of (spec, cell, seed), because each stage
seeds its own generator and a stacked variant trains bit for bit as it
would alone. A process pool therefore splits the cells, in order, into one
contiguous group per worker, runs each group seed by seed, stacking the
cells it holds, and concatenates the results in cell order; they are
identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (
    Dataset,
    SplitSpec,
    SynthSpec,
    _is_integer,
    _is_number,
    csv_text,
    generate_synthetic,
    load_csv,
    read_input,
    split_positions,
    synth_labels,
    write_output,
)
from .equalizer import ENCODE_KINDS
from .errors import ConfigError, SpecError
from .imbalance import longtail_counts, resample_positions
from .losses import LossConfig, canonical_loss_name
from .trainer import TrainConfig, featurize, score, train_stack

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


def parse_kv_file(path) -> dict[str, str]:
    """``key = value`` lines; '#' starts a comment; blank lines ignored."""
    mapping: dict[str, str] = {}
    text = read_input(path, lambda reason: SpecError(f"spec file {path}: {reason}"), text=True)
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


def plain_number(conv, raw: str):
    """``conv(raw)`` for plain-ASCII ``raw`` without ``_``, else ValueError: the rule for
    numbers in spec files and flags, as int() and float() also read "1_0", "٣" and "１"."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"{raw!r} is not plain ASCII")
    return conv(raw)


def _parse_number(key: str, raw: str, conv, what: str):
    try:
        return plain_number(conv, raw)
    except ValueError:
        raise SpecError(f"key {key!r}: {raw!r} is not {what}") from None


def _parse_float(key: str, raw: str) -> float:
    return _parse_number(key, raw, float, "a number")


def _parse_int(key: str, raw: str) -> int:
    return _parse_number(key, raw, int, "an integer")


def _parse_list(parse):
    """The parser of a comma-separated list: a tuple of ``parse(key, value)`` for each value."""
    return lambda key, raw: tuple(parse(key, v) for v in _split_list(raw))


# Grid key -> (the ExperimentSpec field it sets, parser).
_GRID_KEYS = {
    "loss": ("losses", _parse_list(lambda key, raw: raw)),
    "beta": ("betas", _parse_list(_parse_float)),
    "alpha": ("alphas", _parse_list(lambda key, raw: None if raw.lower() == "none" else _parse_float(key, raw))),
    "encode": ("encodes", _parse_list(lambda key, raw: raw)),
    "seeds": ("seeds", _parse_list(_parse_int)),
}

# Scalar synth key -> parser; each sets the SynthSpec field of its name.
_SYNTH_SCALARS = {
    "length": _parse_int,
    "noise_sd": _parse_float,
    "seed": _parse_int,
    "sample_rate": _parse_float,
    "amplitude": _parse_float,
    "base_frequency": _parse_float,
    "frequency_spacing": _parse_float,
}
SYNTH_KEYS = ("classes", "counts", "head_count", "channels", "channel_gain", "class_names", *_SYNTH_SCALARS)


# The training recipe: spec key -> (the part of TrainConfig it sets, field name, parser, help). Each key is
# also a flag of the commands that take it (see ecgbalance.cli): "--" and the field name, "_" written as "-".
RECIPE_FIELDS = {
    "epochs": ("train", "epochs", _parse_int, "passes over the training records"),
    "learning_rate": ("train", "learning_rate", _parse_float, "Adam step size"),
    "batch_size": ("train", "batch_size", _parse_int, "records per Adam step"),
    "hidden": ("train", "hidden", _parse_list(_parse_int), "comma-separated hidden layer sizes"),
    "image.height": ("encode", "height", _parse_int, "image height (cme)"),
    "image.width": ("encode", "width", _parse_int, "image width (cme)"),
    "window.skip": ("encode", "skip", _parse_int, "samples dropped from the start (cme)"),
    "window.take": ("encode", "take", _parse_int, "samples kept after the skip (cme)"),
    "raw.take": ("encode", "raw_take", _parse_int, "samples kept from the start (raw)"),
    "iwl.epsilon": ("loss", "epsilon", _parse_float, "IWL weight denominator guard"),
    "focal.gamma": ("loss", "gamma", _parse_float, "focal exponent"),
    "cb.beta": ("loss", "cb_beta", _parse_float, "class-balanced effective-number parameter"),
    "ldam.mu": ("loss", "ldam_mu", _parse_float, "LDAM maximum margin"),
    "ldam.s": ("loss", "ldam_s", _parse_float, "LDAM logit scale"),
}
# Each grid seed replaces the recipe's seed (see _fit_seed), so an experiment has no data.seed.
_SCALAR_KEYS = (*RECIPE_FIELDS, "train_fraction", "data.dir", *("data." + k for k in SYNTH_KEYS if k != "seed"))


def recipe(base: TrainConfig, values: dict) -> TrainConfig:
    """``base`` with the field of each RECIPE_FIELDS key in ``values`` set to its value."""
    parts: dict[str, dict] = {"train": {}, "encode": {}, "loss": {}}
    for key, value in values.items():
        part, name = RECIPE_FIELDS[key][:2]
        parts[part][name] = value
    encode, loss = (dataclasses.replace(getattr(base, part), **parts[part]) for part in ("encode", "loss"))
    return dataclasses.replace(base, encode=encode, loss=loss, **parts["train"])


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved grid plus shared training and data settings.

    ``train`` is the recipe every cell starts from, loss settings included; each run replaces its seed, its loss
    kind (and, for iwl, its beta) and its encoder kind. Each grid axis is a tuple or list, kept as a tuple, with
    loss names canonicalized; a repeated value is an error. Exactly one of ``data_dir`` and ``synth`` is set.
    """

    losses: tuple[str, ...] = ("iwl",)
    betas: tuple[float, ...] = (LossConfig.beta,)
    alphas: tuple[Optional[float], ...] = (None,)
    encodes: tuple[str, ...] = ("cme",)
    seeds: tuple[int, ...] = (0,)
    train_fraction: float = 0.9
    train: TrainConfig = TrainConfig(epochs=30)
    data_dir: Optional[str | os.PathLike] = None
    synth: Optional[SynthSpec] = None

    def __post_init__(self):
        # A grid axis is a tuple or list: a string would be split into characters, and a number fails far from here.
        fits = {axis: isinstance(getattr(self, axis), (tuple, list)) for axis, _ in _GRID_KEYS.values()}
        fits.update(train=isinstance(self.train, TrainConfig), synth=isinstance(self.synth, (SynthSpec, type(None))))
        fits.update(data_dir=isinstance(self.data_dir, (str, os.PathLike, type(None))))
        mistyped = [name for name, ok in fits.items() if not ok]
        if mistyped:
            raise SpecError(f"experiment fields {mistyped} have the wrong type")
        if (self.data_dir is None) == (self.synth is None):
            raise SpecError("an experiment needs one data source, data.dir or synthetic data settings, not both")
        if not all(_is_integer(s) and s >= 0 for s in self.seeds):
            raise SpecError(f"seeds must be nonnegative integers, got {self.seeds}")
        SplitSpec(train_fraction=self.train_fraction)  # raises SpecError unless it is a number in (0, 1)
        if not all(isinstance(name, str) for name in self.losses):
            raise SpecError(f"losses must be names, got {self.losses}")
        object.__setattr__(self, "losses", tuple(canonical_loss_name(name) for name in self.losses))
        for beta in self.betas:  # by LossConfig's rule, whether or not an iwl cell reads it
            try:
                dataclasses.replace(self.train.loss, beta=beta)
            except ConfigError as exc:
                raise SpecError(f"beta {beta!r}: {exc}") from None
        for enc in self.encodes:
            if enc not in ENCODE_KINDS:
                raise SpecError(f"unknown encode {enc!r}; expected {' or '.join(ENCODE_KINDS)}")
        for a in self.alphas:
            if a is not None and not (_is_number(a) and 0.0 < a <= 1.0):
                raise SpecError(f"alpha must be none or a number in (0, 1], got {a!r}")
        # Last, so that every value is checked and hashable.
        for axis, _ in _GRID_KEYS.values():
            values = tuple(getattr(self, axis))
            if not values:
                raise SpecError(f"the experiment grid has no {axis}")
            if len(set(values)) < len(values):
                raise SpecError(f"the experiment grid repeats a value in {axis}: {values}")
            object.__setattr__(self, axis, values)


@dataclass(frozen=True)
class CellKey:
    """One grid cell; beta is None for losses that do not use it."""

    loss: str
    beta: Optional[float]
    alpha: Optional[float]
    encode: str


def _seed_statistic(score: int, sd: bool) -> property:
    """A read-only property: the mean over a row's seeds of score ``score`` (0 accuracy, 1 macro F1),
    or with ``sd`` its sample standard deviation: ddof=1, or for a single seed ddof=0, which gives 0.0."""

    def get(row: ResultRow) -> float:
        values = np.array([pair[score] for pair in row.per_seed])
        return float(np.std(values, ddof=min(1, values.size - 1)) if sd else values.mean())

    return property(get)


@dataclass(frozen=True)
class ResultRow:
    """One cell's (accuracy, macro F1) on each of the spec's seeds, in seed order.
    Its statistics are computed from those scores, so they cannot disagree with them."""

    cell: CellKey
    per_seed: tuple[tuple[float, float], ...]

    accuracy_mean = _seed_statistic(0, sd=False)
    accuracy_sd = _seed_statistic(0, sd=True)
    macro_f1_mean = _seed_statistic(1, sd=False)
    macro_f1_sd = _seed_statistic(1, sd=True)

    @property
    def n_seeds(self) -> int:
        return len(self.per_seed)


def parse_experiment_spec(path) -> ExperimentSpec:
    mapping = parse_kv_file(path)
    if not mapping:
        raise SpecError(f"{path}: the experiment spec sets no keys")
    unknown = set(mapping) - set(_GRID_KEYS) - set(_SCALAR_KEYS)
    if unknown:
        raise SpecError(f"unknown experiment keys: {sorted(unknown)}")

    kwargs: dict = {}
    for key, (axis, parse) in _GRID_KEYS.items():
        if key in mapping:
            kwargs[axis] = parse(key, mapping[key])
    if "train_fraction" in mapping:
        kwargs["train_fraction"] = _parse_float("train_fraction", mapping["train_fraction"])
    values = {key: RECIPE_FIELDS[key][2](key, raw) for key, raw in mapping.items() if key in RECIPE_FIELDS}
    kwargs["train"] = recipe(ExperimentSpec.train, values)

    if "data.dir" in mapping:
        ignored = [key for key in mapping if key.startswith("data.") and key != "data.dir"]
        if ignored:
            raise SpecError(f"data.dir loads a dataset, so synthetic-data keys do not apply: {ignored}")
        kwargs["data_dir"] = mapping["data.dir"]
    else:
        kwargs["synth"] = synth_spec_from_mapping(mapping, prefix="data.")
    return ExperimentSpec(**kwargs)


def synth_spec_from_mapping(mapping: dict[str, str], prefix: str = "") -> SynthSpec:
    """Build a SynthSpec from flat keys like ``classes`` / ``data.classes``.

    Per-class counts come from ``counts``, else ``head_count`` for each of
    ``classes``; gains from ``channel_gain``, else 1 on each of ``channels``.
    A ``classes`` or ``channels`` beside its list must agree with it, and an
    absent key leaves SynthSpec's default.
    """

    def get(name: str, conv, default=None):
        raw = mapping.get(prefix + name)
        return default if raw is None else conv(prefix + name, raw)

    fields = {name: get(name, conv) for name, conv in _SYNTH_SCALARS.items() if prefix + name in mapping}
    defaults = SynthSpec()
    classes, counts = get("classes", _parse_int), get("counts", _parse_list(_parse_int))
    if counts is None:
        head = get("head_count", _parse_int, defaults.per_class_counts[0])
        counts = (head,) * (defaults.n_classes if classes is None else classes)
    elif classes is not None and classes != len(counts):
        raise SpecError(f"key {prefix}classes = {classes} disagrees with {len(counts)} counts in {prefix}counts")
    channels, gains = get("channels", _parse_int), get("channel_gain", _parse_list(_parse_float))
    if gains is None:
        gains = defaults.channel_gain[:1] * (defaults.n_channels if channels is None else channels)
    elif channels is not None and channels != len(gains):
        raise SpecError(f"key {prefix}channels = {channels} disagrees with {len(gains)} gains in {prefix}channel_gain")
    names = get("class_names", lambda key, raw: tuple(_split_list(raw)) or None)
    return SynthSpec(per_class_counts=counts, channel_gain=gains, class_names=names, **fields)


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


def _cell_loss(base: LossConfig, cell: CellKey) -> LossConfig:
    """``base`` with the cell's loss kind and, for iwl, its beta."""
    if cell.beta is None:
        return dataclasses.replace(base, kind=cell.loss)
    return dataclasses.replace(base, kind=cell.loss, beta=cell.beta)


def _fit_seed(
    spec: ExperimentSpec, cells: list[CellKey], seed: int, source: Optional[Dataset]
) -> list[tuple[float, float]]:
    """(accuracy, macro F1) of every cell on one seed's data.

    The data is ``source``, the dataset loaded from ``data.dir``, or else
    ``spec.synth`` with this seed: labels, class names and ``build(positions)``.
    Each alpha is one fit of its own. It picks its train and test positions
    from the labels alone, builds and featurizes its train side in split
    order with :func:`featurize`, one matrix per encode its cells use, and trains
    the cells of each encode as one stack on it, dropping the matrix once the
    stack has trained. Only then is its test side built and featurized the
    same way, in ascending position order, and each stack scored on it.
    Nothing of an alpha outlives its fit, so a record that several alphas
    keep is built once for each.
    """
    if source is None:
        synth = dataclasses.replace(spec.synth, seed=seed)
        labels, class_names = synth_labels(synth), synth.dataset_class_names()
        build = functools.partial(generate_synthetic, synth)
    else:
        labels, class_names, build = source.labels(), source.class_names, source.take
    n_classes = len(class_names)
    counts = np.bincount(labels, minlength=n_classes)
    split_spec = SplitSpec(train_fraction=spec.train_fraction, seed=seed)
    fits: dict[int, tuple[float, float]] = {}
    for alpha in dict.fromkeys(cell.alpha for cell in cells):
        stacks: dict[str, list[int]] = {}
        for i, cell in enumerate(cells):
            if cell.alpha == alpha:
                stacks.setdefault(cell.encode, []).append(i)
        encoders = {enc: dataclasses.replace(spec.train.encode, kind=enc) for enc in stacks}
        pos = np.arange(labels.size) if alpha is None else resample_positions(labels, longtail_counts(counts, alpha), seed)
        train_pos, test_pos = (pos[idx] for idx in split_positions(labels[pos], n_classes, split_spec))
        # Split order, not sorted: the order of the rows decides which records make up each batch.
        features = featurize(build, train_pos, encoders)
        fitted = {}
        for enc, members in stacks.items():
            base = dataclasses.replace(spec.train, encode=encoders[enc], seed=seed)
            cfgs = [dataclasses.replace(base, loss=_cell_loss(spec.train.loss, cells[i])) for i in members]
            fitted[enc] = train_stack(features.pop(enc), labels[train_pos], cfgs, class_names)
        test_pos = np.sort(test_pos)
        features = featurize(build, test_pos, encoders)
        for enc, members in stacks.items():
            for i, (model, _) in zip(members, fitted.pop(enc)):
                metrics = score(model, features[enc], labels[test_pos])
                fits[i] = (metrics.accuracy, metrics.macro_f1)
        del features  # before the next alpha builds its train side
    return [fits[i] for i in range(len(cells))]


def _run_cells(spec: ExperimentSpec, cells: list[CellKey]) -> list[ResultRow]:
    """The row of each of ``cells``, seeds outermost.
    A ``data.dir`` dataset is loaded once, for every seed."""
    source = None if spec.data_dir is None else load_csv(spec.data_dir)
    fits = [_fit_seed(spec, cells, seed, source) for seed in spec.seeds]
    return [ResultRow(cell, per_seed) for cell, per_seed in zip(cells, zip(*fits))]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Run every cell over every seed; one row per cell, in grid order, holding its scores on each seed."""
    cells = grid_cells(spec)
    if jobs > 1 and len(cells) > 1:
        # Imported here: loading the pool's modules costs every process start and a few MB of RSS.
        from concurrent.futures import ProcessPoolExecutor

        n = min(jobs, len(cells))
        size, extra = divmod(len(cells), n)
        bounds = [i * size + min(i, extra) for i in range(n + 1)]
        groups = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n) as pool:
            return [row for group in pool.map(_run_cells, [spec] * n, groups) for row in group]
    return _run_cells(spec, cells)


def write_results_csv(rows: list[ResultRow], path) -> None:
    """One row per cell; the mean and sd of accuracy and F1 over its seeds as percentages with one decimal."""
    table = [RESULT_COLUMNS]
    for row in rows:
        cell = row.cell
        beta = "" if cell.beta is None else float(cell.beta)
        alpha = "none" if cell.alpha is None else float(cell.alpha)
        pcts = (f"{100.0 * v:.1f}" for v in (row.accuracy_mean, row.accuracy_sd, row.macro_f1_mean, row.macro_f1_sd))
        table.append((cell.loss, beta, alpha, cell.encode, row.n_seeds, *pcts))
    write_output(path, csv_text(table))
