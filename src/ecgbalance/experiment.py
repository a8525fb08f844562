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
on the records some alpha trains on, and only after every stack has
trained are the records that lie on test sides alone built, so they are
never alive while a stack trains. Each cell is scored on its alpha's test
rows. Rows aggregate mean and sample standard deviation over seeds.

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
import functools
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (
    Dataset,
    SplitSpec,
    SynthSpec,
    csv_text,
    generate_synthetic,
    load_csv,
    read_input,
    split_positions,
    synth_labels,
    write_output,
)
from .equalizer import BLOCK_RECORDS
from .errors import SpecError
from .imbalance import longtail_counts, resample_positions
from .losses import LossConfig, canonical_loss_name
from .trainer import ENCODE_KINDS, EncoderSpec, TrainConfig, featurize_dataset, score, train_stack

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


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, v) for v in _split_list(raw))


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, v) for v in _split_list(raw))


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
    "hidden": ("train", "hidden", _parse_int_list, "comma-separated hidden layer sizes"),
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

    ``train`` is the recipe every cell starts from, loss settings
    included; each run replaces its seed, its loss kind (and, for iwl, its
    beta) and its encoder kind.
    """

    losses: tuple[str, ...] = ("iwl",)
    betas: tuple[float, ...] = (LossConfig.beta,)
    alphas: tuple[Optional[float], ...] = (None,)
    encodes: tuple[str, ...] = ("cme",)
    seeds: tuple[int, ...] = (0,)
    train_fraction: float = 0.9
    train: TrainConfig = TrainConfig(epochs=30)
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
        SplitSpec(train_fraction=self.train_fraction)  # raises SpecError for a fraction outside (0, 1)
        for cell in grid_cells(self):
            _cell_loss(self.train.loss, cell)
        for enc in self.encodes:
            if enc not in ENCODE_KINDS:
                raise SpecError(f"unknown encode {enc!r}; expected {' or '.join(ENCODE_KINDS)}")
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
        kwargs["betas"] = _parse_float_list("beta", mapping["beta"])
    if "alpha" in mapping:
        kwargs["alphas"] = tuple(
            None if v.lower() == "none" else _parse_float("alpha", v) for v in _split_list(mapping["alpha"])
        )
    if "encode" in mapping:
        kwargs["encodes"] = tuple(_split_list(mapping["encode"]))
    if "seeds" in mapping:
        kwargs["seeds"] = _parse_int_list("seeds", mapping["seeds"])

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
    classes, counts = get("classes", _parse_int), get("counts", _parse_int_list)
    if counts is None:
        head = get("head_count", _parse_int, defaults.per_class_counts[0])
        counts = (head,) * (defaults.n_classes if classes is None else classes)
    elif classes is not None and classes != len(counts):
        raise SpecError(f"key {prefix}classes = {classes} disagrees with {len(counts)} counts in {prefix}counts")
    channels, gains = get("channels", _parse_int), get("channel_gain", _parse_float_list)
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


def _fit_seed(
    spec: ExperimentSpec, cells: list[CellKey], seed: int, source: Optional[Dataset]
) -> list[tuple[float, float]]:
    """(accuracy, macro F1) of every cell on one seed's data.

    The data is ``source``, the dataset loaded from ``data.dir``, or else
    ``spec.synth`` with this seed: labels, class names and ``build(positions)``.
    Each alpha picks its train and test positions from the labels alone. The
    union of the train sides is built and featurized first, in blocks, into one
    matrix per encode (row r for the r-th smallest position), and the cells of
    each (alpha, encode) train as one stack on it. Only then are the test
    positions that no train side holds built and featurized the same way, once
    the train matrices are freed if no test side reads them, and each stack is
    scored on its test rows in ascending position order. Every record is built
    once, and nothing of this seed outlives the call.
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
    sides = {}
    for alpha in dict.fromkeys(cell.alpha for cell in cells):
        pos = np.arange(labels.size) if alpha is None else resample_positions(labels, longtail_counts(counts, alpha), seed)
        train_pos, test_pos = (pos[idx] for idx in split_positions(labels[pos], n_classes, split_spec))
        sides[alpha] = (train_pos, np.sort(test_pos))
    encoders = {enc: dataclasses.replace(spec.train.encode, kind=enc) for enc in dict.fromkeys(c.encode for c in cells)}
    stacks: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        stacks.setdefault((cell.alpha, cell.encode), []).append(i)

    trained = np.unique(np.concatenate([train_pos for train_pos, _ in sides.values()]))
    features = _featurize_blocks(build, trained, encoders)
    fitted = {}
    for (alpha, enc), members in stacks.items():
        train_pos = sides[alpha][0]
        base = dataclasses.replace(spec.train, encode=encoders[enc], seed=seed)
        cfgs = [dataclasses.replace(base, loss=_cell_loss(spec.train.loss, cells[i])) for i in members]
        # An empty train union leaves no matrix; train_stack rejects the empty rows before reading one.
        fitted[alpha, enc] = train_stack(
            features.get(enc), np.searchsorted(trained, train_pos), labels[train_pos], cfgs, class_names
        )

    tested = np.unique(np.concatenate([test_pos for _, test_pos in sides.values()]))
    test_only = np.setdiff1d(tested, trained, assume_unique=True)
    if test_only.size == tested.size:
        features = {}  # no test side reads a train row
    test_features = _featurize_blocks(build, test_only, encoders)
    fits: dict[int, tuple[float, float]] = {}
    for (alpha, enc), members in stacks.items():
        test_pos = sides[alpha][1]
        models = fitted.pop((alpha, enc))
        if np.array_equal(test_pos, test_only):
            x_test = test_features[enc]
        else:
            x_test = np.empty((test_pos.size, models[0][0].input_dim))
            for held, x in ((trained, features), (test_only, test_features)):
                hit = np.isin(test_pos, held, assume_unique=True)
                if hit.any():
                    x_test[hit] = x[enc][np.searchsorted(held, test_pos[hit])]
        for i, (model, _) in zip(members, models):
            metrics = score(model, x_test, labels[test_pos])
            fits[i] = (metrics.accuracy, metrics.macro_f1)
    return [fits[i] for i in range(len(cells))]


def _run_cells(spec: ExperimentSpec, cells: list[CellKey]) -> list[list[tuple[float, float]]]:
    """(accuracy, macro F1) per seed for each of ``cells``, seeds outermost.
    A ``data.dir`` dataset is loaded once, for every seed."""
    source = None if spec.data_dir is None else load_csv(spec.data_dir)
    out: list[list[tuple[float, float]]] = [[] for _ in cells]
    for seed in spec.seeds:
        for pairs, fit in zip(out, _fit_seed(spec, cells, seed, source)):
            pairs.append(fit)
    return out


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
        # Imported here: loading the pool's modules costs every process start and a few MB of RSS.
        from concurrent.futures import ProcessPoolExecutor

        n = min(jobs, len(cells))
        size, extra = divmod(len(cells), n)
        bounds = [i * size + min(i, extra) for i in range(n + 1)]
        groups = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n) as pool:
            results = [pairs for group in pool.map(_run_cells, [spec] * n, groups) for pairs in group]
    else:
        results = _run_cells(spec, cells)
    return [_aggregate(cell, pairs) for cell, pairs in zip(cells, results)]


def write_results_csv(rows: list[ResultRow], path) -> None:
    """One row per cell; accuracy and F1 as percentages with one decimal."""
    table = [RESULT_COLUMNS]
    for row in rows:
        cell = row.cell
        beta = "" if cell.beta is None else float(cell.beta)
        alpha = "none" if cell.alpha is None else float(cell.alpha)
        pcts = (f"{100.0 * v:.1f}" for v in (row.accuracy_mean, row.accuracy_sd, row.macro_f1_mean, row.macro_f1_sd))
        table.append((cell.loss, beta, alpha, cell.encode, row.n_seeds, *pcts))
    write_output(path, csv_text(table))


def read_results_csv(path) -> list[dict[str, str]]:
    text = read_input(path, lambda reason: SpecError(f"results file {path}: {reason}"), text=True)
    return list(csv.DictReader(io.StringIO(text, newline="")))
