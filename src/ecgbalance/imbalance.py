"""Long-tail resampling: impose an exponential class-frequency profile.

Classes are ranked by descending original count; the class at rank m is
subsampled to floor(N_max * alpha**(m / (M-1))), never below one record
and never above what is available. Smaller alpha means a steeper tail;
alpha = 1 leaves every class at the head-class ceiling. Resampling only
ever discards records, it never duplicates them.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, _check_counts, _check_integer, _check_labels, _is_number, csv_text, write_output
from .errors import DimensionError, EmptyDataset, SpecError


def longtail_counts(class_counts, alpha: float) -> np.ndarray:
    """Exponential long-tail target counts, indexed by class, for the given class histogram."""
    counts = _check_counts(class_counts, SpecError)
    if not (_is_number(alpha) and 0.0 < alpha <= 1.0):
        raise SpecError(f"alpha must be a number in (0, 1], got {alpha!r}")
    if counts.sum() == 0:
        raise EmptyDataset("every class is empty")
    order = np.argsort(-counts, kind="stable")
    n_max = int(counts[order[0]])
    m_total = counts.size
    targets = np.zeros(m_total, dtype=np.int64)
    for rank, cls in enumerate(order):
        raw = math.floor(n_max * alpha ** (rank / (m_total - 1)))
        targets[cls] = min(max(1, raw), int(counts[cls]))
    return targets


def write_histogram_csv(class_names, before, after, path) -> None:
    """Per-class before/after record counts, one row per class."""
    before = np.asarray(before, dtype=np.int64)
    after = np.asarray(after, dtype=np.int64)
    if not len(class_names) == before.size == after.size:
        raise DimensionError("class names and histograms must have equal length")
    write_output(path, csv_text([("class", "before", "after"), *zip(class_names, before.tolist(), after.tolist())]))


def resample_positions(labels, target_counts, seed: int) -> np.ndarray:
    """Positions of a uniform per-class subsample to ``target_counts``, shuffled.

    Deterministic in (labels, target_counts, seed). Each class m contributes
    exactly target_counts[m] positions, drawn without replacement. Target
    counts that are not a vector of at least two nonnegative integers, or a
    seed that is not a nonnegative integer, are a SpecError (a vector of
    another shape a DimensionError); labels that are not integers in
    ``[0, len(target_counts))`` are a DimensionError.
    """
    targets = _check_counts(target_counts, SpecError, what="target counts")
    labels = _check_labels(labels, targets.size)
    _check_integer(seed, SpecError, "resample seed")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for m, target in enumerate(targets.tolist()):
        idx = np.flatnonzero(labels == m)
        if target > idx.size:
            raise SpecError(f"target of {target} records for class {m}, but only {idx.size} exist")
        picked = rng.choice(idx, size=target, replace=False)
        chosen.extend(int(i) for i in picked)
    order = rng.permutation(len(chosen))
    return np.asarray(chosen, dtype=np.int64)[order]


def resample(d: Dataset, target_counts, seed: int) -> Dataset:
    """The records of ``d`` at :func:`resample_positions`, in that order."""
    targets = _check_counts(target_counts, SpecError, what="target counts")
    if targets.size != d.num_classes:
        raise DimensionError(f"{targets.size} target counts for a dataset of {d.num_classes} classes")
    return d.take(resample_positions(d.labels(), targets, seed))
