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

from .data import Dataset, _is_integer, csv_text, write_output
from .errors import DimensionError, EmptyDataset, SpecError


def longtail_counts(class_counts, alpha: float) -> np.ndarray:
    """Exponential long-tail target counts, indexed by class, for the given class histogram."""
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 2:
        raise DimensionError("class_counts must be a 1-D vector covering at least two classes")
    if not 0.0 < alpha <= 1.0:
        raise SpecError(f"alpha must lie in (0, 1], got {alpha}")
    if np.any(counts < 0):
        raise SpecError("class counts must be nonnegative")
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
    exactly target_counts[m] positions, drawn without replacement.
    """
    targets = np.asarray(target_counts, dtype=np.int64)
    if targets.ndim != 1 or targets.size < 2:
        raise DimensionError("target_counts must be a 1-D vector covering at least two classes")
    if np.any(targets < 0):
        raise SpecError("target counts must be nonnegative")
    labels = np.asarray(labels)
    if labels.size and labels.max() >= targets.size:
        raise DimensionError(f"label {labels.max()} is outside the {targets.size} target classes")
    if not _is_integer(seed) or seed < 0:
        raise SpecError(f"resample seed must be a nonnegative integer, got {seed!r}")
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
    if np.size(target_counts) != d.num_classes:
        raise DimensionError(f"{np.size(target_counts)} target counts for a dataset of {d.num_classes} classes")
    return d.take(resample_positions(d.labels(), target_counts, seed))
