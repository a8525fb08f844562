"""Long-tail resampling: impose an exponential class-frequency profile.

Classes are ranked by descending original count; the class at rank m is
subsampled to floor(N_max * alpha**(m / (M-1))), never below one record
and never above what is available. Smaller alpha means a steeper tail;
alpha = 1 leaves every class at the head-class ceiling. Resampling only
ever discards records, it never duplicates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionError, EmptyDataset, SpecError


@dataclass(frozen=True)
class ImbalanceProfile:
    """Target per-class counts (indexed by class, not by rank)."""

    alpha: float
    target_counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.target_counts, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "target_counts", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionError("target_counts must be a 1-D vector covering at least two classes")
        if np.any(arr < 0):
            raise SpecError("target counts must be nonnegative")


def longtail_counts(class_counts, alpha: float) -> ImbalanceProfile:
    """Exponential long-tail targets for the given class histogram."""
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
    return ImbalanceProfile(alpha=alpha, target_counts=targets)


def write_histogram_csv(class_names, before, after, path) -> None:
    """Per-class before/after record counts, one row per class."""
    before = np.asarray(before, dtype=np.int64)
    after = np.asarray(after, dtype=np.int64)
    if not len(class_names) == before.size == after.size:
        raise DimensionError("class names and histograms must have equal length")
    with open(path, "w") as fh:
        fh.write("class,before,after\n")
        for name, b, a in zip(class_names, before, after):
            fh.write(f"{name},{int(b)},{int(a)}\n")


def resample_positions(labels, p: ImbalanceProfile, seed: int) -> np.ndarray:
    """Positions of a uniform per-class subsample to the profile's targets,
    shuffled.

    Deterministic in (labels, p, seed). Each class m contributes exactly
    target_counts[m] positions, drawn without replacement.
    """
    labels = np.asarray(labels)
    if labels.size and labels.max() >= p.target_counts.size:
        raise DimensionError(
            f"label {labels.max()} is outside the profile's {p.target_counts.size} classes"
        )
    if seed < 0:
        raise SpecError(f"resample seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for m in range(p.target_counts.size):
        idx = np.flatnonzero(labels == m)
        target = int(p.target_counts[m])
        if target > idx.size:
            raise SpecError(
                f"profile wants {target} records of class {m} but only {idx.size} exist"
            )
        picked = rng.choice(idx, size=target, replace=False)
        chosen.extend(int(i) for i in picked)
    order = rng.permutation(len(chosen))
    return np.asarray(chosen, dtype=np.int64)[order]


def resample(d: Dataset, p: ImbalanceProfile, seed: int) -> Dataset:
    """The records of ``d`` at :func:`resample_positions`, in that order."""
    if p.target_counts.size != d.num_classes:
        raise DimensionError(
            f"profile covers {p.target_counts.size} classes, dataset has {d.num_classes}"
        )
    positions = resample_positions(d.labels(), p, seed)
    return Dataset(records=tuple(d.records[i] for i in positions), class_names=d.class_names)
