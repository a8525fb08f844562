"""ECG records and datasets: CSV ingestion, synthesis, windowing, splits.

A record is a channels-by-samples float64 matrix with a sample rate and an
integer class label. Record CSV files on disk use the transposed
layout (one row per sample, one column per channel), which is what most
export tools produce; the loader transposes on the way in.

All containers are immutable after construction. Arrays are frozen with
``writeable = False`` so accidental in-place edits fail loudly.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptyDataset,
    MalformedRecord,
    NonFiniteSample,
    OutputError,
    SpecError,
    UnknownClass,
    WindowOutOfRange,
)

# The canonical acquisition setup this package was built around: 12-lead
# recordings at 500 Hz with nine rhythm/morphology classes.
CANONICAL_CLASS_NAMES = ("RBBB", "AF", "Normal", "STD", "I-AVB", "PVC", "PAC", "STE", "LBBB")
CANONICAL_SAMPLE_RATE = 500.0
CANONICAL_LEADS = 12

MANIFEST_FIELDS = ("file", "record_id", "label", "sample_rate")


def _frozen(arr, dtype=np.float64) -> np.ndarray:
    """Return a read-only view or copy of ``arr`` as ``dtype`` (None keeps its dtype).

    Arrays that are already read-only are adopted as-is (the library's own
    constructors use this to avoid copying); writeable caller arrays are
    defensively copied before freezing.
    """
    out = np.asarray(arr, dtype=dtype)
    if out is arr and out.flags.writeable:
        out = out.copy()
    out.flags.writeable = False
    return out


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool, though an ``int`` in Python, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer by :func:`_is_integer`'s rule, or a Python or numpy float."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


# The input rules, each defined once; every site passes the EcgBalanceError subclass it raises.


def _check_fields(fits: dict, error, what: str) -> None:
    """Raise ``error`` naming each field of a ``what`` whose type check in ``fits`` (field name -> passed) failed."""
    mistyped = [name for name, ok in fits.items() if not ok]
    if mistyped:
        raise error(f"{what} fields {mistyped} have the wrong type")


def _check_integer(value, error, name: str = "seed", least: int = 0) -> None:
    """Raise ``error`` unless ``value`` is an integer by :func:`_is_integer`'s rule and at least ``least``;
    by default, the rule for a seed."""
    if not (_is_integer(value) and value >= least):
        kind = "a nonnegative integer" if least == 0 else f"an integer of at least {least}"
        raise error(f"{name} must be {kind}, got {value!r}")


def _all_integers(values, arr: np.ndarray) -> bool:
    """Whether every entry of ``values``, read as ``arr``, is an integer by :func:`_is_integer`'s rule. A sequence
    that is not an array is checked entry by entry, since numpy reads ``[True, 2]`` as int64."""
    return arr.dtype.kind in "iu" and (isinstance(values, np.ndarray) or all(map(_is_integer, values)))


def _check_labels(labels, k: int, n: Optional[int] = None, error=DimensionError, what: str = "labels") -> np.ndarray:
    """``labels`` as an array if they are a vector of integers in [0, ``k``), ``n`` of them if ``n`` is given,
    else ``error``; none are an empty int64 vector. Positions into ``k`` records follow this rule too."""
    arr = np.asarray(labels, dtype=None if np.size(labels) else np.int64)
    shaped = arr.ndim == 1 and n in (None, arr.size)
    if not (shaped and (arr.size == 0 or (_all_integers(labels, arr) and 0 <= arr.min() <= arr.max() < k))):
        raise error(f"{what} must be {'a vector of' if n is None else n} integers in [0, {k})")
    return arr


def _check_counts(counts, error, positive: bool = False, shape_error=DimensionError, what="class counts"):
    """``counts`` as a read-only int64 vector, frozen by :func:`_frozen`'s rule, if it covers at least two classes
    (else ``shape_error``), each an integer by :func:`_is_integer`'s rule, nonnegative or with ``positive`` at
    least 1 (else ``error``)."""
    arr = np.asarray(counts)
    problem = f"{what} must be a 1-D vector of at least two {'positive' if positive else 'nonnegative'} integers"
    if arr.ndim != 1 or arr.size < 2:
        raise shape_error(f"{problem}, got shape {arr.shape}")
    if not (_all_integers(counts, arr) and arr.min() >= int(positive)):
        raise error(f"{problem}, got {counts!r}")
    return _frozen(arr, dtype=np.int64)


@dataclass(frozen=True)
class EcgRecord:
    """One multi-channel recording: a (channels, samples) amplitude matrix."""

    channels: np.ndarray
    sample_rate: float
    label: int
    record_id: str = ""

    def __post_init__(self):
        arr = _frozen(self.channels)
        object.__setattr__(self, "channels", arr)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise MalformedRecord(self.record_id, f"expected a 2-D channels-by-samples matrix, got shape {arr.shape}")
        if self.sample_rate <= 0:
            raise MalformedRecord(self.record_id, f"sample rate must be positive, got {self.sample_rate}")
        if not np.isfinite(arr).all():
            chan, samp = np.argwhere(~np.isfinite(arr))[0]
            raise NonFiniteSample(self.record_id, int(samp), int(chan))
        _check_integer(self.label, UnknownClass, f"record {self.record_id!r}: label")

    @property
    def num_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def length(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of records sharing one layout."""

    records: tuple[EcgRecord, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))
        if len(self.class_names) < 2:
            raise SpecError("a dataset needs at least two class names")
        if len(set(self.class_names)) != len(self.class_names):
            raise SpecError("class names must be distinct")
        for name in self.class_names:
            # classes.txt holds one stripped, nonempty name per line.
            if name != name.strip() or name.splitlines() != [name]:
                raise SpecError(f"class name {name!r} must be nonempty, one line, and not start or end in whitespace")
        rates = {r.sample_rate for r in self.records}
        chans = {r.num_channels for r in self.records}
        if len(rates) > 1 or len(chans) > 1:
            raise SpecError("all records must share channel count and sample rate")
        m = len(self.class_names)
        for r in self.records:
            if r.label >= m:
                raise UnknownClass(f"record {r.record_id!r} has label {r.label} but only {m} classes exist")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EcgRecord]:
        return iter(self.records)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_channels(self) -> int:
        if not self.records:
            raise EmptyDataset("dataset has no records")
        return self.records[0].num_channels

    @property
    def sample_rate(self) -> float:
        if not self.records:
            raise EmptyDataset("dataset has no records")
        return self.records[0].sample_rate

    def labels(self) -> np.ndarray:
        """Labels in record order."""
        return np.array([r.label for r in self.records], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels(), minlength=self.num_classes)

    def take(self, positions) -> Dataset:
        """The records at ``positions``, in order, checked as :func:`generate_synthetic` checks them."""
        at = _check_labels(positions, len(self), error=SpecError, what="positions")
        return Dataset(tuple(self.records[i] for i in at.tolist()), self.class_names)


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split description; the test side takes what the train side leaves."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (_is_number(self.train_fraction) and 0.0 < self.train_fraction < 1.0):
            raise SpecError(f"train_fraction must be a number strictly between 0 and 1, got {self.train_fraction!r}")
        _check_integer(self.seed, SpecError, "split seed")


# ---------------------------------------------------------------------------
# Files: every file the package reads or writes goes through these helpers


def read_input(path, fail, text: bool = False):
    """The file's bytes, or with ``text`` its UTF-8 text. A file that cannot be
    read or decoded raises ``fail(reason)``; the reason names the offset of the
    first undecodable byte."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        return blob.decode("utf-8") if text else blob
    except OSError as exc:
        raise fail(f"cannot read file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise fail(f"not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except ValueError as exc:  # open() refuses a path that holds a NUL byte
        raise fail(f"cannot read file: {exc}") from exc


def write_output(path, *chunks) -> None:
    """Write ``chunks`` to ``path`` in order: a ``str`` as UTF-8, anything else
    (bytes or a contiguous array) as is. A failure raises OutputError."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_output_dir(path) -> None:
    """Create the directory ``path`` and its parents; a failure raises OutputError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def csv_text(rows) -> str:
    """``rows`` as CSV text: ``\n`` after each row, floats (numpy's too) as their
    shortest round-trip ``repr``, and a field quoted only when it holds a comma,
    a quote or a line break. A 2-D float array never needs quoting, so its rows
    are joined directly, faster than the CSV writer would write them."""
    if isinstance(rows, np.ndarray):
        return "".join(",".join(map(repr, row)) + "\n" for row in rows.astype(np.float64, copy=False).tolist())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# CSV ingestion and export


def check_record_ids(ids, manifest=None) -> None:
    """Raise MalformedRecord unless each of ``ids`` can name its own file ``{id}.csv`` in one
    directory: none is empty, ``.`` or ``..``, holds ``/``, ``\\`` or NUL, or repeats another.
    With a ``manifest`` path, the error names the manifest line of the id."""
    seen = set()
    for i, rid in enumerate(ids):
        if rid in seen or rid in ("", ".", "..") or not set(rid).isdisjoint("/\\\0"):
            problem = "repeats another record's id" if rid in seen else "cannot name a file"
            if manifest is None:
                raise MalformedRecord(rid, problem)
            raise MalformedRecord(manifest, f"manifest line {i + 2}: record id {rid!r} {problem}")
        seen.add(rid)


def _read_manifest(path: Path):
    rows = []
    text = read_input(path, lambda reason: MalformedRecord(str(path), reason), text=True)
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        header = tuple(reader.fieldnames or ())
        for f in MANIFEST_FIELDS:
            if f not in header:
                raise MalformedRecord(str(path), f"manifest is missing required column {f!r}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append(
                    (
                        row["file"],
                        row["record_id"],
                        int(row["label"]),
                        float(row["sample_rate"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise MalformedRecord(str(path), f"manifest line {lineno} is unparsable: {exc}") from exc
    except csv.Error as exc:
        raise MalformedRecord(str(path), f"manifest is not valid CSV: {exc}") from exc
    return rows


def _read_record_csv(path: Path, record_id: str) -> np.ndarray:
    text = read_input(path, lambda reason: MalformedRecord(record_id, f"{path}: {reason}"), text=True)
    try:
        data = np.loadtxt(text.splitlines(), delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MalformedRecord(record_id, str(exc)) from exc
    if data.size == 0:
        raise MalformedRecord(record_id, "record file is empty")
    return data


def load_csv(path, manifest=None) -> Dataset:
    """Load a dataset directory of per-record CSV files plus a manifest.

    ``path`` holds one CSV per record (rows are samples, columns are
    channels) and, by default, ``manifest.csv`` with the columns
    ``file,record_id,label,sample_rate``, whose record ids must pass
    :func:`check_record_ids`. Class names come from ``classes.txt`` in the
    directory, else generated placeholder names sized by the largest label
    seen. The manifest and ``classes.txt`` must be UTF-8 text.
    """
    base = Path(path)
    mpath = Path(manifest) if manifest is not None else base / "manifest.csv"
    rows = _read_manifest(mpath)
    check_record_ids([record_id for _, record_id, _, _ in rows], str(mpath))
    cfile = base / "classes.txt"
    if cfile.exists():
        text = read_input(cfile, lambda reason: MalformedRecord(str(cfile), reason), text=True)
        class_names = tuple(ln.strip() for ln in text.splitlines() if ln.strip())
    else:
        top = max((label for _, _, label, _ in rows), default=1)
        class_names = tuple(f"class_{i}" for i in range(max(top + 1, 2)))
    m = len(class_names)
    records = []
    for fname, record_id, label, rate in rows:
        if not 0 <= label < m:
            raise UnknownClass(f"record {record_id!r}: label {label} outside [0, {m})")
        table = _read_record_csv(base / fname, record_id)
        records.append(
            EcgRecord(
                channels=_frozen(np.ascontiguousarray(table.T)),
                sample_rate=rate,
                label=label,
                record_id=record_id,
            )
        )
    return Dataset(records=tuple(records), class_names=class_names)


def write_csv_dataset(d: Dataset, out_dir) -> None:
    """Write ``d`` as a directory loadable by :func:`load_csv`.

    Output is deterministic: record order, file naming, and float
    formatting (shortest round-trip repr) depend only on the dataset.
    """
    check_record_ids([r.record_id for r in d.records])
    manifest = [MANIFEST_FIELDS]
    manifest.extend((f"{r.record_id}.csv", r.record_id, r.label, float(r.sample_rate)) for r in d.records)
    out = Path(out_dir)
    make_output_dir(out)
    write_output(out / "classes.txt", "".join(name + "\n" for name in d.class_names))
    write_output(out / "manifest.csv", csv_text(manifest))
    for r in d.records:
        write_output(out / f"{r.record_id}.csv", csv_text(r.channels.T))


# ---------------------------------------------------------------------------
# Synthesis


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic multi-channel dataset, validated on construction.

    There is one class per ``per_class_counts`` entry and one channel per
    ``channel_gain`` entry. Each class gets a distinct quasi-periodic
    waveform (its own fundamental frequency and pulse sharpness). The
    waveform is a pure function of the class, channel count, and length; the
    seed only drives additive noise and the record order, each from its own
    child stream (see :func:`generate_synthetic`). ``amplitude`` is the
    root-mean-square of the clean waveform before per-channel gain, so
    channel RMS is approximately ``amplitude * channel_gain[c]``.
    """

    length: int = 3000
    per_class_counts: tuple[int, ...] = (64,) * len(CANONICAL_CLASS_NAMES)
    channel_gain: tuple[float, ...] = (1.0,) * CANONICAL_LEADS
    noise_sd: float = 0.0
    seed: int = 0
    sample_rate: float = CANONICAL_SAMPLE_RATE
    amplitude: float = 5.0
    class_names: Optional[tuple[str, ...]] = None
    base_frequency: float = 2.0
    frequency_spacing: float = 1.0

    def __post_init__(self):
        # Numbers are ints or floats, never bools, and list fields tuples or lists: else each fails far from here.
        reals = ("noise_sd", "amplitude", "sample_rate", "base_frequency", "frequency_spacing")
        fits = {name: _is_number(getattr(self, name)) for name in reals} | {
            "per_class_counts": isinstance(self.per_class_counts, (tuple, list)),
            "channel_gain": isinstance(self.channel_gain, (tuple, list)) and all(map(_is_number, self.channel_gain)),
            "class_names": isinstance(self.class_names, (tuple, list, type(None))),
        }
        _check_fields(fits, SpecError, "synth")
        counts = _check_counts(self.per_class_counts, SpecError, shape_error=SpecError, what="per-class counts")
        object.__setattr__(self, "per_class_counts", tuple(counts.tolist()))
        object.__setattr__(self, "channel_gain", tuple(float(g) for g in self.channel_gain))
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))
        if self.n_channels < 1 or not _is_integer(self.length) or self.length < 2:
            raise SpecError("need at least one channel and an integer length of at least two samples")
        for name in (*reals, "channel_gain"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        if any(g <= 0 for g in self.channel_gain):
            raise SpecError("channel gains must be positive")
        if self.noise_sd < 0:
            raise SpecError("noise_sd must be nonnegative")
        _check_integer(self.seed, SpecError)
        if self.amplitude <= 0 or self.sample_rate <= 0:
            raise SpecError("amplitude and sample_rate must be positive")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise SpecError(f"class_names has {len(self.class_names)} names for {self.n_classes} classes")

    @property
    def n_classes(self) -> int:
        return len(self.per_class_counts)

    @property
    def n_channels(self) -> int:
        return len(self.channel_gain)

    def dataset_class_names(self) -> tuple[str, ...]:
        """``class_names``, else the canonical names for nine classes, else ``class_<i>``."""
        if self.class_names is not None:
            return self.class_names
        if self.n_classes == len(CANONICAL_CLASS_NAMES):
            return CANONICAL_CLASS_NAMES
        return tuple(f"class_{i}" for i in range(self.n_classes))


# Cached, so a dataset synthesized in blocks builds each waveform and its order once.
@functools.lru_cache(maxsize=32)
def _class_waveform(spec: SynthSpec, m: int) -> np.ndarray:
    """Clean (channels, length) waveform for class ``m``, gains applied; read-only.

    Deterministic in (spec geometry, m): no randomness enters here. Finite
    parameters whose waveform overflows raise SpecError.
    """
    # Overflow is caught by the finiteness check below, not warned about.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.arange(spec.length, dtype=np.float64) / spec.sample_rate
        f0 = spec.base_frequency + spec.frequency_spacing * m
        sharpness = 2.0 + 1.5 * (m % 4)
        mix = 0.25 + 0.05 * m
        rows = np.empty((spec.n_channels, spec.length), dtype=np.float64)
        for c in range(spec.n_channels):
            phase = 2.0 * np.pi * f0 * t + 0.35 * c
            pulse = np.exp(sharpness * (np.cos(phase) - 1.0))
            pulse -= pulse.mean()
            rows[c] = pulse + mix * np.sin(2.0 * phase + 0.6 * m)
        rms = np.sqrt(np.mean(rows * rows))
        rows *= spec.amplitude / rms
        rows *= np.asarray(spec.channel_gain, dtype=np.float64)[:, None]
    if not np.all(np.isfinite(rows)):
        raise SpecError(f"the waveform of class {m} is not finite for these parameters")
    rows.flags.writeable = False
    return rows


# Child streams of SeedSequence(spec.seed): record (m, j) of class m draws its
# noise from spawn key (_NOISE, m, j), and the dataset order comes from (_ORDER,).
_NOISE, _ORDER = 0, 1


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@functools.lru_cache(maxsize=4)
def _synth_order(spec: SynthSpec) -> np.ndarray:
    """Class-major record index (class 0's records first) at each dataset position; read-only."""
    order = _stream(spec.seed, _ORDER).permutation(sum(spec.per_class_counts))
    order.flags.writeable = False
    return order


def synth_labels(spec: SynthSpec) -> np.ndarray:
    """Labels of ``generate_synthetic(spec)`` in dataset order, drawing no noise."""
    order = _synth_order(spec)
    return np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.per_class_counts)[order]


def generate_synthetic(spec: SynthSpec, positions=None) -> Dataset:
    """Generate a labeled dataset from ``spec``; fully seeded and repeatable.

    With ``positions``, only the records at those positions of the full
    dataset are built, in the order given; each record equals the full
    dataset's record at its position bit for bit, because every record
    draws its noise from its own stream. Positions outside ``[0, N)``
    raise :class:`SpecError`.
    """
    order = _synth_order(spec)
    if positions is not None:
        order = order[_check_labels(positions, order.size, error=SpecError, what="positions")]
    # Class-major index of each class's first record, then each record's (m, j).
    starts = np.cumsum((0, *spec.per_class_counts))
    classes = np.searchsorted(starts, order, side="right") - 1
    records = []
    for m, j in zip(classes.tolist(), (order - starts[classes]).tolist()):
        clean = _class_waveform(spec, m)
        if spec.noise_sd > 0:
            x = clean + _stream(spec.seed, _NOISE, m, j).normal(0.0, spec.noise_sd, size=clean.shape)
        else:
            x = clean.copy()
        x.flags.writeable = False
        records.append(
            EcgRecord(channels=x, sample_rate=spec.sample_rate, label=m, record_id=f"synth-c{m}-r{j:04d}")
        )
    return Dataset(records=tuple(records), class_names=spec.dataset_class_names())


# ---------------------------------------------------------------------------
# Windowing and splitting


def _check_window(r: EcgRecord, skip: int, take: int) -> None:
    if skip < 0 or take < 1 or skip + take > r.length:
        raise WindowOutOfRange(
            f"window [{skip}, {skip + take}) does not fit in record {r.record_id!r} of length {r.length}"
        )


def window_record(r: EcgRecord, skip: int, take: int) -> EcgRecord:
    """Return samples ``[skip, skip + take)`` of every channel."""
    _check_window(r, skip, take)
    segment = r.channels[:, skip : skip + take]
    return EcgRecord(channels=segment, sample_rate=r.sample_rate, label=r.label, record_id=r.record_id)


def window_records(records: Sequence[EcgRecord], skip: int, take: int) -> np.ndarray:
    """Samples ``[skip, skip + take)`` of every record as one writable
    (records, channels, take) array. The records must share a channel count."""
    for r in records:
        _check_window(r, skip, take)
    return np.stack([r.channels[:, skip : skip + take] for r in records])


def split_positions(labels, n_classes: int, s: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test positions into ``labels``.

    Per class, positions are shuffled with the split seed and the first
    ``floor(count * train_fraction)`` go to the train side, classes in
    order. Every position lands in exactly one side. No labels are an
    EmptyDataset, and labels that are not integers in ``[0, n_classes)`` a
    DimensionError.
    """
    if np.size(labels) == 0:
        raise EmptyDataset("cannot split an empty dataset")
    labels = _check_labels(labels, n_classes)
    rng = np.random.default_rng(s.seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for m in range(n_classes):
        idx = np.flatnonzero(labels == m)
        if idx.size == 0:
            continue
        shuffled = idx[rng.permutation(idx.size)]
        k = math.floor(idx.size * s.train_fraction)
        train_idx.append(shuffled[:k])
        test_idx.append(shuffled[k:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def split(d: Dataset, s: SplitSpec) -> tuple[Dataset, Dataset]:
    """Stratified train/test split: the records at :func:`split_positions`."""
    return tuple(d.take(idx) for idx in split_positions(d.labels(), d.num_classes, s))
