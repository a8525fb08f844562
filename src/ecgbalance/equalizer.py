"""Channel magnitude diagnostics and the channel magnitude equalizer (CME).

Multi-lead recordings routinely span two orders of magnitude across
channels. The equalizer computes one scale factor per channel as a softmax
over the negated channel RMS values, so quiet channels are boosted
relative to loud ones while the factors stay positive and sum to one. The
scaled record is then interpolated onto a fixed-size image grid so a
classifier sees a uniform input shape regardless of record length or
channel count. An :class:`EncoderSpec`'s kind picks the network's input:
that image (``cme``), the same image without the factors (``image``), or
the raw window (``raw``). :func:`featurize_records` is the one
implementation of all three, run on whatever records its caller passes, a
block at a time in :func:`ecgbalance.trainer.featurize`; :func:`cme_factors`
and :func:`encode_image` are its CME steps applied to a single record.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import Dataset, EcgRecord, _check_fields, _frozen, csv_text, read_input, window_records, write_output
from .errors import ConfigError, DimensionError, EmptyDataset, EncodeError, SpecError

ENCODE_KINDS = ("cme", "image", "raw")


@dataclass(frozen=True)
class EncoderSpec:
    """How a record becomes the network's input, flattened. Kind "cme": window (skip, take), equalize channel RMS,
    encode to a (height, width) image. Kind "image": the same without equalizing. Kind "raw": window (0, raw_take).
    ``magnitude_mode`` is always "rms"."""

    kind: str = "cme"
    height: int = 128
    width: int = 128
    skip: int = 500
    take: int = 2500
    raw_take: int = 3000
    magnitude_mode: str = "rms"  # the one statistic; every model header names it

    def __post_init__(self):
        # Exact types: a float, None or string size fails far from here; a bool windows one sample.
        fits = {f.name: type(getattr(self, f.name)) is type(f.default) for f in fields(self)}
        _check_fields(fits, ConfigError, "encoder")
        if self.kind not in ENCODE_KINDS:
            raise ConfigError(f"unknown encode kind {self.kind!r}; expected one of {ENCODE_KINDS}")
        _check_magnitude_mode(self.magnitude_mode)


def _check_magnitude_mode(mode) -> None:
    if mode != "rms":
        raise ConfigError(f"unknown magnitude mode {mode!r}; the channel magnitude is the RMS, 'rms'")


def _rms(channels: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(channels * channels, axis=-1))


@dataclass(frozen=True)
class ChannelMagnitudeStats:
    """Per-channel and per-class magnitude summary of a labeled dataset.

    ``per_channel_rms`` is each channel's RMS over all samples of all
    records. ``per_channel_mean_power`` is, despite its name, the mean
    *absolute amplitude* over the same samples, not a mean square; the name
    stays so the ``mean_power`` column of the stats file does not change.
    ``per_class_scale[m, c]`` is the mean per-record RMS of channel ``c``
    over class-``m`` records, divided by the grand mean RMS over all
    (record, channel) pairs. Classes with no records get a NaN row.
    """

    per_channel_rms: np.ndarray
    per_channel_mean_power: np.ndarray
    per_class_scale: np.ndarray

    def __post_init__(self):
        for name in ("per_channel_rms", "per_channel_mean_power", "per_class_scale"):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype=None))


def channel_stats(d: Dataset) -> ChannelMagnitudeStats:
    """Pooled RMS, mean absolute amplitude, and per-class scale profile."""
    if len(d) == 0:
        raise EmptyDataset("channel statistics need at least one record")
    labels = d.labels()
    n_channels = d.num_channels
    n_classes = d.num_classes
    sq_sum = np.zeros(n_channels)
    abs_sum = np.zeros(n_channels)
    total_samples = 0
    per_record_rms = np.empty((len(d), n_channels))
    # Overflow is caught by the finiteness check below, not warned about.
    with np.errstate(over="ignore"):
        for i, r in enumerate(d.records):
            x = r.channels
            sq_sum += np.sum(x * x, axis=1)
            abs_sum += np.sum(np.abs(x), axis=1)
            total_samples += r.length
            per_record_rms[i] = _rms(x)
    grand_mean = float(per_record_rms.mean())
    if not np.all(np.isfinite(sq_sum)):
        raise SpecError("channel magnitudes overflow float64")
    if grand_mean == 0.0:
        raise EmptyDataset("channel statistics need a record with nonzero RMS; every record's RMS is zero")
    scale = np.full((n_classes, n_channels), np.nan)
    for m in range(n_classes):
        mask = labels == m
        if mask.any():
            scale[m] = per_record_rms[mask].mean(axis=0) / grand_mean
    return ChannelMagnitudeStats(
        per_channel_rms=np.sqrt(sq_sum / total_samples),
        per_channel_mean_power=abs_sum / total_samples,
        per_class_scale=scale,
    )


def _factors(windows: np.ndarray) -> np.ndarray:
    """(n, C) factors for (n, C, T) windows: a softmax over each row's
    negated channel RMS, normalized by an exactly rounded sum."""
    # Overflow is caught by the finiteness check below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        neg = -_rms(windows)
        weights = np.exp(neg - neg.max(axis=1, keepdims=True))
        totals = np.array([math.fsum(row) for row in weights.tolist()])
        k = weights / totals[:, None]
    if not np.all(np.isfinite(k)):
        raise SpecError("scale factors must be finite and nonnegative")
    return k


def _encode(windows: np.ndarray, height: int, width: int, record_id: str) -> np.ndarray:
    """(n, height, width) images of (n, C, T) windows.

    Time is resampled by a two-tap gather that computes exactly what
    ``np.interp`` does on the sample axis ``0 .. T-1``; channels are then
    mixed onto ``height`` rows the same way.
    """
    n_channels, length = windows.shape[1:]
    if length < 2:
        raise EncodeError(f"record {record_id!r} is too short to interpolate (length {length})")
    if height < n_channels:
        raise EncodeError(f"height {height} is smaller than the channel count {n_channels}")
    if width < 1:
        raise EncodeError(f"width must be positive, got {width}")
    pos = np.linspace(0.0, length - 1.0, width)
    lo = np.minimum(pos.astype(np.int64), length - 2)
    left = windows[:, :, lo]
    # Overflow is caught by the finiteness check below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (windows[:, :, lo + 1] - left) * (pos - lo) + left
        rows[:, :, pos == length - 1.0] = windows[:, :, -1:]
        if n_channels == 1:
            pixels = np.repeat(rows, height, axis=1)
        else:
            pos = np.linspace(0.0, n_channels - 1.0, height)
            lo = np.minimum(pos.astype(np.int64), n_channels - 2)
            frac = (pos - lo)[:, None]
            pixels = (1.0 - frac) * rows[:, lo] + frac * rows[:, lo + 1]
    if not np.all(np.isfinite(pixels)):
        raise EncodeError("image contains non-finite pixels")
    return pixels


def featurize_records(records: Sequence[EcgRecord], encoder: EncoderSpec) -> np.ndarray:
    """Every record as ``encoder`` gives it to the network, before flattening.

    Kind "raw" gives the (n, C, raw_take) windows. Kind "cme" gives
    window -> factors -> scale -> encode: (n, height, width); kind "image"
    skips the factors. The temporaries are a few times the size of the
    records' windows, so callers pass a block of records, not a dataset.
    ``records`` must be nonempty and share a channel count.

    The factors are a softmax over each window's negated per-channel RMS,
    whose denominator is an exactly rounded float sum, so they are invariant
    under channel permutation, not merely close. They depend on the record's
    units, because the softmax takes absolute magnitudes: scaling a record by
    ``s`` moves them toward ``1/C`` as ``s`` goes to 0 and toward one-hot on
    the quietest channel as ``s`` grows. Only magnitudes of order one leave
    every channel a share.
    """
    if encoder.kind == "raw":
        return window_records(records, 0, encoder.raw_take)
    windows = window_records(records, encoder.skip, encoder.take)
    if encoder.kind == "cme":
        windows *= _factors(windows)[:, :, None]
    return _encode(windows, encoder.height, encoder.width, records[0].record_id)


def cme_factors(r: EcgRecord, mode: str = EncoderSpec.magnitude_mode) -> np.ndarray:
    """:func:`featurize_records`' CME factors of a whole record; ``mode`` must be "rms", else a ConfigError."""
    _check_magnitude_mode(mode)
    return _factors(r.channels[None])[0]


def encode_image(r: EcgRecord, height: int, width: int) -> np.ndarray:
    """Piecewise-linear resample of a record onto a (height, width) grid.

    Stage one interpolates each channel along time onto ``width`` points;
    stage two interpolates across channels onto ``height`` rows. Both axes
    pin their endpoints, so when the grid matches the record shape the
    image reproduces the record exactly, and every pixel stays inside the
    per-stage convex hull of its neighbours (no overshoot).
    """
    return _encode(r.channels[None], height, width, r.record_id)[0]


def write_stats_csv(stats: ChannelMagnitudeStats, class_names, path) -> None:
    """One row per channel: pooled RMS, mean |amplitude|, per-class scale."""
    names = tuple(class_names)
    if stats.per_class_scale.shape[0] != len(names):
        raise DimensionError(
            f"stats cover {stats.per_class_scale.shape[0]} classes, got {len(names)} names"
        )
    header = ["channel", "rms", "mean_power"] + [f"scale_{n}" for n in names]
    columns = (range(stats.per_channel_rms.size), stats.per_channel_rms, stats.per_channel_mean_power)
    write_output(path, csv_text([header, *zip(*columns, *stats.per_class_scale)]))


# ---------------------------------------------------------------------------
# Image export: a text form for inspection and a raw form for exact exchange


def write_image_csv(pixels: np.ndarray, path) -> None:
    """Rows of comma-separated shortest round-trip decimals."""
    write_output(path, csv_text(pixels))


def read_image_csv(path) -> np.ndarray:
    text = read_input(path, lambda reason: EncodeError(f"{path}: {reason}"), text=True)
    try:
        return np.loadtxt(text.splitlines(), delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise EncodeError(f"{path}: {exc}") from exc


def write_image_raw(pixels: np.ndarray, path) -> None:
    """16-byte header (height, width as little-endian uint64), then
    row-major little-endian float64 pixels. Byte-exact round trip."""
    write_output(path, struct.pack("<QQ", *pixels.shape), np.ascontiguousarray(pixels, dtype="<f8"))


def read_image_raw(path) -> np.ndarray:
    blob = read_input(path, lambda reason: EncodeError(f"{path}: {reason}"))
    if len(blob) < 16:
        raise EncodeError(f"{path} is too short to hold a raw image header")
    height, width = struct.unpack("<QQ", blob[:16])
    body = blob[16:]
    expected = height * width * 8
    if len(body) != expected:
        raise EncodeError(f"{path}: expected {expected} pixel bytes, found {len(body)}")
    return np.frombuffer(body, dtype="<f8").reshape(height, width).astype(np.float64)
