import dataclasses
import math
import struct

import numpy as np
import pytest

from ecgbalance import (
    Dataset,
    EcgRecord,
    EncoderSpec,
    channel_stats,
    cme_factors,
    encode_image,
    featurize_records,
    window_record,
)
from ecgbalance.equalizer import (
    read_image_csv,
    read_image_raw,
    write_image_csv,
    write_image_raw,
    write_stats_csv,
)
from ecgbalance.errors import ConfigError, DimensionError, EmptyDataset, EncodeError, SpecError, WindowOutOfRange
from ecgbalance.trainer import BLOCK_RECORDS, featurize, featurize_dataset

from conftest import dataset_from_arrays, make_record, random_record, tiny_dataset, traced_peak


# ---------------------------------------------------------------------------
# channel_stats


def test_stats_constant_channels_are_symmetric():
    arrays = [np.full((3, 10), -2.0), np.full((3, 10), -2.0)]
    d = dataset_from_arrays(arrays, [0, 1], ("a", "b"))
    stats = channel_stats(d)
    assert np.allclose(stats.per_channel_rms, 2.0)
    assert np.allclose(stats.per_channel_mean_power, 2.0)
    assert np.allclose(stats.per_class_scale, 1.0)


def test_stats_doubled_channel_scales_by_two():
    rng = np.random.default_rng(5)
    arrays = []
    for _ in range(6):
        base = rng.normal(size=(1, 40))
        arrays.append(np.vstack([base, 2.0 * base]))
    d = dataset_from_arrays(arrays, [0, 0, 1, 1, 2, 2], ("a", "b", "c"))
    stats = channel_stats(d)
    for m in range(3):
        ratio = stats.per_class_scale[m, 1] / stats.per_class_scale[m, 0]
        assert ratio == pytest.approx(2.0, rel=1e-12)


def test_stats_match_generator_gains():
    # Two seconds at 500 Hz covers whole periods for every class frequency,
    # so per-channel phase offsets do not perturb the rms ratios.
    d = tiny_dataset(n_channels=3, per_class=5, length=1000, noise_sd=0.0)
    # Gains fall by decades: 1, 0.1, 0.01.
    stats = channel_stats(d)
    ratios = stats.per_channel_rms / stats.per_channel_rms[0]
    assert ratios[1] == pytest.approx(0.1, rel=0.10)
    assert ratios[2] == pytest.approx(0.01, rel=0.10)


def test_stats_class_frequency_weighted_scale_mean_is_one():
    d = tiny_dataset(n_classes=3, per_class=4, noise_sd=0.3)
    stats = channel_stats(d)
    weights = d.class_counts() / len(d)
    grand = float((stats.per_class_scale * weights[:, None]).sum() / d.num_channels * 1.0)
    # Weighted row mean over classes, averaged over channels, recovers 1.
    assert grand == pytest.approx(1.0, abs=1e-9)


def test_stats_empty_class_is_flagged_not_fabricated():
    arrays = [np.ones((2, 8)), np.ones((2, 8))]
    d = dataset_from_arrays(arrays, [0, 0], ("a", "b"))
    stats = channel_stats(d)
    assert np.isnan(stats.per_class_scale).all(axis=1).tolist() == [False, True]


def test_stats_need_records():
    from ecgbalance import Dataset

    with pytest.raises(EmptyDataset):
        channel_stats(Dataset(records=(), class_names=("a", "b")))


def test_stats_reject_magnitudes_without_a_finite_nonzero_scale():
    zero = dataset_from_arrays([np.zeros((2, 10))] * 4, [0, 1, 0, 1], ("a", "b"))
    with pytest.raises(EmptyDataset, match="nonzero RMS"):
        channel_stats(zero)
    # Squares that underflow leave no scale either.
    tiny = dataset_from_arrays([np.full((2, 10), 1e-200)] * 2, [0, 1], ("a", "b"))
    with pytest.raises(EmptyDataset, match="nonzero RMS"):
        channel_stats(tiny)
    huge = dataset_from_arrays([np.full((2, 10), 1e200)] * 2, [0, 1], ("a", "b"))
    with pytest.raises(SpecError, match="overflow"):
        channel_stats(huge)


def test_stats_csv_lists_every_channel(tmp_path):
    d = tiny_dataset()
    stats = channel_stats(d)
    out = tmp_path / "stats.csv"
    write_stats_csv(stats, d.class_names, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("channel,rms,mean_power,scale_")
    assert len(lines) == 1 + d.num_channels


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-over"])
def test_stats_csv_needs_one_name_per_class(tmp_path, extra):
    d = tiny_dataset()
    names = (*d.class_names, "extra")[: d.num_classes + extra]
    with pytest.raises(DimensionError, match=f"stats cover {d.num_classes} classes, got {len(names)} names"):
        write_stats_csv(channel_stats(d), names, tmp_path / "stats.csv")
    assert not (tmp_path / "stats.csv").exists()


# ---------------------------------------------------------------------------
# cme_factors


def test_factors_equal_magnitudes_are_uniform():
    r = make_record(np.ones((4, 10)))
    k = cme_factors(r)
    assert np.array_equal(k, np.full(4, 0.25))


def test_factors_two_channel_softmax_oracle():
    # RMS magnitudes exactly 1 and 2; softmax(-g) of [1, 2].
    r = make_record(np.vstack([np.ones(16), 2.0 * np.ones(16)]))
    k = cme_factors(r)
    assert k[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert k[1] == pytest.approx(0.2689414213699951, abs=1e-15)


def test_factors_all_zero_record_is_uniform():
    r = make_record(np.zeros((12, 30)))
    assert np.array_equal(cme_factors(r), np.full(12, 1.0 / 12.0))


def test_factors_survive_extreme_magnitudes():
    r = make_record(np.vstack([np.full(8, 1e6), np.full(8, 1e-6), np.zeros(8)]))
    k = cme_factors(r)
    assert np.all(np.isfinite(k))
    assert math.fsum(k.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert k[0] < k[1] < k[2]


def test_factors_sum_permutation_and_antimonotone(rng):
    for _ in range(300):
        r = random_record(rng)
        k = cme_factors(r)
        assert abs(math.fsum(k.tolist()) - 1.0) <= 1e-12
        perm = rng.permutation(r.num_channels)
        k_perm = cme_factors(make_record(r.channels[perm]))
        # Equivariance is exact, not approximate.
        assert np.array_equal(k_perm, k[perm])
        rms = np.sqrt(np.mean(r.channels**2, axis=1))
        for a in range(r.num_channels):
            for b in range(r.num_channels):
                if rms[a] - rms[b] > 1e-9:
                    # Strictly anti-monotone until the softmax underflows;
                    # factors that collapse to subnormals can only tie.
                    if k[b] > 1e-280:
                        assert k[a] < k[b]
                    else:
                        assert k[a] <= k[b]


def test_factors_depend_on_the_record_units():
    # A softmax over absolute RMS: toward 1/C as the record shrinks, toward
    # one-hot on the quietest channel as it grows.
    gains = np.array([1.0, 0.9, 0.3, 0.1, 0.01])[:, None]
    r = make_record(np.random.default_rng(0).normal(size=(5, 200)) * gains)
    scaled = {s: cme_factors(make_record(s * r.channels)) for s in (1e-9, 1.0, 5.0, 1e4)}
    assert np.allclose(scaled[1e-9], 1.0 / 5.0, rtol=0.0, atol=1e-9)
    quiet = np.argmin(np.sqrt(np.mean(r.channels**2, axis=1)))
    assert quiet == 4 and scaled[1e4][quiet] == 1.0 and scaled[1e4].sum() == 1.0
    assert not np.array_equal(scaled[5.0], scaled[1.0])
    # The spread grows with the scale: the quietest channel's share rises monotonically.
    assert scaled[1e-9][quiet] < scaled[1.0][quiet] < scaled[5.0][quiet] < scaled[1e4][quiet]


@pytest.mark.parametrize("mode", ["power", "l2", "RMS"])
def test_factors_unknown_mode(mode):
    # RMS is the one magnitude statistic; the keyword refuses the rest by EncoderSpec's rule.
    r = make_record(np.ones((2, 4)))
    with pytest.raises(ConfigError, match="unknown magnitude mode"):
        cme_factors(r, mode=mode)


# ---------------------------------------------------------------------------
# scaling (inside featurize_records; an identity grid shows the scaled window)


def identity_image(r):
    """featurize_records on a grid matching the record: the scaled record itself."""
    return featurize_records([r], EncoderSpec(height=r.num_channels, width=r.length, skip=0, take=r.length))[0]


def test_scale_uniform_factor():
    # Rows with equal RMS get the uniform factor 1/3.
    x = np.array([[1.0, -2.0, 3.0, 4.0], [4.0, 3.0, -2.0, 1.0], [-1.0, 2.0, -3.0, -4.0]])
    # Scaling multiplies by the factor; x * (1/3) and x / 3 differ by an ulp.
    assert np.array_equal(identity_image(make_record(x)), x * (1.0 / 3.0))


def test_scale_sets_rms_ratio_exactly(rng):
    for _ in range(50):
        r = random_record(rng)
        k = cme_factors(r)
        out = identity_image(r)
        rms_in = np.sqrt(np.mean(r.channels**2, axis=1))
        rms_out = np.sqrt(np.mean(out**2, axis=1))
        mask = rms_in > 0
        assert np.allclose(rms_out[mask] / rms_in[mask], k[mask], atol=1e-12)


# ---------------------------------------------------------------------------
# encode_image


def test_encode_identity_grid_reproduces_record():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 25))
    img = encode_image(make_record(x), height=4, width=25)
    assert np.array_equal(img, x)


def test_encode_constant_channel_rows():
    x = np.vstack([np.full(10, 3.0), np.full(10, -1.0)])
    img = encode_image(make_record(x), height=5, width=7)
    assert np.allclose(img[0], 3.0)
    assert np.allclose(img[-1], -1.0)


def test_encode_rows_are_convex_combinations_of_adjacent_channels():
    x = np.vstack([np.zeros(6), np.ones(6)])
    img = encode_image(make_record(x), height=3, width=6)
    assert np.allclose(img[1], 0.5)


def test_encode_pixels_stay_in_input_range(rng):
    for _ in range(100):
        r = random_record(rng, length=int(rng.integers(2, 40)))
        h = int(rng.integers(r.num_channels, 2 * r.num_channels + 4))
        w = int(rng.integers(1, 60))
        img = encode_image(r, height=h, width=w)
        assert img.min() >= r.channels.min() - 1e-12
        assert img.max() <= r.channels.max() + 1e-12


def test_encode_single_channel_repeats_rows():
    x = np.sin(np.linspace(0, 2 * np.pi, 30))[None, :]
    img = encode_image(make_record(x), height=4, width=30)
    for row in img:
        assert np.array_equal(row, img[0])


def test_encode_tone_keeps_peak_frequency():
    fs = 500.0
    n = 1000
    t = np.arange(n) / fs
    tone = np.sin(2 * np.pi * 5.0 * t)
    img = encode_image(make_record(tone[None, :], sample_rate=fs), height=1, width=500)
    span = (n - 1) / fs
    freqs = np.fft.rfftfreq(500, d=span / 499)
    row = img[0] - img[0].mean()
    peak = freqs[np.argmax(np.abs(np.fft.rfft(row)))]
    assert abs(peak - 5.0) <= freqs[1]


def test_encode_rejects_short_records_and_small_heights():
    with pytest.raises(EncodeError):
        encode_image(make_record(np.ones((2, 1))), height=4, width=8)
    with pytest.raises(EncodeError):
        encode_image(make_record(np.ones((4, 10))), height=3, width=8)
    with pytest.raises(EncodeError):
        encode_image(make_record(np.ones((2, 10))), height=2, width=0)


# ---------------------------------------------------------------------------
# featurize_records: window -> factors -> scale -> encode


def test_pipeline_equals_manual_composition(rng):
    r = random_record(rng, n_channels=4, length=3000)
    img = featurize_records([r], EncoderSpec(height=8, width=64))[0]
    windowed = window_record(r, 500, 2500)
    scaled = make_record(windowed.channels * cme_factors(windowed)[:, None])
    manual = encode_image(scaled, 8, 64)
    assert np.array_equal(img, manual)


def test_pipeline_dominant_channel_gets_smallest_factor():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 3000))
    x[1] *= 50.0
    r = make_record(x)
    k = cme_factors(window_record(r, 500, 2500))
    assert np.argmin(k) == 1


def test_pipeline_channel_permutation_permutes_rows():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3000)) * np.array([1.0, 3.0, 0.2, 7.0])[:, None]
    perm = np.array([2, 0, 3, 1])
    enc = EncoderSpec(height=4, width=40)
    a = featurize_records([make_record(x)], enc)[0]
    b = featurize_records([make_record(x[perm])], enc)[0]
    # H = C keeps one row per channel, so rows permute exactly.
    assert np.array_equal(b, a[perm])


def reference_image(channels, height, width, skip, take, equalize):
    """One record, one channel at a time, through np.interp."""
    x = channels[:, skip : skip + take]
    if equalize:
        g = np.sqrt(np.mean(x * x, axis=1))
        weights = np.exp(-g - (-g).max())
        x = x * (weights / math.fsum(weights.tolist()))[:, None]
    n_channels, length = x.shape
    xs = np.linspace(0.0, length - 1.0, width)
    rows = np.array([np.interp(xs, np.arange(length, dtype=np.float64), x[c]) for c in range(n_channels)])
    if n_channels == 1:
        return np.repeat(rows, height, axis=0)
    pos = np.linspace(0.0, n_channels - 1.0, height)
    lo = np.minimum(pos.astype(np.int64), n_channels - 2)
    frac = (pos - lo)[:, None]
    return (1.0 - frac) * rows[lo] + frac * rows[lo + 1]


def test_featurize_matches_per_record_reference():
    rng = np.random.default_rng(41)
    shapes = {"c1": 0, "h=c": 0, "w1": 0, "w=take": 0, "ragged": 0, "multi-block": 0, "long": 0}
    for i in range(320):
        # i % 5 picks the corner case, i % 3 ragged lengths;
        # every 35th geometry has a take beyond numpy's 8192-element summation
        # blocks and every 25th spans several of featurize's blocks.
        c = 1 if i % 5 == 0 else int(rng.integers(2, 9))
        take = int(rng.integers(8190, 8400)) if i % 35 == 3 else int(rng.integers(2, 90))
        skip = int(rng.integers(0, 20))
        n = int(rng.integers(65, 140)) if i % 25 == 9 else int(rng.integers(1, 6))
        lengths = skip + take + rng.integers(0, 4 if i % 3 else 1, size=n)
        height = c if i % 5 == 1 else int(rng.integers(c, 2 * c + 3))
        width = {2: 1, 3: take}.get(i % 5, int(rng.integers(1, 2 * take + 2)))
        records = tuple(
            EcgRecord(
                channels=rng.normal(size=(c, int(m))) * np.exp(rng.normal(0.0, 3.0, size=(c, 1))),
                sample_rate=500.0,
                label=j % 2,
                record_id=f"g{i}-r{j}",
            )
            for j, m in enumerate(lengths)
        )
        d = Dataset(records=records, class_names=("a", "b"))
        enc = EncoderSpec(kind="cme", height=height, width=width, skip=skip, take=take)
        for kind, equalize in (("cme", True), ("image", False)):
            expected = np.stack(
                [reference_image(r.channels, height, width, skip, take, equalize) for r in records]
            )
            got = featurize_records(records, dataclasses.replace(enc, kind=kind))
            assert np.array_equal(got, expected), (i, kind)
        flat = np.stack([reference_image(r.channels, height, width, skip, take, True).ravel() for r in records])
        assert np.array_equal(featurize_dataset(d, enc), flat)
        raw_enc = EncoderSpec(kind="raw", raw_take=skip + take)
        windows = np.stack([r.channels[:, : skip + take] for r in records])
        assert np.array_equal(featurize_records(records, raw_enc), windows)
        raw = windows.reshape(n, -1)
        assert np.array_equal(featurize_dataset(d, raw_enc), raw)
        blocked = featurize(d.take, np.arange(n), {"cme": enc, "raw": raw_enc})
        assert np.array_equal(blocked["cme"], flat) and np.array_equal(blocked["raw"], raw)
        shapes["c1"] += c == 1
        shapes["h=c"] += height == c
        shapes["w1"] += width == 1
        shapes["w=take"] += width == take
        shapes["ragged"] += len(set(lengths.tolist())) > 1
        shapes["multi-block"] += n > 4 * BLOCK_RECORDS
        shapes["long"] += take > 8192
    assert min(shapes.values()) >= 2, shapes


def test_featurize_records_checks_every_block():
    x = np.ones((2, 40))
    good = [make_record(x, record_id=f"ok{i}") for i in range(70)]
    loud = make_record(np.full((2, 40), 1e200), record_id="loud")
    short = make_record(np.ones((2, 30)), record_id="short")
    # Neighbouring samples 1.7e308 apart overflow the time interpolation.
    huge = make_record(np.tile([1.7e308, -1.7e308], (2, 20)), record_id="huge")
    cases = [
        (loud, "cme", SpecError, "scale factors must be finite"),
        (short, "cme", WindowOutOfRange, "'short' of length 30"),
        (huge, "image", EncodeError, "non-finite pixels"),
    ]
    # featurize meets each bad record in its last block, past the first BLOCK_RECORDS.
    assert len(good) > 4 * BLOCK_RECORDS
    for bad, kind, error, message in cases:
        enc = EncoderSpec(kind, height=2, width=8, skip=0, take=40)
        with pytest.raises(error, match=message):
            featurize_records(good + [bad], enc)
        d = Dataset(records=(*good, bad), class_names=("a", "b"))
        with pytest.raises(error, match=message):
            featurize(d.take, np.arange(len(d)), {kind: enc})


def test_featurize_temporaries_stay_below_the_huge_page_threshold():
    # Criterion-7 geometry: 12 leads x 1000 samples, a 166+832 window, a 12x125 image.
    # A block's window stack and its squares temporary each stay under numpy's
    # 4 MiB huge-page threshold, so featurizing many records holds little beyond its output.
    rng = np.random.default_rng(7)
    gains = np.geomspace(1.0, 0.01, 12)[:, None]
    records = [make_record(rng.normal(size=(12, 1000)) * gains, record_id=f"r{i}") for i in range(64)]
    d = Dataset(records=records, class_names=("a", "b"))
    enc = EncoderSpec(height=12, width=125, skip=166, take=832)
    features, peak = traced_peak(featurize, d.take, np.arange(64), {"cme": enc})
    x = features["cme"]
    assert x.shape == (64, 12 * 125)
    assert peak - x.nbytes < 4 * 2**20, f"{(peak - x.nbytes) / 2**20:.2f} MiB beyond the output"


# ---------------------------------------------------------------------------
# image export


def test_image_csv_round_trip(tmp_path, rng):
    img = encode_image(random_record(rng, n_channels=3, length=40), height=5, width=16)
    path = tmp_path / "img.csv"
    write_image_csv(img, path)
    back = read_image_csv(path)
    assert np.array_equal(back, img)


def test_image_raw_format_and_round_trip(tmp_path, rng):
    img = encode_image(random_record(rng, n_channels=2, length=20), height=4, width=9)
    path = tmp_path / "img.f64"
    write_image_raw(img, path)
    blob = path.read_bytes()
    # Exactly a 16-byte header then H*W little-endian doubles.
    assert len(blob) == 16 + 4 * 9 * 8
    h, w = struct.unpack("<QQ", blob[:16])
    assert (h, w) == (4, 9)
    assert np.array_equal(read_image_raw(path), img)


def test_image_raw_truncation_detected(tmp_path):
    path = tmp_path / "bad.f64"
    path.write_bytes(struct.pack("<QQ", 2, 3) + b"\x00" * 10)
    with pytest.raises(EncodeError):
        read_image_raw(path)


def test_image_raw_shorter_than_its_header_is_an_encode_error(tmp_path):
    path = tmp_path / "short.f64"
    path.write_bytes(struct.pack("<QQ", 2, 3)[:15])
    with pytest.raises(EncodeError, match="too short to hold a raw image header"):
        read_image_raw(path)


def test_unreadable_image_files_are_encode_errors(tmp_path):
    (tmp_path / "ragged.csv").write_text("1.0,2.0\n3.0\n")
    with pytest.raises(EncodeError, match="ragged.csv"):
        read_image_csv(tmp_path / "ragged.csv")
    for read in (read_image_csv, read_image_raw):
        with pytest.raises(EncodeError, match="cannot read file"):
            read(tmp_path / "missing")
        with pytest.raises(EncodeError, match="cannot read file"):
            read(tmp_path)
