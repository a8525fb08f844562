"""End-to-end acceptance checks.

Each test covers one of the package's nine headline guarantees, prints a
single PASS line with the measured numbers, and enforces its runtime
budget. These are intentionally heavier than the unit tests; the whole
module still finishes in a couple of minutes on one core.
"""

import math
import statistics
import time

import numpy as np
from conftest import dataset_from_arrays, make_record
from mpmath import mp, mpf

from ecgbalance import (
    BaselineLossConfig,
    EncoderSpec,
    IwlConfig,
    SynthSpec,
    TrainConfig,
    cme_factors,
    encode_image,
    gradient_check,
    iwl_point_value,
    iwl_weight,
    longtail_counts,
    make_loss,
    resample,
)
from ecgbalance.cli import main
from ecgbalance.experiment import CellKey, ExperimentSpec, parse_experiment_spec, run_cell, run_experiment, write_results_csv

mp.dps = 60


# ---------------------------------------------------------------------------
# 1. IWL with beta = 0 is cross-entropy


def test_criterion_1_iwl_ce_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    iwl = make_loss(IwlConfig(beta=0.0))
    ce = make_loss(BaselineLossConfig(kind="cross_entropy"))
    worst_value = 0.0
    worst_grad = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        logits = rng.normal(0.0, 4.0, size=k)[None, :]
        label = [int(rng.integers(k))]
        a_value, a_grad = iwl.per_record(logits, label)
        b_value, b_grad = ce.per_record(logits, label)
        worst_value = max(worst_value, abs(a_value[0] - b_value[0]) / max(abs(b_value[0]), 1e-300))
        worst_grad = max(worst_grad, float(np.max(np.abs(a_grad - b_grad))))
    elapsed = time.perf_counter() - t0
    assert worst_value <= 1e-15
    assert worst_grad <= 1e-12
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: beta=0 IWL matches CE over 1000 pairs "
        f"(max value rel diff {worst_value:.1e}, max grad diff {worst_grad:.1e}, {elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 2. Analytical gradients match finite differences for every loss


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    configs = [
        ("ce", BaselineLossConfig(kind="cross_entropy")),
        ("iwl(0.3)", IwlConfig(beta=0.3)),
        ("iwl(1)", IwlConfig(beta=1.0)),
        ("iwl(3)", IwlConfig(beta=3.0)),
        ("focal(2)", BaselineLossConfig(kind="focal", gamma=2.0)),
        ("cb", BaselineLossConfig(kind="class_balanced")),
        ("cb_focal", BaselineLossConfig(kind="cb_focal")),
        ("ldam(0.2,20)", BaselineLossConfig(kind="ldam", ldam_mu=0.2, ldam_s=20.0)),
    ]
    worst = {}
    for tag, cfg in configs:
        res = gradient_check(cfg, trials=100, seed=17, threshold=1e-4)
        worst[tag] = res.max_rel_error
        assert res.passed, f"{tag}: max relative error {res.max_rel_error}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    top = max(worst, key=worst.get)
    print(
        f"PASS criterion 2: 8 losses x 100 trials within 1e-4 "
        f"(worst {top} at {worst[top]:.2e}, {elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 3. IWL monotonicity in the true-class probability


def test_criterion_3_iwl_monotonicity():
    t0 = time.perf_counter()
    grid = np.arange(1, 100, dtype=np.float64) / 100.0
    for beta in (0.1, 0.3, 1.0, 5.0):
        cfg = IwlConfig(beta=beta)
        values = iwl_point_value(grid, cfg)
        weights = iwl_weight(grid, cfg)
        assert np.all(np.diff(values) < 0.0), f"loss not strictly decreasing at beta={beta}"
        assert np.all(np.diff(weights) < 0.0), f"weight not strictly decreasing at beta={beta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 3: loss strictly decreasing and weight strictly decreasing "
        f"over p in [0.01, 0.99] for beta in {{0.1, 0.3, 1, 5}} ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 4. Equalizer factor properties over random records


def test_criterion_4_cme_factor_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    worst_sum = 0.0
    checked_pairs = 0
    for _ in range(1000):
        c = int(rng.integers(2, 13))
        length = int(rng.integers(16, 81))
        scales = rng.uniform(0.01, 100.0, size=(c, 1))
        r = make_record(rng.normal(size=(c, length)) * scales)
        k = cme_factors(r)
        worst_sum = max(worst_sum, abs(math.fsum(k.tolist()) - 1.0))
        perm = rng.permutation(c)
        k_perm = cme_factors(make_record(r.channels[perm]))
        assert np.array_equal(k_perm, k[perm]), "permutation equivariance is not exact"
        rms = np.sqrt(np.mean(r.channels**2, axis=1))
        bigger = rms[:, None] - rms[None, :] > 1e-9
        assert np.all((k[:, None] < k[None, :])[bigger]), "factors not anti-monotone in RMS"
        checked_pairs += int(bigger.sum())
    elapsed = time.perf_counter() - t0
    assert worst_sum <= 1e-12
    assert elapsed < 2.0
    print(
        f"PASS criterion 4: 1000 records, factor sums within {worst_sum:.1e} of 1, "
        f"equivariance exact, {checked_pairs} ordered pairs anti-monotone ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 5. Long-tail targets match the closed form at high precision


def test_criterion_5_resampler_exactness():
    t0 = time.perf_counter()
    counts = np.full(9, 640)
    spec_literal = {
        "0.01": [640, 359, 202, 113, 64, 35, 20, 11, 6],
    }
    for alpha_text in ("0.05", "0.01"):
        alpha = float(alpha_text)
        targets = longtail_counts(counts, alpha).target_counts
        oracle = [
            min(max(1, int(mp.floor(mpf(640) * mpf(alpha_text) ** (mpf(m) / 8)))), 640)
            for m in range(9)
        ]
        assert targets.tolist() == oracle, f"alpha={alpha_text}: {targets.tolist()} vs oracle {oracle}"
        if alpha_text in spec_literal:
            assert targets.tolist() == spec_literal[alpha_text]
        # The resampled histogram itself, not just the plan.
        arrays = [np.full((1, 4), float(i)) for i in range(9) for _ in range(640)]
        labels = [i for i in range(9) for _ in range(640)]
        d = dataset_from_arrays(arrays, labels, class_names=tuple(f"c{i}" for i in range(9)))
        out = resample(d, longtail_counts(d.class_counts(), alpha), seed=0)
        assert np.bincount(out.labels(), minlength=9).tolist() == oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 5: alpha 0.05 and 0.01 histograms equal the floor-min-1 "
        f"closed form at 60-digit precision ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 6. Encoding preserves the dominant frequency


def test_criterion_6_frequency_preservation():
    t0 = time.perf_counter()
    fs = 500.0
    length = 3000
    width = 625
    t = np.arange(length) / fs
    tone = np.sin(2.0 * np.pi * 5.0 * t)
    img = encode_image(make_record(tone[None, :], sample_rate=fs), height=1, width=width)
    row = img[0] - img[0].mean()
    spectrum = np.abs(np.fft.rfft(row))
    dt = ((length - 1) / fs) / (width - 1)
    freqs = np.fft.rfftfreq(width, d=dt)
    peak = freqs[int(np.argmax(spectrum))]
    bin_width = freqs[1]
    elapsed = time.perf_counter() - t0
    assert abs(peak - 5.0) <= bin_width, f"peak at {peak} Hz, bin width {bin_width}"
    assert elapsed < 1.0
    print(
        f"PASS criterion 6: 5 Hz tone encoded at W=625 peaks at {peak:.3f} Hz "
        f"(bin width {bin_width:.3f} Hz, {elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 7. Directional desk-scale study: IWL and CME do not lose


def test_criterion_7_directional_study():
    t0 = time.perf_counter()
    synth = SynthSpec(
        n_classes=9,
        n_channels=12,
        length=1000,
        per_class_counts=(640,) * 9,
        channel_gain=(1.0, 1.0, 0.9, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.02, 0.01),
        noise_sd=2.5,
        sample_rate=500.0,
        amplitude=5.0,
    )
    spec = ExperimentSpec(
        losses=("iwl", "cross_entropy"),
        betas=(0.3,),
        alphas=(0.01,),
        encodes=("cme", "raw"),
        seeds=(0, 1, 2, 3, 4),
        train=TrainConfig(
            epochs=30,
            learning_rate=0.001,
            batch_size=64,
            hidden=(64, 32),
            encode=EncoderSpec(height=12, width=125, skip=166, take=832, raw_take=1000),
        ),
        train_fraction=0.9,
        synth=synth,
    )
    cells = {
        "iwl_cme": CellKey(loss="iwl", beta=0.3, alpha=0.01, encode="cme"),
        "ce_cme": CellKey(loss="cross_entropy", beta=None, alpha=0.01, encode="cme"),
        "iwl_raw": CellKey(loss="iwl", beta=0.3, alpha=0.01, encode="raw"),
    }
    medians = {}
    for tag, cell in cells.items():
        f1s = [f1 for _, f1 in run_cell(spec, cell)]
        medians[tag] = statistics.median(f1s)
    elapsed = time.perf_counter() - t0
    assert medians["iwl_cme"] >= medians["ce_cme"], medians
    assert medians["iwl_cme"] >= medians["iwl_raw"], medians
    assert elapsed < 300.0
    print(
        f"PASS criterion 7: median macro F1 iwl+cme {medians['iwl_cme']:.3f} >= "
        f"ce+cme {medians['ce_cme']:.3f} and >= iwl+raw {medians['iwl_raw']:.3f} "
        f"(5 seeds, {elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# 8. The beta sweep emits a stable 10-row table


BETA_SWEEP_SPEC = """\
loss = iwl
beta = 0.1, 0.3, 0.5, 0.7, 0.9, 1, 2, 3, 4, 5
alpha = 0.05
encode = cme
seeds = 0, 1, 2, 3, 4
epochs = 6
learning_rate = 0.01
batch_size = 16
hidden = 16, 8
train_fraction = 0.9
image.height = 4
image.width = 60
window.skip = 40
window.take = 200
data.classes = 9
data.head_count = 24
data.channel_gain = 1.0, 0.05
data.length = 240
data.noise_sd = 0.4
"""


def test_criterion_8_beta_sweep_table(tmp_path):
    t0 = time.perf_counter()
    spec_path = tmp_path / "sweep.txt"
    spec_path.write_text(BETA_SWEEP_SPEC)
    spec = parse_experiment_spec(spec_path)
    rows = run_experiment(spec, jobs=1)
    assert len(rows) == 10
    assert [r.cell.beta for r in rows] == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(r.n_seeds == 5 for r in rows)
    first = tmp_path / "sweep1.csv"
    write_results_csv(rows, first)

    rows_again = run_experiment(spec, jobs=1)
    second = tmp_path / "sweep2.csv"
    write_results_csv(rows_again, second)
    assert first.read_bytes() == second.read_bytes(), "rerun is not bit-identical"

    pooled = run_experiment(spec, jobs=2)
    assert pooled == rows, "worker count changed the results"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    print(
        f"PASS criterion 8: 10-row beta sweep, mean/sd over 5 seeds, "
        f"bit-identical rerun, pool-invariant ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# 9. Every command is byte-deterministic


def _assert_twin_dirs_equal(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs between reruns"


def test_criterion_9_command_determinism(tmp_path):
    t0 = time.perf_counter()
    synth_spec = tmp_path / "synth.txt"
    synth_spec.write_text(
        "classes = 3\nhead_count = 5\nchannels = 2\nlength = 80\n"
        "noise_sd = 0.4\nsample_rate = 200\nseed = 3\n"
    )
    grid_spec = tmp_path / "grid.txt"
    grid_spec.write_text(
        "loss = iwl\nalpha = 0.5\nencode = cme\nseeds = 0\nepochs = 1\n"
        "learning_rate = 0.01\nbatch_size = 8\nhidden = 8\ntrain_fraction = 0.75\n"
        "image.height = 4\nimage.width = 10\nwindow.skip = 0\nwindow.take = 80\n"
        "data.classes = 3\ndata.head_count = 5\ndata.channels = 2\ndata.length = 80\n"
        "data.noise_sd = 0.4\ndata.sample_rate = 200\n"
    )
    enc_flags = ["--height", "4", "--width", "10", "--skip", "0", "--take", "80"]
    train_flags = ["--epochs", "2", "--hidden", "8", "--batch-size", "8", "--raw-take", "80"] + enc_flags

    for run in ("x", "y"):
        base = tmp_path / run
        base.mkdir()
        data = base / "data"
        assert main(["synth", "--spec", str(synth_spec), "--out", str(data)]) == 0
        assert main(["analyze", "--data", str(data), "--out", str(base / "stats.csv")]) == 0
        assert main(["encode", "--data", str(data), "--out", str(base / "img"), "--format", "both"] + enc_flags) == 0
        assert main(["resample", "--data", str(data), "--alpha", "0.5", "--out", str(base / "tail")]) == 0
        assert main(["gradcheck", "--trials", "10", "--out", str(base / "gradcheck.csv")]) == 0
        assert main(["train", "--data", str(data), "--out", str(base / "model.bin"), "--log", str(base / "log.csv")] + train_flags) == 0
        assert (
            main(
                ["eval", "--model", str(base / "model.bin"), "--data", str(data), "--split", "test",
                 "--train-fraction", "0.75", "--out", str(base / "metrics.csv"), "--confusion", str(base / "cm.csv")]
            )
            == 0
        )
        assert main(["experiment", "--spec", str(grid_spec), "--out", str(base / "results.csv")]) == 0

    x, y = tmp_path / "x", tmp_path / "y"
    _assert_twin_dirs_equal(x / "data", y / "data")
    _assert_twin_dirs_equal(x / "img", y / "img")
    _assert_twin_dirs_equal(x / "tail", y / "tail")
    for name in ("stats.csv", "gradcheck.csv", "model.bin", "log.csv", "metrics.csv", "cm.csv", "results.csv"):
        assert (x / name).read_bytes() == (y / name).read_bytes(), f"{name} differs between reruns"
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: all 8 commands byte-identical across reruns ({elapsed:.1f}s)")
