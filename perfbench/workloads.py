"""Workload definitions: inputs generated from a seed, commands, output checks.

Every workload is a closed loop with one client: the benchmark issues one
``ecgbalance`` command, waits for it to exit, then issues the next. No more
than two processes compute at once (``ecgbalance experiment --jobs 2`` on a
two-core host).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Criterion 7 of the acceptance suite: 9 x 640 records, 12 channels with
# gains 1.0 ... 0.01, length 1000, a 100x long tail, 30 epochs.
CRITERION7_SPEC = """\
alpha = 0.01
beta = 0.3
seeds = {seed}
epochs = 30
learning_rate = 0.001
batch_size = 64
hidden = 64, 32
train_fraction = 0.9
image.height = 12
image.width = 125
window.skip = 166
window.take = 832
raw.take = 1000
data.classes = 9
data.head_count = 640
data.channel_gain = 1.0, 1.0, 0.9, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.02, 0.01
data.length = 1000
data.noise_sd = 2.5
data.sample_rate = 500
data.amplitude = 5.0
"""

# Every workload's default seed, and a seed held out for confirming claims
# developed on other seeds.
DEFAULT_SEED = 0
HELDOUT_SEED = 1009

DATASET_SPEC = "demos/specs/dataset.txt"
BETA_SWEEP_SPEC = "demos/specs/beta_sweep.txt"


@dataclass(frozen=True)
class Workload:
    """A workload's rationale beyond BENCHMARK.json's one-line ``why``."""

    name: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    # study workloads only: the grid lines of the spec, the cells they make, the worker count
    grid: str = ""
    cells: int = 0
    jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study_cme",
            stresses=("data.generate_synthetic", "imbalance.resample", "equalizer (featurize)", "experiment.run_cell"),
            bypasses=("CSV, image and model files", "the process pool"),
            grid="loss = iwl, cross_entropy\nencode = cme\n",
            cells=2,
            jobs=1,
        ),
        Workload(
            name="study_raw",
            stresses=("trainer (forward, backward, adam_step)", "data.generate_synthetic"),
            bypasses=("equalizer (raw windowing only)", "dataset reuse (one cell)", "the process pool"),
            grid="loss = iwl\nencode = raw\n",
            cells=1,
            jobs=1,
        ),
        Workload(
            name="cli_walkthrough",
            stresses=("cli", "data CSV write/read", "equalizer image writes", "trainer save/load", "process start"),
            bypasses=("large datasets", "BLAS threading (tiny batches)"),
        ),
        Workload(
            name="study_cme_jobs2",
            stresses=("experiment pool", "BLAS threading in pool workers"),
            bypasses=("CSV, image and model files",),
            grid="loss = iwl, cross_entropy\nencode = cme\n",
            cells=2,
            jobs=2,
        ),
    )
}


def study_spec_text(w: Workload, seed: int) -> str:
    return w.grid + CRITERION7_SPEC.format(seed=seed)


def study_command(w: Workload) -> list[str]:
    return ["experiment", "--spec", "spec.txt", "--out", "results.csv", "--jobs", str(w.jobs)]


def cli_commands(seed: int, root: Path) -> list[list[str]]:
    """The README's CLI quick-start, with the seed passed to every seeded step.

    Paths are relative to the working directory the commands run in, except
    the two demo specs, which are read from the checkout.
    """
    image = ["--height", "12", "--width", "125", "--skip", "166", "--take", "832"]
    return [
        ["synth", "--spec", str(root / DATASET_SPEC), "--out", "data", "--seed", str(seed)],
        ["analyze", "--data", "data"],
        ["resample", "--data", "data", "--alpha", "0.01", "--out", "tail", "--seed", str(seed)],
        ["encode", "--data", "tail", "--out", "img", *image, "--format", "both"],
        ["gradcheck", "--loss", "all", "--trials", "100"],
        ["train", "--data", "tail", "--out", "model.bin", "--log", "log.csv", "--loss", "iwl", "--beta", "0.3",
         "--epochs", "30", "--hidden", "64,32", *image, "--train-fraction", "0.9", "--seed", str(seed)],
        ["eval", "--model", "model.bin", "--data", "tail", "--split", "test", "--train-fraction", "0.9",
         "--split-seed", str(seed)],
        ["experiment", "--spec", str(root / BETA_SWEEP_SPEC), "--out", "results.csv", "--jobs", "2"],
    ]


# ---------------------------------------------------------------------------
# Output checks


class CheckFailed(Exception):
    pass


def _unit_interval(name: str, raw: str, scale: float) -> float:
    try:
        v = float(raw) / scale
    except ValueError as exc:
        raise CheckFailed(f"{name} {raw!r} is not a number") from exc
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise CheckFailed(f"{name} {raw!r} is outside [0, 1]")
    return v


def check_results_csv(path: Path, expected_rows: int) -> list[float]:
    """Parse an experiment results CSV; returns each row's mean macro F1 in [0, 1]."""
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows:
        raise CheckFailed(f"{path.name} has {len(rows)} rows, expected {expected_rows}")
    f1 = []
    for row in rows:
        for key in ("accuracy_mean", "accuracy_sd", "macro_f1_sd"):
            _unit_interval(key, row.get(key) or "", 100.0)
        f1.append(_unit_interval("macro_f1_mean", row.get("macro_f1_mean") or "", 100.0))
    return f1


def check_eval_stdout(text: str) -> None:
    """Check the accuracy and macro F1 that ``eval`` prints."""
    values = dict(line.split(",", 1) for line in text.splitlines() if line.count(",") == 1)
    _unit_interval("accuracy", values.get("accuracy", ""), 1.0)
    _unit_interval("macro_f1", values.get("macro_f1", ""), 1.0)


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def beta_sweep_rows(root: Path) -> int:
    """Rows the demo beta sweep produces: one per beta (loss is iwl only)."""
    text = (root / BETA_SWEEP_SPEC).read_text()
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        if body.strip().startswith("beta"):
            return len([b for b in body.split("=", 1)[1].split(",") if b.strip()])
    raise CheckFailed(f"{BETA_SWEEP_SPEC} has no beta line")
