import argparse
import csv
import json
import re
import shutil
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import dataset_from_arrays

from ecgbalance import (
    LOSS_KINDS,
    EncoderSpec,
    LossConfig,
    TrainConfig,
    load_csv,
    load_model,
    read_image_raw,
    save_model,
    write_csv_dataset,
)
from ecgbalance.cli import _loss_config_from_args, _train_config_from_args, build_parser, main
from ecgbalance.errors import ConfigError
from ecgbalance.experiment import (
    _GRID_KEYS,
    _SCALAR_KEYS,
    RECIPE_FIELDS,
    SYNTH_KEYS,
    _cell_loss,
    grid_cells,
    parse_experiment_spec,
)
from ecgbalance.trainer import featurize_dataset

SYNTH_SPEC = """\
classes = 3
head_count = 5
channels = 2
length = 80
noise_sd = 0.4
sample_rate = 200
seed = 3
"""

EXPERIMENT_SPEC = """\
loss = iwl
alpha = none
encode = cme, raw
seeds = 0
epochs = 1
learning_rate = 0.01
batch_size = 8
hidden = 8
train_fraction = 0.75
image.height = 4
image.width = 10
window.skip = 0
window.take = 80
raw.take = 80
data.classes = 3
data.head_count = 5
data.channels = 2
data.length = 80
data.noise_sd = 0.4
data.sample_rate = 200
"""

TRAIN_FLAGS = [
    "--epochs", "2",
    "--hidden", "8",
    "--batch-size", "8",
    "--height", "4",
    "--width", "10",
    "--skip", "0",
    "--take", "80",
    "--raw-take", "80",
]


# Every subcommand's options and their defaults. A flag added, dropped or
# given another default changes this table.
CLI_OPTIONS = {
    "synth": {"--spec": None, "--out": None, "--seed": None},
    "analyze": {"--data": None, "--manifest": None, "--out": None},
    "encode": {
        "--data": None, "--manifest": None, "--record": None, "--height": 128, "--width": 128, "--skip": 500,
        "--take": 2500, "--no-equalize": False, "--format": "csv", "--out": None,
    },
    "resample": {"--data": None, "--manifest": None, "--alpha": None, "--no-resample": False, "--seed": 0, "--out": None},
    "gradcheck": {
        "--loss": "all", "--trials": 100, "--seed": 0, "--threshold": 0.0001, "--classes": 9, "--beta": 0.3,
        "--epsilon": 1e-12, "--gamma": 2.0, "--cb-beta": 0.999, "--ldam-mu": 0.2, "--ldam-s": 20.0, "--out": None,
    },
    "train": {
        "--data": None, "--manifest": None, "--out": None, "--log": None, "--epochs": 150, "--learning-rate": 0.001,
        "--batch-size": 64, "--seed": 0, "--hidden": (64, 32), "--train-fraction": 1.0, "--loss": "iwl",
        "--beta": 0.3, "--epsilon": 1e-12, "--gamma": 2.0, "--cb-beta": 0.999, "--ldam-mu": 0.2, "--ldam-s": 20.0,
        "--encode": "cme", "--height": 128, "--width": 128, "--skip": 500, "--take": 2500, "--raw-take": 3000,
    },
    "eval": {
        "--model": None, "--data": None, "--manifest": None, "--split": "all", "--train-fraction": 0.9,
        "--split-seed": 0, "--out": None, "--confusion": None,
    },
    "experiment": {"--spec": None, "--out": None, "--jobs": 1},
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "synth.txt"
    spec.write_text(SYNTH_SPEC)
    out = root / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_file(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    assert main(["train", "--data", str(data_dir), "--out", str(path)] + TRAIN_FLAGS) == 0
    return path


# ---------------------------------------------------------------------------
# Entry point plumbing


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "a command is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "known, unknown",
    [
        (["synth", "--spec", "s.txt", "--out", "o"], "--bogus x"),
        # The IWL has one log base and always differentiates its weight, so no flag selects either.
        (["train", "--data", "d", "--out", "m.bin"], "--log-base e"),
        (["gradcheck"], "--stop-weight-gradient"),
        # RMS is the one channel magnitude statistic, so no flag selects another.
        (["encode", "--data", "d", "--out", "img"], "--mode rms"),
        (["train", "--data", "d", "--out", "m.bin"], "--mode rms"),
    ],
    ids=["bogus", "log-base", "stop-weight-gradient", "encode-mode", "train-mode"],
)
def test_unknown_flag_is_a_usage_error(capsys, known, unknown):
    assert main([*known, *unknown.split()]) == 1
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--trials", "1_0"],
        ["gradcheck", "--classes", "\u0663"],
        ["gradcheck", "--threshold", "\uff11e-4"],
        ["gradcheck", "--beta", "0.\uff13"],
        ["synth", "--spec", "s.txt", "--out", "o", "--seed", "7_0"],
        ["resample", "--data", "d", "--out", "o", "--alpha", "0_5"],
        ["train", "--data", "d", "--out", "m.bin", "--hidden", "8,1_6"],
        ["eval", "--model", "m.bin", "--data", "d", "--train-fraction", "\u0660.5"],
        ["experiment", "--spec", "s.txt", "--out", "r.csv", "--jobs", "\uff12"],
    ],
    ids=lambda argv: argv[0] + argv[-2],
)
def test_numeric_flags_read_numbers_as_spec_files_do(capsys, argv):
    # int() and float() read "1_0", Arabic-Indic and full-width digits; a flag, like a spec value, does not.
    assert main(argv) == 1
    assert f"argument {argv[-2]}: " in capsys.readouterr().err


def test_every_command_keeps_its_options_and_defaults():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        cmd: {opt: a.default for a in p._actions if a.dest != "help" for opt in a.option_strings}
        for cmd, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


def test_train_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["train", "--data", "d", "--out", "m"])
    assert _train_config_from_args(args) == TrainConfig(loss=LossConfig(), encode=EncoderSpec())


# Every loss flag set away from its default.
LOSS_FLAGS = [
    "--beta", "1.5", "--epsilon", "1e-6", "--gamma", "1", "--cb-beta", "0.9", "--ldam-mu", "0.4", "--ldam-s", "8",
]


def test_gradcheck_and_train_build_the_same_loss_configs():
    parser = build_parser()
    for flags in ([], LOSS_FLAGS):
        check = parser.parse_args(["gradcheck", *flags])
        fit = parser.parse_args(["train", "--data", "d", "--out", "m", *flags])
        for name in LOSS_KINDS:
            assert _loss_config_from_args(check, name) == _loss_config_from_args(fit, name)


def test_spec_loss_keys_and_loss_flags_build_equal_loss_configs(tmp_path):
    # Every loss setting a spec can hold, away from its default, set both ways.
    spec_path = tmp_path / "grid.txt"
    spec_path.write_text(
        "loss = iwl, ce, focal, cb, cb_focal, ldam\nbeta = 1.5\ndata.classes = 3\n"
        "iwl.epsilon = 1e-6\nfocal.gamma = 1\ncb.beta = 0.9\nldam.mu = 0.4\nldam.s = 8\n"
    )
    spec = parse_experiment_spec(spec_path)
    flags = ["--epsilon", "1e-6", "--gamma", "1", "--cb-beta", "0.9", "--ldam-mu", "0.4", "--ldam-s", "8"]
    assert len(grid_cells(spec)) == 6
    for cell in grid_cells(spec):
        # beta is a grid axis that only iwl cells take.
        beta = ["--beta", "1.5"] if cell.loss == "iwl" else []
        args = build_parser().parse_args(["train", "--data", "d", "--out", "m", "--loss", cell.loss, *flags, *beta])
        from_flags = _train_config_from_args(args).loss
        assert _cell_loss(spec.train.loss, cell) == from_flags
        assert from_flags != LossConfig(kind=cell.loss)


# Each recipe spec key, its flag, and a value away from both defaults.
RECIPE_SETTINGS = [
    ("epochs", "--epochs", "7"),
    ("learning_rate", "--learning-rate", "0.01"),
    ("batch_size", "--batch-size", "8"),
    ("hidden", "--hidden", "16,8"),
    ("image.height", "--height", "12"),
    ("image.width", "--width", "125"),
    ("window.skip", "--skip", "166"),
    ("window.take", "--take", "832"),
    ("raw.take", "--raw-take", "80"),
    ("iwl.epsilon", "--epsilon", "1e-6"),
    ("focal.gamma", "--gamma", "1"),
    ("cb.beta", "--cb-beta", "0.9"),
    ("ldam.mu", "--ldam-mu", "0.4"),
    ("ldam.s", "--ldam-s", "8"),
]


def test_recipe_settings_cover_the_recipe_table():
    assert [key for key, _, _ in RECIPE_SETTINGS] == list(RECIPE_FIELDS)


@pytest.mark.parametrize("key, flag, value", RECIPE_SETTINGS, ids=[key for key, _, _ in RECIPE_SETTINGS])
def test_each_recipe_key_and_its_train_flag_build_equal_train_configs(tmp_path, key, flag, value):
    # The spec's epochs default (30) differs from train's (150) on purpose, so the spec states train's.
    lines = {"data.classes": "3", "epochs": str(TrainConfig.epochs), key: value}
    spec_path = tmp_path / "grid.txt"
    spec_path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    from_spec = parse_experiment_spec(spec_path).train
    from_flags = _train_config_from_args(build_parser().parse_args(["train", "--data", "d", "--out", "m", flag, value]))
    assert from_flags == from_spec
    assert from_flags != TrainConfig()


# The recipe keys whose flags each command takes.
COMMAND_RECIPE_KEYS = {
    "train": [key for key, _, _ in RECIPE_SETTINGS],
    "gradcheck": ["iwl.epsilon", "focal.gamma", "cb.beta", "ldam.mu", "ldam.s"],
    "encode": ["image.height", "image.width", "window.skip", "window.take"],
}


@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_every_command_prints_help_naming_its_flags_spec_keys(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    flags = {key: flag for key, flag, _ in RECIPE_SETTINGS}
    for key in COMMAND_RECIPE_KEYS.get(command, []):
        assert re.search(rf"{flags[key]} [^;]*; spec key: {re.escape(key)}\b", text), key
    assert ("spec key:" in text) == (command in COMMAND_RECIPE_KEYS)


def test_readme_recipe_table_pairs_each_spec_key_with_its_train_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)` \|", readme, re.M))
    assert rows == {**{key: flag for key, flag, _ in RECIPE_SETTINGS}, "train_fraction": "--train-fraction"}


def test_every_flag_the_readme_names_is_a_flag_of_some_command():
    # A flag removed from the parser must leave the docs too. The Install section's pip line names pip's flags.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    install = re.search(r"^## Install\n.*?(?=^## )", readme, re.M | re.S).group(0)
    pip_line = next(line for line in install.splitlines() if line.startswith("pip install "))
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme.replace(pip_line, "")))
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for p in (parser, *sub.choices.values()) for flag in p._option_string_actions}
    assert {"--jobs", "--train-fraction", "--help"} <= named
    assert sorted(named - accepted) == []


def test_gradcheck_passes_with_every_loss_flag_set(tmp_path, capsys):
    # Includes the IWL at beta 1.5 and epsilon 1e-6.
    report = tmp_path / "gc.csv"
    assert main(["gradcheck", "--trials", "50", "--out", str(report), *LOSS_FLAGS]) == 0
    rows = report.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == list(LOSS_KINDS)
    assert all(float(r.split(",")[2]) < 1e-4 for r in rows)


def test_version_via_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ecgbalance", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("ecgbalance ")


# ---------------------------------------------------------------------------
# synth


def test_synth_is_byte_deterministic(tmp_path, data_dir):
    spec = tmp_path / "synth.txt"
    spec.write_text(SYNTH_SPEC)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # The fixture dataset used the same spec: identical bytes there too.
    assert (a / "manifest.csv").read_bytes() == (data_dir / "manifest.csv").read_bytes()


def test_synth_seed_override_changes_data(tmp_path):
    spec = tmp_path / "synth.txt"
    spec.write_text(SYNTH_SPEC)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "7"]) == 0
    names = sorted(p.name for p in a.iterdir() if p.suffix == ".csv" and p.name != "manifest.csv")
    assert any((a / n).read_bytes() != (b / n).read_bytes() for n in names)


def test_synth_rejects_typo_keys(tmp_path, capsys):
    spec = tmp_path / "synth.txt"
    spec.write_text(SYNTH_SPEC + "noise_ds = 1.0\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
    assert "noise_ds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_to_file(tmp_path, data_dir):
    out = tmp_path / "stats.csv"
    assert main(["analyze", "--data", str(data_dir), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("channel,")
    assert len(lines) > 1


def test_analyze_to_stdout(capsys, data_dir):
    assert main(["analyze", "--data", str(data_dir)]) == 0
    assert "channel 0:" in capsys.readouterr().out


def test_analyze_missing_directory(tmp_path, capsys):
    assert main(["analyze", "--data", str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# encode


def test_encode_both_formats(tmp_path, data_dir):
    out = tmp_path / "img"
    args = ["encode", "--data", str(data_dir), "--out", str(out), "--height", "4", "--width", "10", "--skip", "0", "--take", "80", "--format", "both"]
    assert main(args) == 0
    csvs = sorted(out.glob("*.csv"))
    raws = sorted(out.glob("*.f64"))
    assert len(csvs) == 15 and len(raws) == 15
    assert raws[0].stat().st_size == 16 + 4 * 10 * 8


def test_encode_single_record_and_no_equalize(tmp_path, data_dir):
    record_id = load_csv(data_dir).records[0].record_id
    out = tmp_path / "one"
    args = ["encode", "--data", str(data_dir), "--out", str(out), "--height", "4", "--width", "10", "--skip", "0", "--take", "80", "--record", record_id, "--no-equalize"]
    assert main(args) == 0
    assert [p.name for p in out.iterdir()] == [f"{record_id}.csv"]


def test_encode_images_are_the_rows_train_featurizes(tmp_path, data_dir):
    # encode and train read the image and window flags into one EncoderSpec, so each image is a network input.
    flags = ["--height", "5", "--width", "12", "--skip", "3", "--take", "70"]
    out = tmp_path / "img"
    assert main(["encode", "--data", str(data_dir), "--out", str(out), "--format", "raw", *flags]) == 0
    encoder = _train_config_from_args(build_parser().parse_args(["train", "--data", "d", "--out", "m", *flags])).encode
    assert encoder == EncoderSpec(height=5, width=12, skip=3, take=70)
    d = load_csv(data_dir)
    images = np.stack([read_image_raw(out / f"{r.record_id}.f64") for r in d.records])
    assert images.reshape(len(d), -1).tobytes() == featurize_dataset(d, encoder).tobytes()


def write_array_dataset(path, arrays, labels):
    write_csv_dataset(dataset_from_arrays(arrays, labels, ("a", "b", "c")), path)
    return path


def test_all_overflow_record_is_a_data_error(tmp_path, capsys):
    # Every channel's x*x overflows, so the magnitudes and the factors are not finite.
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(2, 80)) for _ in range(5)] + [np.full((2, 80), 1e200)]
    data = write_array_dataset(tmp_path / "loud", arrays, [0, 1, 2, 0, 1, 2])
    flags = ["--height", "4", "--width", "10", "--skip", "0", "--take", "80"]
    assert main(["encode", "--data", str(data), "--out", str(tmp_path / "img"), *flags]) == 2
    assert "scale factors must be finite" in capsys.readouterr().err
    model_path = tmp_path / "m.bin"
    assert main(["train", "--data", str(data), "--out", str(model_path), *TRAIN_FLAGS]) == 2
    assert "scale factors must be finite" in capsys.readouterr().err
    assert not model_path.exists()


def test_ragged_csv_dataset_trains_and_evaluates_under_cme(tmp_path):
    rng = np.random.default_rng(1)
    lengths = rng.integers(700, 851, size=12)
    arrays = [rng.normal(size=(3, int(n))) * np.array([[1.0], [0.1], [5.0]]) for n in lengths]
    data = write_array_dataset(tmp_path / "ragged", arrays, [i % 3 for i in range(12)])
    assert len({r.length for r in load_csv(data).records}) > 1
    model_path = tmp_path / "m.bin"
    flags = ["--epochs", "2", "--hidden", "8", "--height", "4", "--width", "20", "--skip", "50", "--take", "600"]
    assert main(["train", "--data", str(data), "--out", str(model_path), *flags]) == 0
    assert main(["eval", "--model", str(model_path), "--data", str(data), "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["encode", "--data", str(data), "--out", str(tmp_path / "img"), *flags[4:]]) == 0
    assert len(list((tmp_path / "img").glob("*.csv"))) == 12


def test_encode_unknown_record(tmp_path, data_dir, capsys):
    args = ["encode", "--data", str(data_dir), "--out", str(tmp_path / "x"), "--record", "ghost"]
    assert main(args) == 1
    assert "ghost" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# resample


def test_resample_requires_a_choice(data_dir, tmp_path, capsys):
    assert main(["resample", "--data", str(data_dir), "--out", str(tmp_path / "x")]) == 1
    assert "--alpha" in capsys.readouterr().err


def test_resample_alpha(tmp_path, data_dir):
    out = tmp_path / "tail"
    assert main(["resample", "--data", str(data_dir), "--alpha", "0.5", "--out", str(out)]) == 0
    d = load_csv(out)
    assert d.class_counts().tolist() == [5, 3, 2]
    hist = (out / "histogram.csv").read_text().splitlines()
    assert hist[0] == "class,before,after"
    assert len(hist) == 4


def test_resample_passthrough(tmp_path, data_dir):
    out = tmp_path / "same"
    assert main(["resample", "--data", str(data_dir), "--no-resample", "--out", str(out)]) == 0
    assert load_csv(out).class_counts().tolist() == [5, 5, 5]


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_all_losses_pass(capsys, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["gradcheck", "--loss", "all", "--trials", "10", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("gradcheck") == 6
    assert "FAIL" not in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "loss,trials,max_rel_error,threshold,status"
    assert len(lines) == 7 and all(l.endswith(",pass") for l in lines[1:])


def test_gradcheck_absurd_threshold_fails(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["gradcheck", "--loss", "iwl", "--trials", "5", "--threshold", "1e-20", "--out", str(out)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].endswith(",fail")


@pytest.mark.filterwarnings("error")
def test_gradcheck_non_finite_error_fails(capsys, tmp_path):
    # beta = 1000 overflows the IWL weight, so every gradient error is NaN;
    # the check fails on that without a numpy warning.
    out = tmp_path / "report.csv"
    code = main(["gradcheck", "--loss", "iwl", "--beta", "1000", "--trials", "3", "--out", str(out)])
    assert code == 3
    assert "max relative error nan" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "iwl,3,nan,0.0001,fail"


@pytest.mark.parametrize("beta", ["0", "1", "3"])
def test_gradcheck_iwl_passes_across_beta(capsys, tmp_path, beta):
    # beta 0 is cross-entropy; at beta 1 the weight's derivative loses its a**(beta - 1)
    # factor, and above 1 that factor grows with a.
    out = tmp_path / "report.csv"
    assert main(["gradcheck", "--loss", "iwl", "--beta", beta, "--trials", "10", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",pass")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--classes", "0"], "at least two classes"),
        (["--classes", "-3"], "at least two classes"),
        (["--classes", "1"], "at least two classes"),
        (["--threshold", "nan"], "threshold"),
        (["--threshold", "inf"], "threshold"),
        (["--threshold", "0"], "threshold"),
        (["--threshold", "-1"], "threshold"),
    ],
)
def test_gradcheck_rejects_unusable_classes_and_thresholds(capsys, flags, message):
    # Each is refused before any trial runs, for every loss.
    assert main(["gradcheck", "--trials", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# train / eval


def test_train_then_eval(tmp_path, data_dir, capsys):
    model_path = tmp_path / "model.bin"
    log_path = tmp_path / "log.csv"
    args = ["train", "--data", str(data_dir), "--out", str(model_path), "--log", str(log_path)] + TRAIN_FLAGS
    assert main(args) == 0
    model = load_model(model_path)
    assert model.num_classes == 3
    log_lines = log_path.read_text().splitlines()
    assert log_lines[0] == "epoch,mean_loss"
    assert len(log_lines) == 3

    metrics_path = tmp_path / "metrics.csv"
    cm_path = tmp_path / "cm.csv"
    capsys.readouterr()
    args = [
        "eval", "--model", str(model_path), "--data", str(data_dir),
        "--split", "test", "--train-fraction", "0.75",
        "--out", str(metrics_path), "--confusion", str(cm_path),
    ]
    assert main(args) == 0
    assert "accuracy" in capsys.readouterr().out
    metric_lines = metrics_path.read_text().splitlines()
    assert metric_lines[0] == "metric,value"
    assert metric_lines[1].startswith("accuracy,")
    cm_lines = cm_path.read_text().splitlines()
    assert len(cm_lines) == 4  # header + one row per class


def test_eval_to_stdout(tmp_path, data_dir, capsys):
    model_path = tmp_path / "model.bin"
    assert main(["train", "--data", str(data_dir), "--out", str(model_path)] + TRAIN_FLAGS) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "metric,value" in out
    assert "class,precision,recall,f1,support" in out


def test_eval_rejects_non_model_file(tmp_path, data_dir, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a model")
    assert main(["eval", "--model", str(junk), "--data", str(data_dir)]) == 2


def _damage_model(raw: bytes, damage: str) -> bytes:
    if damage == "truncated":
        return raw[:-5]
    if damage == "trailing_bytes":
        return raw + bytes(8)
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if damage == "corrupt_header":
        return raw[:16] + b"#" + raw[17:]
    header = json.loads(raw[16 : 16 + hlen])
    if damage == "missing_header_key":
        del header["encoder"]
    elif damage == "missing_encoder_field":
        del header["encoder"]["raw_take"]
    elif damage == "float_encoder_field":
        header["encoder"]["height"] = 4.0
    elif damage == "string_encoder_field":
        header["encoder"]["raw_take"] = "80"
    elif damage == "null_encoder_field":
        header["encoder"]["raw_take"] = None
    elif damage == "unknown_magnitude_mode":
        header["encoder"]["magnitude_mode"] = "l3"
    elif damage == "l2_magnitude_mode":
        # The per-channel RMS is the one magnitude statistic; "l2" names none.
        header["encoder"]["magnitude_mode"] = "l2"
    elif damage == "extra_class_name":
        # eval compares class names, so the names must also match the model's outputs.
        header["class_names"].append("class_3")
    else:
        header["encoder"]["dilation"] = 1
    blob = json.dumps(header).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :]


@pytest.mark.parametrize(
    "damage",
    [
        "truncated", "trailing_bytes", "corrupt_header", "missing_header_key", "missing_encoder_field",
        "float_encoder_field", "string_encoder_field", "null_encoder_field", "unknown_magnitude_mode",
        "l2_magnitude_mode", "extra_encoder_field", "extra_class_name",
    ],
)
def test_eval_rejects_damaged_model(tmp_path, data_dir, model_file, capsys, damage):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_damage_model(model_file.read_bytes(), damage))
    with pytest.raises(ConfigError):
        load_model(bad)
    assert main(["eval", "--model", str(bad), "--data", str(data_dir)]) == 2
    assert "error" in capsys.readouterr().err


def test_model_header_keys_are_the_encoder_fields(model_file):
    # A new EncoderSpec field changes the model file format; this snapshot makes that visible.
    raw = model_file.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    assert sorted(header) == ["class_names", "encoder", "layer_dims"]
    assert sorted(header["encoder"]) == ["height", "kind", "magnitude_mode", "raw_take", "skip", "take", "width"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "missing.bin", "--data", "."],
        ["experiment", "--spec", "missing.txt", "--out", "results.csv"],
        ["synth", "--spec", "missing.txt", "--out", "data"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_file_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error" in err and "missing." in err


@pytest.mark.parametrize("command", ["experiment", "synth"])
def test_spec_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.txt").write_bytes(b"\xff\xfea = 1\n")
    assert main([command, "--spec", "spec.txt", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "spec.txt" in err and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, content, offset",
    [("classes.txt", b"class_\xdd1\n", 6), ("manifest.csv", b"file,record_id,label,sample_rate\n\xff", 33)],
)
def test_dataset_text_file_that_is_not_utf8_exits_2(tmp_path, data_dir, model_file, capsys, name, content, offset):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / name).write_bytes(content)
    train = ["train", "--out", str(tmp_path / "m.bin"), *TRAIN_FLAGS]
    for argv in (["analyze"], train, ["eval", "--model", str(model_file)]):
        assert main([*argv, "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert name in err and f"not UTF-8 text (byte {offset}:" in err, err
        assert "Traceback" not in err


def test_record_path_that_is_a_directory_exits_2(tmp_path, data_dir, model_file, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    record = load_csv(data_dir).records[0].record_id
    (data / f"{record}.csv").unlink()
    (data / f"{record}.csv").mkdir()
    train = ["train", "--out", str(tmp_path / "m.bin"), *TRAIN_FLAGS]
    for argv in (["analyze"], train, ["eval", "--model", str(model_file)]):
        assert main([*argv, "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"record {record!r}" in err and "cannot read file" in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "column, value, command, message",
    [
        ("record_id", "../escaped", "resample", "manifest line 2: record id '../escaped' cannot name a file"),
        ("record_id", "../escaped", "encode", "manifest line 2: record id '../escaped' cannot name a file"),
        ("record_id", "<the next record's id>", "resample", "manifest line 3: record id .* repeats another"),
        ("file", "rec\0.csv", "analyze", "cannot read file: embedded null byte|NUL"),
    ],
    ids=["escape-resample", "escape-encode", "duplicate-resample", "nul-file-analyze"],
)
def test_manifest_entries_that_cannot_name_a_file_exit_2(tmp_path, data_dir, capsys, column, value, command, message):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    with open(data / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = rows[1]["record_id"] if value.startswith("<") else value
    with open(data / "manifest.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    argv = {"resample": ["--no-resample", "--out", str(out)], "encode": ["--out", str(out)], "analyze": []}[command]
    assert main([command, "--data", str(data), *argv]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err, err
    # Nothing was written, inside --out or beside it.
    assert [p.name for p in tmp_path.iterdir()] == ["data"]
    assert sorted(p.name for p in data.iterdir()) == sorted(p.name for p in data_dir.iterdir())


def test_eval_rejects_a_model_trained_on_other_class_names(tmp_path, data_dir, model_file, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "classes.txt").write_text("x\ny\nz\n")
    assert main(["eval", "--model", str(model_file), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "['class_0', 'class_1', 'class_2']" in err and "['x', 'y', 'z']" in err, err


# Class names a CSV writer must quote: a comma, and a quote.
AWKWARD_NAMES = ("x,y", 'b "q"', "c")


def test_class_names_holding_a_comma_or_quote_round_trip_through_every_csv(tmp_path, data_dir):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "classes.txt").write_text("".join(name + "\n" for name in AWKWARD_NAMES))
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / "stats.csv")]) == 0
    assert main(["resample", "--data", str(data), "--alpha", "0.5", "--out", str(tmp_path / "tail")]) == 0
    # eval takes a model trained on these class names, and the model file carries them.
    model_file = tmp_path / "model.bin"
    assert main(["train", "--data", str(data), "--out", str(model_file), *TRAIN_FLAGS]) == 0
    assert load_model(model_file).class_names == AWKWARD_NAMES
    eval_args = ["eval", "--model", str(model_file), "--data", str(data)]
    assert main([*eval_args, "--out", str(tmp_path / "m.csv"), "--confusion", str(tmp_path / "c.csv")]) == 0

    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    stats = rows(tmp_path / "stats.csv")
    assert stats[0][3:] == [f"scale_{name}" for name in AWKWARD_NAMES]
    histogram = rows(tmp_path / "tail" / "histogram.csv")
    assert [r[0] for r in histogram[1:]] == list(AWKWARD_NAMES)
    confusion = rows(tmp_path / "c.csv")
    assert confusion[0] == ["", *AWKWARD_NAMES] and [r[0] for r in confusion[1:]] == list(AWKWARD_NAMES)
    metrics = rows(tmp_path / "m.csv")
    per_class = metrics[metrics.index(["class", "precision", "recall", "f1", "support"]):]
    assert [r[0] for r in per_class[1:]] == list(AWKWARD_NAMES)
    for table in (stats, histogram, confusion, per_class, metrics[:3]):
        assert all(len(r) == len(table[0]) for r in table), table


@pytest.mark.parametrize(
    "line",
    ["noise_sd = nan", "sample_rate = inf", "base_frequency = inf", "channel_gain = 1e308, 1"],
)
def test_synth_rejects_non_finite_parameters_without_numpy_warnings(tmp_path, capsys, line):
    spec = tmp_path / "synth.txt"
    spec.write_text("classes = 3\nhead_count = 2\nchannels = 2\nlength = 80\n" + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err, err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("value, message", [(0.0, "nonzero RMS"), (1e200, "overflow")], ids=["all-zero", "overflowing"])
def test_analyze_exits_2_on_records_without_a_finite_nonzero_scale(tmp_path, capsys, value, message):
    d = dataset_from_arrays([np.full((2, 10), value)] * 4, [0, 1, 0, 1], ("a", "b"))
    write_csv_dataset(d, tmp_path / "data")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "stats.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: channel") and message in err, err
    assert not (tmp_path / "stats.csv").exists()


def _fuzzed(blob: bytes, rng: np.random.Generator) -> bytes:
    """``blob`` cut short, or with one to four bytes replaced by random values."""
    if rng.random() < 0.3:
        return blob[: rng.integers(0, len(blob))]
    out = bytearray(blob)
    for at in rng.integers(0, len(out), size=rng.integers(1, 5)):
        out[at] = rng.integers(0, 256)
    return bytes(out)


FUZZ_TRIALS = 40


@pytest.mark.parametrize("target", ["manifest.csv", "classes.txt", "record", "model", "experiment-spec", "synth-spec"])
def test_damaged_inputs_end_in_exit_0_1_or_2(tmp_path, data_dir, model_file, capsys, target):
    # Seeded per target: any damage either loads or is a typed error, never a traceback.
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    model = tmp_path / "model.bin"
    shutil.copy(model_file, model)
    spec = tmp_path / "spec.txt"
    spec.write_text(EXPERIMENT_SPEC if target == "experiment-spec" else SYNTH_SPEC)
    path = {"record": min(data.glob("synth-*.csv")), "model": model, "experiment-spec": spec, "synth-spec": spec}.get(
        target, data / target
    )
    analyze_and_eval = [["analyze", "--data", str(data)], ["eval", "--model", str(model), "--data", str(data)]]
    commands = {
        "model": analyze_and_eval,
        "experiment-spec": [["experiment", "--spec", str(spec), "--out", str(tmp_path / "results.csv")]],
        "synth-spec": [["synth", "--spec", str(spec), "--out", str(tmp_path / "synth")]],
    }.get(target, analyze_and_eval + [
        ["train", "--data", str(data), "--out", str(tmp_path / "trained.bin"), *TRAIN_FLAGS],
        ["encode", "--data", str(data), "--out", str(tmp_path / "images"), "--height", "4", "--width", "10",
         "--skip", "0", "--take", "80"],
    ])
    original = path.read_bytes()
    rng = np.random.default_rng(zlib.crc32(target.encode()))
    for trial in range(FUZZ_TRIALS):
        path.write_bytes(_fuzzed(original, rng))
        for argv in commands:
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - the failure names the damage that caused it
                pytest.fail(f"{target} trial {trial}: {argv[0]} raised {exc!r}")
            assert code in (0, 1, 2), (trial, argv[0], code)
    capsys.readouterr()


# Awkward values for any key: signs, zero, non-finite, overflowing and
# subnormal floats, a non-ASCII digit, empty, a list, and number spellings
# Python's int() and float() accept or refuse. None sizes a large dataset.
LOSS_KEYS = ("iwl.epsilon", "focal.gamma", "cb.beta", "ldam.mu", "ldam.s")
AWKWARD_VALUES = ("-1", "0", "nan", "inf", "1e309", "1e-320", "\u0663", "", "1,2", "0x10", "1_0", "2.5")


def _with_value(spec: str, key: str, value: str) -> str:
    """``spec`` with ``key`` set to ``value``: its line replaced, or one appended."""
    lines = [line for line in spec.splitlines() if line.split("=", 1)[0].strip() != key]
    return "\n".join([*lines, f"{key} = {value}", ""])


@pytest.mark.parametrize("command", ["experiment", "synth"])
def test_every_spec_key_takes_awkward_values_without_a_traceback(tmp_path, capsys, command):
    # One key at a time, each value in turn: a run succeeds or is a typed error.
    keys, spec_text = {
        "experiment": ((*_GRID_KEYS, *_SCALAR_KEYS), EXPERIMENT_SPEC),
        "synth": (SYNTH_KEYS, SYNTH_SPEC),
    }[command]
    spec, out = tmp_path / "spec.txt", tmp_path / "out"
    codes = set()
    for key in keys:
        for value in AWKWARD_VALUES:
            spec.write_text(_with_value(spec_text, key, value), encoding="utf-8")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([command, "--spec", str(spec), "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - the failure names the key and value that caused it
                pytest.fail(f"{key} = {value!r}: {command} raised {exc!r}")
            assert code in (0, 1, 2), (key, value, code)
            # No key reads a number spelled with "_" or a non-ASCII digit, though int() and float() do.
            if value in ("\u0663", "1_0"):
                assert code == 2, (key, value)
            # A loss setting is checked when the spec is parsed, whichever losses the grid runs.
            if key in LOSS_KEYS and value in ("-1", "nan", "inf", "1e309"):
                assert code == 2, (key, value)
            codes.add(code)
            if out.is_dir():
                shutil.rmtree(out)
            out.unlink(missing_ok=True)
    assert codes == {0, 2}
    capsys.readouterr()


@pytest.mark.parametrize("fraction", ["1.5", "nan", "inf", "0", "-0.5"])
def test_train_rejects_a_train_fraction_outside_zero_to_one(tmp_path, data_dir, capsys, fraction):
    model_path = tmp_path / "m.bin"
    argv = ["train", "--data", str(data_dir), "--out", str(model_path), *TRAIN_FLAGS, "--train-fraction", fraction]
    assert main(argv) == 2
    assert "--train-fraction" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_fraction_one_trains_on_every_record(tmp_path, data_dir, capsys):
    argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"), *TRAIN_FLAGS, "--train-fraction", "1.0"]
    assert main(argv) == 0
    assert f"on {len(load_csv(data_dir))} records" in capsys.readouterr().out


@pytest.mark.parametrize("split", ["all", "train", "test"])
def test_eval_takes_a_train_fraction_of_one_as_train_does(tmp_path, data_dir, model_file, capsys, split):
    # 1.0 puts every record on the train side, so --split test finds an empty side.
    out = tmp_path / "metrics.csv"
    argv = ["eval", "--model", str(model_file), "--data", str(data_dir), "--split", split, "--train-fraction", "1.0"]
    if split == "test":
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --train-fraction 1.0 leaves no record on the test side\n"
        assert not out.exists()
        return
    assert main([*argv, "--out", str(out)]) == 0
    assert f"on {len(load_csv(data_dir))} records" in capsys.readouterr().out
    assert main(["eval", "--model", str(model_file), "--data", str(data_dir), "--out", str(tmp_path / "all.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "all.csv").read_bytes()


@pytest.mark.parametrize("split", ["all", "train", "test"])
@pytest.mark.parametrize("fraction", ["1.5", "nan", "0", "-0.5"])
def test_eval_rejects_a_train_fraction_outside_zero_to_one(data_dir, model_file, capsys, split, fraction):
    argv = ["eval", "--model", str(model_file), "--data", str(data_dir), "--split", split, "--train-fraction", fraction]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --train-fraction must lie in (0, 1], got {float(fraction)}\n"


@pytest.mark.parametrize("flags", [["--hidden", "0"], ["--learning-rate", "nan"]], ids=["hidden-0", "learning-rate-nan"])
def test_train_rejects_unusable_config(tmp_path, data_dir, capsys, flags):
    model_path = tmp_path / "m.bin"
    assert main(["train", "--data", str(data_dir), "--out", str(model_path)] + TRAIN_FLAGS + flags) == 2
    assert "error" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "command", ["train", "resample", "eval", "gradcheck", "experiment"]
)
def test_negative_seed_exits_2(tmp_path, data_dir, model_file, capsys, command):
    spec = tmp_path / "grid.txt"
    spec.write_text(f"data.dir = {data_dir}\nseeds = -1\nepochs = 1\nalpha = 0.5\n")
    argv = {
        "train": ["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"), *TRAIN_FLAGS, "--seed", "-1"],
        "resample": ["resample", "--data", str(data_dir), "--alpha", "0.5", "--seed", "-1", "--out", str(tmp_path / "r")],
        "eval": ["eval", "--model", str(model_file), "--data", str(data_dir), "--split", "test", "--split-seed", "-1"],
        "gradcheck": ["gradcheck", "--loss", "iwl", "--trials", "1", "--seed", "-1"],
        "experiment": ["experiment", "--spec", str(spec), "--out", str(tmp_path / "results.csv")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error" in err and "nonnegative" in err and "-1" in err


def test_train_stops_at_the_first_non_finite_loss(tmp_path, data_dir, capsys):
    model_path = tmp_path / "m.bin"
    log_path = tmp_path / "log.csv"
    args = ["train", "--data", str(data_dir), "--out", str(model_path), "--log", str(log_path)]
    assert main(args + TRAIN_FLAGS + ["--learning-rate", "1e200"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"non-finite training loss at epoch \d+, batch \d+", err), err
    assert not model_path.exists() and not log_path.exists()


def test_train_stops_when_an_adam_step_overflows(tmp_path, data_dir, capsys):
    model_path = tmp_path / "m.bin"
    log_path = tmp_path / "log.csv"
    args = ["train", "--data", str(data_dir), "--out", str(model_path), "--log", str(log_path), "--epochs", "1",
            "--batch-size", "64", "--hidden", "8", "--learning-rate", "1.7e308", "--encode", "raw", "--raw-take", "80"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 2
    assert re.search(r"non-finite parameters .* epoch 0, batch 0", capsys.readouterr().err)
    assert not model_path.exists() and not log_path.exists()


def test_numeric_failures_exit_2_without_numpy_warnings(tmp_path, data_dir, capsys):
    # Neighbouring samples 1.7e308 apart overflow the time interpolation.
    huge = [np.tile([1.7e308, -1.7e308], (2, 40)) for _ in range(3)]
    data = write_array_dataset(tmp_path / "huge", huge, [0, 1, 2])
    diverge = ["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"), *TRAIN_FLAGS, "--learning-rate", "1e200"]
    overflow = ["encode", "--data", str(data), "--out", str(tmp_path / "img"), "--height", "4", "--width", "10",
                "--skip", "0", "--take", "80", "--no-equalize"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(diverge) == 2
        assert "non-finite training loss" in capsys.readouterr().err
        assert main(overflow) == 2
        assert "non-finite pixels" in capsys.readouterr().err


def test_train_bad_loss_name(tmp_path, data_dir):
    args = ["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"), "--loss", "hinge"] + TRAIN_FLAGS
    assert main(args) == 2


def test_train_raw_encoder(tmp_path, data_dir):
    model_path = tmp_path / "model.bin"
    args = ["train", "--data", str(data_dir), "--out", str(model_path), "--encode", "raw"] + TRAIN_FLAGS
    assert main(args) == 0
    assert load_model(model_path).input_dim == 2 * 80


def test_train_image_encoder_saves_and_loads_its_kind(tmp_path, data_dir):
    # Kind image is CME's image without the factors; a model trained on it says so in its header.
    model_path = tmp_path / "model.bin"
    args = ["train", "--data", str(data_dir), "--out", str(model_path), "--encode", "image"] + TRAIN_FLAGS
    assert main(args) == 0
    assert b'"kind":"image"' in model_path.read_bytes()
    model = load_model(model_path)
    assert model.encoder == EncoderSpec("image", height=4, width=10, skip=0, take=80, raw_take=80)
    save_model(model, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == model_path.read_bytes()
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == 0


# ---------------------------------------------------------------------------
# experiment


def test_experiment_command(tmp_path, capsys):
    spec = tmp_path / "grid.txt"
    spec.write_text(EXPERIMENT_SPEC)
    out = tmp_path / "results.csv"
    assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + cme + raw cells
    assert lines[1].startswith("iwl,0.3,none,cme,1,")
    assert "wrote 2 result rows" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["data.head_count = -1", "data.counts = 5, 5"])
def test_experiment_rejects_unusable_class_counts(tmp_path, capsys, line):
    spec = tmp_path / "grid.txt"
    spec.write_text(EXPERIMENT_SPEC.replace("data.head_count = 5", line))
    out = tmp_path / "results.csv"
    assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_experiment_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    spec = tmp_path / "grid.txt"
    spec.write_text(EXPERIMENT_SPEC)
    out = tmp_path / "results.csv"
    assert main(["experiment", "--spec", str(spec), "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Unwritable outputs


@pytest.mark.parametrize(
    "command", ["experiment", "train-out", "train-log", "eval-out", "eval-confusion", "gradcheck", "analyze", "encode",
                "synth", "resample"]
)
def test_unwritable_output_exits_2(tmp_path, data_dir, model_file, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.txt").write_text(EXPERIMENT_SPEC)
    (tmp_path / "synth.txt").write_text(SYNTH_SPEC)
    (tmp_path / "afile").write_text("")
    missing = str(tmp_path / "missing" / "out.csv")
    train = ["train", "--data", str(data_dir), *TRAIN_FLAGS]
    argv = {
        "experiment": ["experiment", "--spec", "grid.txt", "--out", missing],
        "train-out": [*train, "--out", missing],
        "train-log": [*train, "--out", "m.bin", "--log", missing],
        "eval-out": ["eval", "--model", str(model_file), "--data", str(data_dir), "--out", missing],
        "eval-confusion": ["eval", "--model", str(model_file), "--data", str(data_dir), "--confusion", missing],
        "gradcheck": ["gradcheck", "--loss", "iwl", "--trials", "1", "--out", missing],
        "analyze": ["analyze", "--data", str(data_dir), "--out", missing],
        "encode": ["encode", "--data", str(data_dir), "--out", "afile", "--height", "4", "--width", "10",
                   "--skip", "0", "--take", "80"],
        "synth": ["synth", "--spec", "synth.txt", "--out", "afile"],
        "resample": ["resample", "--data", str(data_dir), "--alpha", "0.5", "--out", "afile"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, outputs",
    [
        ("train", ["--out", "missing/m.bin"]),
        ("train", ["--out", "m.bin", "--log", "missing/log.csv"]),
        ("eval", ["--out", "missing/metrics.csv"]),
        ("eval", ["--out", "metrics.csv", "--confusion", "missing/confusion.csv"]),
    ],
    ids=["train-out", "train-log", "eval-out", "eval-confusion"],
)
def test_train_and_eval_check_their_output_paths_before_any_work(
    tmp_path, data_dir, model_file, monkeypatch, capsys, command, outputs
):
    # Before the check, a bad --log left the model written, and a bad --out trained every epoch first.
    from ecgbalance import cli

    monkeypatch.chdir(tmp_path)
    loads, load = [], cli.load_csv
    monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: loads.append(args) or load(*args, **kwargs))
    argv = {
        "train": ["train", "--data", str(data_dir), *TRAIN_FLAGS],
        "eval": ["eval", "--model", str(model_file), "--data", str(data_dir)],
    }[command]
    assert main([*argv, *outputs]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_experiment_checks_its_output_directory_before_the_grid(tmp_path, monkeypatch, capsys):
    from ecgbalance import cli

    def fail(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "run_experiment", fail)
    spec = tmp_path / "grid.txt"
    spec.write_text(EXPERIMENT_SPEC)
    for out in (tmp_path / "missing" / "results.csv", tmp_path):
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
