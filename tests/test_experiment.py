import dataclasses
import re

import pytest

from ecgbalance import (
    EncoderSpec,
    ExperimentSpec,
    TrainConfig,
    experiment,
    generate_synthetic,
    longtail_counts,
    parse_experiment_spec,
    resample,
    run_experiment,
    write_results_csv,
)
from ecgbalance.errors import ConfigError, SpecError
from ecgbalance.experiment import (
    _GRID_KEYS,
    _SCALAR_KEYS,
    RESULT_COLUMNS,
    CellKey,
    _aggregate,
    grid_cells,
    parse_kv_file,
    read_results_csv,
    run_cell,
    synth_spec_from_mapping,
)

TINY_SPEC = """\
# A grid small enough to run in seconds.
loss = iwl, ce
beta = 0.1, 0.9
alpha = none, 0.5
encode = cme, raw
seeds = 0, 1
epochs = 2
learning_rate = 0.01
batch_size = 8
hidden = 8
train_fraction = 0.75
image.height = 4
image.width = 20
window.skip = 0
window.take = 80
raw.take = 80
data.classes = 3
data.head_count = 6
data.channels = 2
data.length = 80
data.noise_sd = 0.5
data.sample_rate = 200
"""


def write_spec(tmp_path, text=TINY_SPEC):
    path = tmp_path / "grid.txt"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Key-value parsing


def test_parse_kv_file(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# heading\na = 1\n\nb = x = y # trailing comment\n  c=  spaced \n")
    mapping = parse_kv_file(path)
    assert mapping == {"a": "1", "b": "x = y", "c": "spaced"}


def test_parse_kv_file_rejects_duplicates(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(SpecError):
        parse_kv_file(path)


def test_parse_kv_file_rejects_bare_words(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("just a line\n")
    with pytest.raises(SpecError):
        parse_kv_file(path)


# ---------------------------------------------------------------------------
# Spec parsing


def test_parse_spec_round_trip(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    assert spec.losses == ("iwl", "cross_entropy")
    assert spec.betas == (0.1, 0.9)
    assert spec.alphas == (None, 0.5)
    assert spec.encodes == ("cme", "raw")
    assert spec.seeds == (0, 1)
    assert spec.train.epochs == 2
    assert spec.train.hidden == (8,)
    assert spec.train.encode == EncoderSpec(height=4, width=20, skip=0, take=80, raw_take=80)
    assert spec.train_fraction == 0.75
    assert spec.synth is not None
    assert spec.synth.n_classes == 3
    assert spec.synth.per_class_counts == (6, 6, 6)
    assert spec.synth.n_channels == 2


def test_parse_spec_defaults(tmp_path):
    path = tmp_path / "minimal.txt"
    path.write_text("data.classes = 3\n")
    spec = parse_experiment_spec(path)
    assert spec.losses == ("iwl",)
    assert spec.betas == (0.3,)
    assert spec.alphas == (None,)
    assert spec.seeds == (0,)
    assert spec.train.epochs == 30
    assert spec.train.encode.height == 128 and spec.train.encode.width == 128
    assert spec.train == TrainConfig(epochs=30)
    assert spec.loss_params == {}
    assert spec.synth.length == 3000


def test_parse_spec_loss_params(tmp_path):
    path = tmp_path / "loss.txt"
    path.write_text("data.classes = 3\niwl.epsilon = 1e-9\nfocal.gamma = 1.5\ncb.beta = 0.99\nldam.mu = 0.3\nldam.s = 10\n")
    spec = parse_experiment_spec(path)
    assert spec.loss_params == {"epsilon": 1e-9, "gamma": 1.5, "cb_beta": 0.99, "ldam_mu": 0.3, "ldam_s": 10.0}


def test_parse_spec_rejects_empty_spec(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing but a comment\n\n")
    with pytest.raises(SpecError, match="no keys"):
        parse_experiment_spec(path)


def test_spec_key_set_is_unchanged():
    keys = {
        "loss", "beta", "alpha", "encode", "seeds",
        "epochs", "learning_rate", "batch_size", "hidden", "train_fraction",
        "image.height", "image.width", "window.skip", "window.take", "raw.take",
        "iwl.epsilon", "focal.gamma", "cb.beta", "ldam.mu", "ldam.s",
        "data.dir", "data.classes", "data.class_names", "data.counts", "data.head_count", "data.channels",
        "data.length", "data.sample_rate", "data.noise_sd", "data.amplitude", "data.channel_gain",
        "data.base_frequency", "data.frequency_spacing", "data.seed",
    }
    assert set(_GRID_KEYS) | set(_SCALAR_KEYS) == keys
    assert len(_GRID_KEYS) + len(_SCALAR_KEYS) == len(keys)


def test_parse_spec_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.txt"
    path.write_text("data.classes = 3\nlearning_rte = 0.01\n")
    with pytest.raises(SpecError, match="learning_rte"):
        parse_experiment_spec(path)


def test_parse_spec_rejects_bad_values(tmp_path):
    for line, exc in [
        ("loss = hinge", ConfigError),
        ("alpha = 1.5", SpecError),
        ("encode = fft", SpecError),
        ("epochs = soon", SpecError),
        ("beta = warm", SpecError),
    ]:
        path = tmp_path / "bad.txt"
        path.write_text(f"data.classes = 3\n{line}\n")
        with pytest.raises(exc):
            parse_experiment_spec(path)


def test_spec_requires_some_data_source():
    with pytest.raises(SpecError):
        ExperimentSpec()


def test_synth_mapping_counts_override_head_count():
    spec = synth_spec_from_mapping({"classes": "3", "counts": "9, 5, 2", "head_count": "64"})
    assert spec.per_class_counts == (9, 5, 2)
    balanced = synth_spec_from_mapping({"classes": "3", "head_count": "7"})
    assert balanced.per_class_counts == (7, 7, 7)


def test_synth_mapping_gain_list_sets_channel_count():
    spec = synth_spec_from_mapping({"channel_gain": "1.0, 0.5, 0.1"})
    assert spec.n_channels == 3
    assert spec.channel_gain == (1.0, 0.5, 0.1)
    defaulted = synth_spec_from_mapping({"channels": "4"})
    assert defaulted.n_channels == 4
    assert defaulted.channel_gain == (1.0,) * 4


def test_synth_mapping_prefix():
    spec = synth_spec_from_mapping({"data.classes": "2", "data.class_names": "x, y"}, prefix="data.")
    assert spec.n_classes == 2
    assert spec.class_names == ("x", "y")


# ---------------------------------------------------------------------------
# Grid enumeration


def test_grid_cells_order_and_beta_scope(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    cells = grid_cells(spec)
    # iwl spans betas x alphas x encodes; ce collapses the beta axis.
    assert len(cells) == 2 * 2 * 2 + 1 * 2 * 2
    assert cells[0] == CellKey(loss="iwl", beta=0.1, alpha=None, encode="cme")
    assert cells[1] == CellKey(loss="iwl", beta=0.1, alpha=None, encode="raw")
    assert cells[2] == CellKey(loss="iwl", beta=0.1, alpha=0.5, encode="cme")
    assert cells[4] == CellKey(loss="iwl", beta=0.9, alpha=None, encode="cme")
    assert cells[8] == CellKey(loss="cross_entropy", beta=None, alpha=None, encode="cme")
    assert all(c.beta is None for c in cells if c.loss == "cross_entropy")


# ---------------------------------------------------------------------------
# Running


def test_run_cell_is_deterministic(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    cell = grid_cells(spec)[0]
    first = run_cell(spec, cell)
    second = run_cell(spec, cell)
    assert first == second
    assert len(first) == len(spec.seeds)
    for acc, f1 in first:
        assert 0.0 <= acc <= 1.0 and 0.0 <= f1 <= 1.0


def test_run_experiment_worker_count_does_not_change_results(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    cells = grid_cells(spec)
    serial = run_experiment(spec, jobs=1)
    assert run_experiment(spec, jobs=2) == serial
    # 12 cells over 5 workers: groups of 3, 3, 2, 2 and 2 cells.
    assert run_experiment(spec, jobs=5) == serial
    assert serial == [_aggregate(cell, run_cell(spec, cell)) for cell in cells]
    assert [r.cell for r in serial] == cells
    assert all(r.n_seeds == 2 for r in serial)


def count_calls(monkeypatch, *names):
    """Record (args, result) of every call to the named experiment module globals."""
    calls = {name: [] for name in names}

    def counted(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in names:
        monkeypatch.setattr(experiment, name, counted(name))
    return calls


def test_run_experiment_builds_each_seed_dataset_once(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path))
    calls = count_calls(monkeypatch, "generate_synthetic", "resample_positions", "split")
    run_experiment(spec, jobs=1)
    assert [args[0].seed for args, _ in calls["generate_synthetic"]] == list(spec.seeds)
    # One resample_positions per seed and non-None alpha (0.5), and one split per seed and alpha.
    assert len(calls["resample_positions"]) == len(spec.seeds)
    assert len(calls["split"]) == len(spec.seeds) * len(spec.alphas)


def test_run_experiment_synthesizes_only_the_kept_records(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path, TINY_SPEC.replace("alpha = none, 0.5", "alpha = 0.5")))
    calls = count_calls(monkeypatch, "generate_synthetic", "resample_positions", "split")
    run_experiment(spec, jobs=1)
    synthesized = [len(d) for _, d in calls["generate_synthetic"]]
    kept = [len(positions) for _, positions in calls["resample_positions"]]
    assert len(synthesized) == len(spec.seeds)
    assert synthesized == kept
    assert all(n < sum(spec.synth.per_class_counts) for n in kept)
    # Each seed splits exactly what resampling its full dataset would keep.
    for seed, ((d, _), _) in zip(spec.seeds, calls["split"]):
        full = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
        expected = resample(full, longtail_counts(full.class_counts(), 0.5), seed)
        assert [r.record_id for r in d] == [r.record_id for r in expected]
        assert all(a.channels.tobytes() == b.channels.tobytes() for a, b in zip(d, expected))


# ---------------------------------------------------------------------------
# Results CSV


def test_results_csv_format(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    rows = run_experiment(spec, jobs=1)
    out = tmp_path / "results.csv"
    write_results_csv(rows, out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "iwl" and first[1] == "0.1" and first[2] == "none" and first[3] == "cme"
    assert first[4] == "2"
    # Metrics are percentages with exactly one decimal place.
    for value in first[5:]:
        assert re.fullmatch(r"\d+\.\d", value), value
    ce_line = next(l for l in lines[1:] if l.startswith("cross_entropy"))
    assert ce_line.split(",")[1] == ""  # no beta axis for cross-entropy

    again = tmp_path / "results2.csv"
    write_results_csv(rows, again)
    assert out.read_bytes() == again.read_bytes()

    parsed = read_results_csv(out)
    assert len(parsed) == len(rows)
    assert set(parsed[0]) == set(RESULT_COLUMNS)
    assert parsed[0]["loss"] == "iwl"
