import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from ecgbalance import (
    EncoderSpec,
    ExperimentSpec,
    SplitSpec,
    TrainConfig,
    cli,
    experiment,
    generate_synthetic,
    longtail_counts,
    parse_experiment_spec,
    resample,
    resample_positions,
    run_experiment,
    split,
    synth_labels,
    write_csv_dataset,
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
from ecgbalance.trainer import featurize_dataset

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


@pytest.mark.parametrize("key", ["loss", "beta", "alpha", "encode", "seeds"])
def test_parse_spec_rejects_an_empty_grid_axis(tmp_path, key):
    # An empty axis used to run no cells and write a row of NaN means.
    path = tmp_path / "empty.txt"
    path.write_text(f"data.classes = 3\n{key} = ,\n")
    with pytest.raises(SpecError, match="grid has no"):
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


def seed_blocks(calls, seed):
    """The datasets generate_synthetic returned for ``seed``, in call order."""
    return [d for args, d in calls["generate_synthetic"] if args[0].seed == seed]


def test_run_experiment_builds_each_seed_dataset_once(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path))
    monkeypatch.setattr(experiment, "BLOCK_RECORDS", 5)
    calls = count_calls(monkeypatch, "generate_synthetic", "resample_positions", "split_positions")
    run_experiment(spec, jobs=1)
    for seed in spec.seeds:
        blocks = seed_blocks(calls, seed)
        assert len(blocks) > 1 and max(len(d) for d in blocks) == 5
        # alpha none keeps every record: each is synthesized exactly once, in dataset order.
        full = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
        built = [r for d in blocks for r in d]
        assert [r.record_id for r in built] == [r.record_id for r in full]
        assert all(a.channels.tobytes() == b.channels.tobytes() for a, b in zip(built, full))
    # One resample_positions per seed and non-None alpha (0.5), and one split per seed and alpha.
    assert len(calls["resample_positions"]) == len(spec.seeds)
    assert len(calls["split_positions"]) == len(spec.seeds) * len(spec.alphas)


def test_run_experiment_synthesizes_only_the_kept_records(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path, TINY_SPEC.replace("alpha = none, 0.5", "alpha = 0.5")))
    monkeypatch.setattr(experiment, "BLOCK_RECORDS", 4)
    calls = count_calls(monkeypatch, "generate_synthetic", "resample_positions", "train_stack", "score")
    run_experiment(spec, jobs=1)
    assert len(calls["resample_positions"]) == len(spec.seeds)
    # Per seed: one stack per encode, each holding the three loss cells, and one score per cell.
    stacks_per_seed, cells_per_stack = len(spec.encodes), 3
    assert len(calls["train_stack"]) == len(spec.seeds) * stacks_per_seed
    for k, seed in enumerate(spec.seeds):
        kept = calls["resample_positions"][k][1]
        full = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
        expected = resample(full, longtail_counts(full.class_counts(), 0.5), seed)
        # Each kept record is synthesized exactly once, and nothing else is.
        ids = [r.record_id for d in seed_blocks(calls, seed) for r in d]
        assert len(ids) == len(set(ids)) == len(kept) < len(full)
        assert sorted(ids) == sorted(r.record_id for r in expected)
        # Features row r is record ids[r]; each stack's train and test rows are split's sides.
        d_train, d_test = split(expected, SplitSpec(train_fraction=spec.train_fraction, seed=seed))
        stacks = calls["train_stack"][k * stacks_per_seed : (k + 1) * stacks_per_seed]
        scores = calls["score"][k * stacks_per_seed * cells_per_stack : (k + 1) * stacks_per_seed * cells_per_stack]
        for s, ((x, rows, labels, cfgs, _), models) in enumerate(stacks):
            assert len(cfgs) == len(models) == cells_per_stack
            assert [ids[r] for r in rows] == [r.record_id for r in d_train]
            assert labels.tolist() == d_train.labels().tolist()
            assert x[rows].tobytes() == featurize_dataset(d_train, cfgs[0].encode).tobytes()
            for (model, x_test, test_labels), _ in scores[s * cells_per_stack : (s + 1) * cells_per_stack]:
                assert x_test.tobytes() == featurize_dataset(d_test, model.encoder).tobytes()
                assert test_labels.tolist() == d_test.labels().tolist()


MIXED_GRID = """loss = iwl, ce, focal, cb, cb_focal, ldam
beta = 0.3, 2
alpha = none, 0.5
encode = cme, raw
seeds = 0, 3
"""


@pytest.mark.parametrize("source", ["synthetic", "data.dir"])
def test_mixed_loss_grid_writes_one_csv_at_any_worker_count(tmp_path, source):
    base = TINY_SPEC.split("seeds = 0, 1\n", 1)[1]
    if source == "data.dir":
        data = tmp_path / "data"
        write_csv_dataset(generate_synthetic(synth_spec_from_mapping(parse_kv_file(write_spec(tmp_path)), "data.")), data)
        base = base.split("data.classes")[0] + f"data.dir = {data}\n"
    spec_path = write_spec(tmp_path, MIXED_GRID + base)
    spec = parse_experiment_spec(spec_path)
    assert len(grid_cells(spec)) == 28
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"results_{jobs}.csv"
        assert cli.main(["experiment", "--spec", str(spec_path), "--out", str(out), "--jobs", str(jobs)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # Each cell alone, a stack of one, gives what its stack gave.
    write_results_csv([_aggregate(cell, run_cell(spec, cell)) for cell in grid_cells(spec)], tmp_path / "cells.csv")
    assert (tmp_path / "cells.csv").read_bytes() == outputs[0]


def test_one_seed_fit_peaks_below_its_kept_records(tmp_path):
    # Long records, small images: the features are a sliver of the raw records.
    spec = parse_experiment_spec(
        write_spec(
            tmp_path,
            "loss = iwl, ce\nalpha = 0.5\nencode = cme\nepochs = 1\nhidden = 8\nimage.height = 4\n"
            "image.width = 20\nwindow.skip = 0\nwindow.take = 2000\ndata.classes = 3\ndata.head_count = 200\n"
            "data.channels = 4\ndata.length = 2000\ndata.noise_sd = 0.5\n",
        )
    )
    cells = grid_cells(spec)
    labels = synth_labels(dataclasses.replace(spec.synth, seed=0))
    kept = resample_positions(labels, longtail_counts(np.bincount(labels), 0.5), 0)
    kept_bytes = kept.size * spec.synth.n_channels * spec.synth.length * 8
    tracemalloc.start()
    try:
        experiment._fit_seed(spec, cells, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept_bytes > 4e6
    assert peak < kept_bytes, (peak, kept_bytes)


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
