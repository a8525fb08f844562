import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgbalance import (
    EncoderSpec,
    ExperimentSpec,
    LossConfig,
    SplitSpec,
    SynthSpec,
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
    split_positions,
    synth_labels,
    trainer,
    write_csv_dataset,
    write_results_csv,
)
from ecgbalance.errors import ConfigError, SpecError
from ecgbalance.experiment import (
    _GRID_KEYS,
    _SCALAR_KEYS,
    RESULT_COLUMNS,
    SYNTH_KEYS,
    CellKey,
    ResultRow,
    _run_cells,
    grid_cells,
    parse_kv_file,
    synth_spec_from_mapping,
)
from ecgbalance.trainer import BLOCK_RECORDS, featurize_dataset, init_model, score, train_stack

from conftest import traced_peak

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
    assert spec.synth.length == 3000


def test_parse_spec_loss_params(tmp_path):
    path = tmp_path / "loss.txt"
    path.write_text("data.classes = 3\niwl.epsilon = 1e-9\nfocal.gamma = 1.5\ncb.beta = 0.99\nldam.mu = 0.3\nldam.s = 10\n")
    spec = parse_experiment_spec(path)
    assert spec.train.loss == LossConfig(epsilon=1e-9, gamma=1.5, cb_beta=0.99, ldam_mu=0.3, ldam_s=10.0)


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
        "data.base_frequency", "data.frequency_spacing",
    }
    assert set(_GRID_KEYS) | set(_SCALAR_KEYS) == keys
    assert len(_GRID_KEYS) + len(_SCALAR_KEYS) == len(keys)


@pytest.mark.parametrize("line", ["learning_rte = 0.01", "data.seed = 7"])
def test_parse_spec_rejects_unknown_key(tmp_path, line):
    # Each grid seed replaces the recipe's seed, so data.seed could have no effect.
    path = tmp_path / "typo.txt"
    path.write_text(f"data.classes = 3\n{line}\n")
    with pytest.raises(SpecError, match=re.escape(line.split(" =")[0])):
        parse_experiment_spec(path)


def test_parse_spec_rejects_bad_values(tmp_path):
    for line, exc in [
        ("loss = hinge", ConfigError),
        ("alpha = 1.5", SpecError),
        ("encode = fft", SpecError),
        ("epochs = soon", SpecError),
        ("beta = warm", SpecError),
        # Spellings Python's int() and float() read but a spec does not: "_" separators,
        # non-ASCII digits (Arabic-Indic, full-width), in grid, scalar and data keys.
        ("epochs = 1_0", SpecError),
        ("seeds = \u0663", SpecError),
        ("beta = 0.\uff13", SpecError),
        ("learning_rate = \uff11.5", SpecError),
        ("data.length = 8\u0660", SpecError),
        ("data.noise_sd = 0_4", SpecError),
        # SplitSpec's rule, checked when the spec is parsed rather than in the first seed's fit.
        ("train_fraction = 1.5", SpecError),
        ("train_fraction = 1.0", SpecError),
        ("train_fraction = 0", SpecError),
        # A grid axis that repeats a value, after loss names are canonicalized.
        ("seeds = 0, 0", SpecError),
        ("loss = ce, cross_entropy", SpecError),
        ("beta = 0.1, 0.10", SpecError),
        ("alpha = none, None", SpecError),
        ("encode = raw, raw", SpecError),
    ]:
        path = tmp_path / "bad.txt"
        path.write_text(f"data.classes = 3\n{line}\n", encoding="utf-8")
        key = line.split(" =")[0].removeprefix("data.")
        with pytest.raises(exc, match=re.escape(key)):
            parse_experiment_spec(path)


def test_parse_spec_accepts_a_subnormal_alpha(tmp_path):
    # 1e-320 is plain ASCII and lies in (0, 1], so it is a valid alpha.
    path = tmp_path / "tiny.txt"
    path.write_text("data.classes = 3\nalpha = 1e-320\n")
    assert parse_experiment_spec(path).alphas == (1e-320,)


def test_readme_names_every_spec_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([\w.]+)`", readme)) | set(re.findall(r"^([\w.]+) = ", readme, re.M))
    assert [key for key in (*_GRID_KEYS, *_SCALAR_KEYS) if key not in named] == []


@pytest.mark.parametrize("key", ["data." + k for k in SYNTH_KEYS])
def test_parse_spec_rejects_synthetic_keys_beside_data_dir(tmp_path, key):
    # A data.dir dataset is loaded, not synthesized, so these keys could have no effect.
    path = tmp_path / "mixed.txt"
    path.write_text(f"data.dir = ds\n{key} = 5\n")
    with pytest.raises(SpecError, match=re.escape(key)):
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


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"seeds": (1.5,)}, "seeds"),
        ({"seeds": (True,)}, "seeds"),
        ({"seeds": (0, 0)}, "seeds"),
        ({"alphas": ("0.5",)}, "alpha"),
        ({"alphas": (True,)}, "alpha"),
        ({"train_fraction": None}, "train_fraction"),
        ({"train_fraction": "0.9"}, "train_fraction"),
        ({"losses": (None,)}, "losses"),
        ({"encodes": (["cme"],)}, "encode"),
        ({"losses": ("ce", "cross_entropy")}, "losses"),
        # Every beta follows LossConfig's rule, also in a grid with no iwl cell to read it.
        ({"losses": ("ce",), "betas": ("warm", None)}, "beta"),
        ({"losses": ("ce",), "betas": (-1.0, float("nan"))}, "beta"),
        ({"betas": (-1.0,)}, "beta"),
        ({"betas": (float("inf"),)}, "beta"),
        ({"betas": ([1],)}, "beta"),
        ({"losses": ("focal",), "betas": (True,)}, "beta"),
        # Each grid axis is a tuple or list, not one value, and not a string split into characters.
        ({"betas": 0.3}, "betas"),
        ({"seeds": 0}, "seeds"),
        ({"alphas": 0.5}, "alphas"),
        ({"losses": "iwl"}, "losses"),
        ({"encodes": "cme"}, "encodes"),
        ({"train": None}, "train"),
        ({"synth": "x"}, "synth"),
        # data_dir names a directory: load_csv would fail on these with a bare TypeError.
        ({"data_dir": 5}, "data_dir"),
        ({"data_dir": b"ds"}, "data_dir"),
        ({"data_dir": ["ds"]}, "data_dir"),
        # Exactly one data source: a synth beside data.dir would be ignored.
        ({"synth": SynthSpec()}, "not both"),
    ],
)
def test_spec_rejects_a_grid_value_of_the_wrong_type_or_a_repeat(fields, key):
    # A library caller's spec is checked as a parsed one is, so none of these ends in a bare TypeError.
    with pytest.raises(SpecError, match=key):
        ExperimentSpec(**{"data_dir": "ds", **fields})


def test_spec_takes_a_path_for_data_dir():
    assert ExperimentSpec(data_dir=Path("ds")).data_dir == Path("ds")


def test_spec_takes_a_list_for_a_grid_axis_and_keeps_a_tuple():
    axes = dict(losses=["ce", "iwl"], betas=[0.3], alphas=[None, 0.5], encodes=["raw"], seeds=[2])
    spec = ExperimentSpec(data_dir="ds", **axes)
    assert [getattr(spec, axis) for axis in axes] == [("cross_entropy", "iwl"), (0.3,), (None, 0.5), ("raw",), (2,)]
    assert hash(spec) == hash(dataclasses.replace(spec))


def test_spec_canonicalizes_loss_names():
    spec = ExperimentSpec(losses=("CE", "iwl"), data_dir="ds")
    assert spec.losses == ("cross_entropy", "iwl")
    assert grid_cells(spec)[0].loss == "cross_entropy"


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


def test_synth_mapping_defaults_are_synth_spec_defaults():
    assert synth_spec_from_mapping({}) == SynthSpec()
    assert synth_spec_from_mapping({"head_count": "5"}) == SynthSpec(per_class_counts=(5,) * 9)


@pytest.mark.parametrize(
    "mapping, key",
    [
        ({"classes": "3", "counts": "1, 2"}, "classes"),
        ({"classes": "2", "counts": "1, 2, 3", "head_count": "4"}, "classes"),
        ({"channels": "4", "channel_gain": "1, 0.5"}, "channels"),
        ({"data.channels": "1", "data.channel_gain": "1, 0.5"}, "data.channels"),
    ],
)
def test_synth_mapping_size_key_must_agree_with_its_list(mapping, key):
    prefix = "data." if key.startswith("data.") else ""
    with pytest.raises(SpecError, match=re.escape(key)):
        synth_spec_from_mapping(mapping, prefix=prefix)


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
    first = _run_cells(spec, [cell])[0]
    second = _run_cells(spec, [cell])[0]
    assert first == second
    assert first.cell == cell and len(first.per_seed) == len(spec.seeds)
    for acc, f1 in first.per_seed:
        assert 0.0 <= acc <= 1.0 and 0.0 <= f1 <= 1.0


def test_a_row_holds_what_each_of_its_seeds_gives_alone(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    rows = run_experiment(spec)
    for k, seed in enumerate(spec.seeds):
        alone = run_experiment(dataclasses.replace(spec, seeds=(seed,)))
        assert [r.cell for r in alone] == [r.cell for r in rows]
        assert [r.per_seed for r in alone] == [(r.per_seed[k],) for r in rows]


@pytest.mark.parametrize("per_seed", [((0.5, 0.25),), ((0.5, 0.25), (1.0, 0.75), (0.75, 0.125))])
def test_row_statistics_are_computed_from_its_seeds(per_seed):
    row = ResultRow(CellKey(loss="iwl", beta=0.3, alpha=None, encode="cme"), per_seed)
    acc, f1 = np.array(per_seed).T
    assert row.n_seeds == len(per_seed)
    assert (row.accuracy_mean, row.macro_f1_mean) == (np.mean(acc), np.mean(f1))
    if len(per_seed) == 1:
        assert (row.accuracy_sd, row.macro_f1_sd) == (0.0, 0.0)
    else:
        assert (row.accuracy_sd, row.macro_f1_sd) == (np.std(acc, ddof=1), np.std(f1, ddof=1))
    assert [f.name for f in dataclasses.fields(row)] == ["cell", "per_seed"]


def test_a_serial_process_does_not_load_the_process_pool(tmp_path):
    # Only run_experiment's jobs > 1 branch imports the pool; the --jobs 2 tests run it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "import ecgbalance.cli\n"
        "from ecgbalance import parse_experiment_spec\n"
        f"parse_experiment_spec({str(write_spec(tmp_path))!r})\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_experiment_worker_count_does_not_change_results(tmp_path):
    spec = parse_experiment_spec(write_spec(tmp_path))
    cells = grid_cells(spec)
    serial = run_experiment(spec, jobs=1)
    assert run_experiment(spec, jobs=2) == serial
    # 12 cells over 5 workers: groups of 3, 3, 2, 2 and 2 cells.
    assert run_experiment(spec, jobs=5) == serial
    assert serial == [row for cell in cells for row in _run_cells(spec, [cell])]
    assert [r.cell for r in serial] == cells
    assert all(r.n_seeds == 2 for r in serial)


def count_calls(monkeypatch, *names):
    """Record (args, result) of every call to the named experiment module globals,
    and (name, args, result) of all of them in the order they return under "order"."""
    calls = {name: [] for name in names}
    calls["order"] = []

    def counted(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append((args, result))
            calls["order"].append((name, args, result))
            return result

        return wrapper

    for name in names:
        monkeypatch.setattr(experiment, name, counted(name))
    return calls


def seed_blocks(calls, seed):
    """The datasets generate_synthetic returned for ``seed``, in call order."""
    return [d for args, d in calls["generate_synthetic"] if args[0].seed == seed]


def test_run_experiment_fits_each_alpha_on_its_own(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path))
    monkeypatch.setattr(trainer, "BLOCK_RECORDS", 5)
    calls = count_calls(monkeypatch, "generate_synthetic", "resample_positions", "split_positions", "train_stack")
    run_experiment(spec, jobs=1)
    split_spec = lambda seed: SplitSpec(train_fraction=spec.train_fraction, seed=seed)
    for seed in spec.seeds:
        blocks = seed_blocks(calls, seed)
        assert len(blocks) > 1 and max(len(d) for d in blocks) == 5
        full = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
        by_id = {r.record_id: r for r in full}
        position = {r.record_id: k for k, r in enumerate(full)}
        assert all(r.channels.tobytes() == by_id[r.record_id].channels.tobytes() for d in blocks for r in d)
        # Alpha by alpha: its train side is built, in split order, before its first stack trains;
        # nothing is built while its stacks train; its test side is built, in dataset order, after
        # its last stack. Nothing else is built, so alpha none builds every record once more.
        expected = []
        for alpha in spec.alphas:
            kept = full if alpha is None else resample(full, longtail_counts(full.class_counts(), alpha), seed)
            d_train, d_test = split(kept, split_spec(seed))
            expected += [r.record_id for r in d_train] + ["train_stack"] * len(spec.encodes)
            expected += sorted((r.record_id for r in d_test), key=position.get)
        built = []
        for name, args, result in calls["order"]:
            if name == "generate_synthetic" and args[0].seed == seed:
                built += [r.record_id for r in result]
            elif name == "train_stack" and args[2][0].seed == seed:
                built.append(name)
        assert built == expected
    # One resample_positions per seed and non-None alpha (0.5), and one split per seed and alpha.
    assert len(calls["resample_positions"]) == len(spec.seeds)
    assert len(calls["split_positions"]) == len(spec.seeds) * len(spec.alphas)


def test_run_experiment_synthesizes_only_the_kept_records(tmp_path, monkeypatch):
    spec = parse_experiment_spec(write_spec(tmp_path, TINY_SPEC.replace("alpha = none, 0.5", "alpha = 0.5")))
    monkeypatch.setattr(trainer, "BLOCK_RECORDS", 4)
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
        # Each stack trains on split's train side, in split order, and is scored on split's test
        # side, in dataset order.
        d_train, d_test = split(expected, SplitSpec(train_fraction=spec.train_fraction, seed=seed))
        position = {r.record_id: k for k, r in enumerate(full)}
        d_test = d_test.take(np.argsort([position[r.record_id] for r in d_test]))
        assert ids == [r.record_id for r in (*d_train, *d_test)]
        stacks = calls["train_stack"][k * stacks_per_seed : (k + 1) * stacks_per_seed]
        scores = calls["score"][k * stacks_per_seed * cells_per_stack : (k + 1) * stacks_per_seed * cells_per_stack]
        for s, ((x, labels, cfgs, _), models) in enumerate(stacks):
            assert len(cfgs) == len(models) == cells_per_stack
            assert labels.tolist() == d_train.labels().tolist()
            assert x.tobytes() == featurize_dataset(d_train, cfgs[0].encode).tobytes()
            for (model, x_test, test_labels), _ in scores[s * cells_per_stack : (s + 1) * cells_per_stack]:
                assert x_test.tobytes() == featurize_dataset(d_test, model.encoder).tobytes()
                assert test_labels.tolist() == d_test.labels().tolist()


def test_an_image_row_is_a_stack_trained_on_image_features(tmp_path):
    # encode = cme, image isolates the CME factors: the image row is CME's pipeline without them, run end to end.
    text = TINY_SPEC.replace("encode = cme, raw", "encode = cme, image").replace("loss = iwl, ce", "loss = iwl")
    path = write_spec(tmp_path, text.replace("beta = 0.1, 0.9", "beta = 0.9").replace("alpha = none, 0.5", "alpha = none"))
    out = tmp_path / "results.csv"
    assert cli.main(["experiment", "--spec", str(path), "--out", str(out)]) == 0
    spec = parse_experiment_spec(path)
    rows = run_experiment(spec)
    write_results_csv(rows, tmp_path / "api.csv")
    assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()
    assert [r.cell.encode for r in rows] == ["cme", "image"]
    image = dataclasses.replace(spec.train.encode, kind="image")
    for seed, scores in zip(spec.seeds, rows[1].per_seed):
        d = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
        train_pos, test_pos = split_positions(d.labels(), d.num_classes, SplitSpec(spec.train_fraction, seed))
        d_train, d_test = d.take(train_pos), d.take(np.sort(test_pos))
        x = featurize_dataset(d_train, image)
        assert not np.array_equal(x, featurize_dataset(d_train, spec.train.encode))
        cfg = dataclasses.replace(spec.train, encode=image, seed=seed, loss=LossConfig("iwl", 0.9))
        [(model, _)] = train_stack(x, d_train.labels(), [cfg], d.class_names)
        metrics = score(model, featurize_dataset(d_test, image), d_test.labels())
        assert scores == (metrics.accuracy, metrics.macro_f1)


def test_an_alpha_with_no_train_records_is_a_config_error(tmp_path):
    # One record per class: each class puts floor(1 * 0.75) = 0 records on the train side.
    spec = parse_experiment_spec(write_spec(tmp_path, TINY_SPEC.replace("data.head_count = 6", "data.head_count = 1")))
    with pytest.raises(ConfigError, match="training dataset is empty"):
        run_experiment(spec)


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
    write_results_csv([row for cell in grid_cells(spec) for row in _run_cells(spec, [cell])], tmp_path / "cells.csv")
    assert (tmp_path / "cells.csv").read_bytes() == outputs[0]


# The results of the data.dir spec below, as written when every seed loaded the dataset again.
DATA_DIR_RESULTS = """\
loss,beta,alpha,encode,seeds,accuracy_mean,accuracy_sd,macro_f1_mean,macro_f1_sd
iwl,0.1,none,cme,3,88.9,19.2,85.2,25.7
iwl,0.1,none,raw,3,100.0,0.0,100.0,0.0
iwl,0.1,0.5,cme,3,91.7,14.4,86.7,23.1
iwl,0.1,0.5,raw,3,100.0,0.0,100.0,0.0
iwl,0.9,none,cme,3,88.9,19.2,85.2,25.7
iwl,0.9,none,raw,3,100.0,0.0,100.0,0.0
iwl,0.9,0.5,cme,3,91.7,14.4,86.7,23.1
iwl,0.9,0.5,raw,3,100.0,0.0,100.0,0.0
cross_entropy,,none,cme,3,88.9,19.2,85.2,25.7
cross_entropy,,none,raw,3,100.0,0.0,100.0,0.0
cross_entropy,,0.5,cme,3,91.7,14.4,86.7,23.1
cross_entropy,,0.5,raw,3,100.0,0.0,100.0,0.0
"""


def test_data_dir_is_loaded_once_for_every_seed(tmp_path, monkeypatch):
    data = tmp_path / "data"
    write_csv_dataset(generate_synthetic(synth_spec_from_mapping(parse_kv_file(write_spec(tmp_path)), "data.")), data)
    text = TINY_SPEC.split("data.classes")[0].replace("seeds = 0, 1", "seeds = 0, 1, 2") + f"data.dir = {data}\n"
    spec_path = write_spec(tmp_path, text)
    calls = count_calls(monkeypatch, "load_csv")
    out = tmp_path / "results.csv"
    assert cli.main(["experiment", "--spec", str(spec_path), "--out", str(out), "--jobs", "1"]) == 0
    assert [args for args, _ in calls["load_csv"]] == [(str(data),)]
    assert out.read_text() == DATA_DIR_RESULTS


def test_a_worker_error_keeps_the_type_and_message_of_a_serial_run(tmp_path, capsys):
    data = tmp_path / "data"
    write_csv_dataset(generate_synthetic(synth_spec_from_mapping(parse_kv_file(write_spec(tmp_path)), "data.")), data)
    record = data / "synth-c2-r0004.csv"
    rows = record.read_text().splitlines()
    rows[4] = ",".join(["nan", *rows[4].split(",")[1:]])
    record.write_text("".join(row + "\n" for row in rows))
    spec_path = write_spec(tmp_path, TINY_SPEC.split("data.classes")[0] + f"data.dir = {data}\n")
    errors = []
    for jobs in ("1", "2"):
        assert cli.main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv"), "--jobs", jobs]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: record 'synth-c2-r0004': non-finite value at row 4, column 0\n"] * 2


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
    _, peak = traced_peak(experiment._fit_seed, spec, cells, 0, None)
    assert kept_bytes > 4e6
    assert peak < kept_bytes, (peak, kept_bytes)


def raw_fit_peak(tmp_path, train_fraction, hidden):
    """Traced peak of a one-seed, one-cell raw fit on 600 records, and the sizes that bound it:
    bytes of one feature row, of the model's parameters, of a block of records built and
    featurized, and of a batch; and the seed's train and test positions."""
    spec = parse_experiment_spec(
        write_spec(
            tmp_path,
            f"loss = iwl\nencode = raw\nepochs = 1\nbatch_size = 8\nhidden = {hidden}\n"
            f"train_fraction = {train_fraction}\nraw.take = 400\ndata.classes = 3\ndata.head_count = 200\n"
            "data.channels = 4\ndata.length = 400\ndata.noise_sd = 0.5\n",
        )
    )
    cells = grid_cells(spec)
    experiment._fit_seed(spec, cells, 1, None)  # first calls allocate what later ones reuse
    labels = synth_labels(dataclasses.replace(spec.synth, seed=0))
    train_pos, test_pos = split_positions(labels, spec.synth.n_classes, SplitSpec(spec.train_fraction, seed=0))
    row = spec.synth.n_channels * spec.train.encode.raw_take * 8
    theta = init_model(row // 8, spec.synth.n_classes, spec.train.encode, rng=np.random.default_rng(0), hidden=spec.train.hidden).theta.nbytes
    block = BLOCK_RECORDS * (spec.synth.n_channels * spec.synth.length * 8 + row)
    sizes = dict(row=row, theta=theta, block=block, batch=spec.train.batch_size * row)
    return traced_peak(experiment._fit_seed, spec, cells, 0, None)[1], sizes, train_pos, test_pos


def test_a_raw_fit_holds_no_test_row_while_it_trains(tmp_path):
    # A wide first layer, so that Adam's two fixed work vectors are small beside the model.
    peak, size, train_pos, test_pos = raw_fit_peak(tmp_path, 0.75, hidden=64)
    bound = train_pos.size * size["row"] + 5 * size["theta"] + size["block"]
    assert test_pos.size * size["row"] > size["theta"] + size["block"]
    assert peak < bound, (peak, bound)


def test_a_half_split_fit_peaks_below_all_its_features(tmp_path):
    # Half the records are test rows: a copy of them on top of the train rows breaks the bound.
    peak, size, train_pos, test_pos = raw_fit_peak(tmp_path, 0.5, hidden=8)
    bound = (train_pos.size + test_pos.size) * size["row"] + 5 * size["theta"] + size["batch"]
    assert test_pos.size * size["row"] > 5 * size["theta"] + size["batch"]
    assert peak < bound, (peak, bound)


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

    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert set(parsed[0]) == set(RESULT_COLUMNS)
    assert parsed[0]["loss"] == "iwl"
