import csv
import dataclasses
import io
import warnings

import numpy as np
import pytest

from ecgbalance import (
    Dataset,
    EcgRecord,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    split,
    synth_labels,
    window_record,
    write_csv_dataset,
)
from ecgbalance.data import csv_text, make_output_dir, read_input, write_output
from ecgbalance.errors import (
    MalformedRecord,
    NonFiniteSample,
    OutputError,
    SpecError,
    UnknownClass,
    WindowOutOfRange,
)

from conftest import make_record, tiny_dataset


# ---------------------------------------------------------------------------
# EcgRecord and Dataset construction


def test_record_requires_2d_matrix():
    with pytest.raises(MalformedRecord):
        make_record(np.zeros(5))


def test_record_rejects_nonpositive_sample_rate():
    with pytest.raises(MalformedRecord):
        make_record(np.zeros((2, 4)), sample_rate=0.0)


def test_record_reports_first_nonfinite_coordinate():
    x = np.zeros((3, 7))
    x[2, 5] = np.nan
    with pytest.raises(NonFiniteSample) as err:
        make_record(x, record_id="bad")
    assert err.value.record_id == "bad"
    assert err.value.row == 5 and err.value.col == 2


@pytest.mark.parametrize("label", [1.5, True, np.float64(1.0), -1])
def test_record_label_must_be_a_nonnegative_integer(label):
    # labels() would truncate 1.5 and True to 1, and load_csv cannot read them back from a manifest.
    with pytest.raises(UnknownClass, match="integer"):
        make_record(np.ones((1, 4)), label=label)


def test_record_accepts_a_numpy_integer_label():
    d = Dataset(records=(make_record(np.ones((1, 4)), label=np.int64(1)),), class_names=("a", "b"))
    assert d.labels().tolist() == [1]


def test_record_channels_are_immutable():
    r = make_record([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        r.channels[0, 0] = 9.0


def test_record_does_not_copy_readonly_input():
    x = np.arange(8.0).reshape(2, 4)
    x.flags.writeable = False
    r = make_record(x)
    assert r.channels is x


def test_record_copies_writable_input():
    x = np.arange(8.0).reshape(2, 4)
    r = make_record(x)
    x[0, 0] = 99.0
    assert r.channels[0, 0] == 0.0


def test_dataset_rejects_label_beyond_class_names():
    with pytest.raises(UnknownClass):
        Dataset(records=(make_record(np.zeros((1, 4)), label=2),), class_names=("a", "b"))


def test_dataset_rejects_mixed_channel_counts():
    r1 = make_record(np.zeros((2, 4)))
    r2 = make_record(np.zeros((3, 4)))
    with pytest.raises(SpecError):
        Dataset(records=(r1, r2), class_names=("a", "b"))


def test_dataset_rejects_duplicate_class_names():
    with pytest.raises(SpecError):
        Dataset(records=(), class_names=("a", "a"))


@pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\u2028b", " a", "a ", "\ta", "a\n", ""])
def test_dataset_rejects_class_names_classes_txt_cannot_carry(name):
    with pytest.raises(SpecError, match="class name"):
        Dataset(records=(), class_names=(name, "c"))


def test_class_names_round_trip_through_classes_txt(tmp_path):
    names = ("a b", "x,y", 'q "r"', "\u00e9t\u00e9", "c")
    records = tuple(make_record(np.zeros((1, 4)), label=i, record_id=f"r{i}") for i in range(len(names)))
    write_csv_dataset(Dataset(records=records, class_names=names), tmp_path / "out")
    assert load_csv(tmp_path / "out").class_names == names


def test_class_counts_and_labels(dataset):
    counts = dataset.class_counts()
    assert counts.tolist() == [4, 4, 4]
    assert sorted(dataset.labels().tolist()) == [0] * 4 + [1] * 4 + [2] * 4


# ---------------------------------------------------------------------------
# CSV ingestion


def _write_dataset_dir(tmp_path, rows_by_file, manifest_lines, classes=None):
    for fname, rows in rows_by_file.items():
        (tmp_path / fname).write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    (tmp_path / "manifest.csv").write_text("\n".join(["file,record_id,label,sample_rate"] + manifest_lines) + "\n")
    if classes is not None:
        (tmp_path / "classes.txt").write_text("\n".join(classes) + "\n")


@pytest.mark.parametrize(
    "ids",
    [("a", "../escaped"), ("a", "x/y"), ("a", "x\\y"), ("a", "x\0y"), ("", "b"), (".", "b"), ("..", "b"), ("a", "a")],
    ids=["parent", "slash", "backslash", "nul", "empty", "dot", "dotdot", "duplicate"],
)
def test_write_csv_dataset_rejects_ids_that_cannot_name_their_own_file(tmp_path, ids):
    records = tuple(make_record(np.ones((1, 4)), label=k, record_id=rid) for k, rid in enumerate(ids))
    with pytest.raises(MalformedRecord, match="cannot name a file|repeats another record's id"):
        write_csv_dataset(Dataset(records=records, class_names=("a", "b")), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_load_csv_single_record_layout(tmp_path):
    # 3000 samples x 12 channels on disk becomes a 12 x 3000 record.
    table = np.round(np.random.default_rng(0).normal(size=(3000, 12)), 6)
    np.savetxt(tmp_path / "rec.csv", table, delimiter=",")
    (tmp_path / "manifest.csv").write_text(
        "file,record_id,label,sample_rate\nrec.csv,rec,2,500.0\n"
    )
    (tmp_path / "classes.txt").write_text("a\nb\nc\n")
    d = load_csv(tmp_path)
    assert len(d) == 1
    r = d.records[0]
    assert r.num_channels == 12 and r.length == 3000 and r.label == 2
    assert np.array_equal(r.channels, table.T)


def test_load_csv_ragged_row_is_malformed(tmp_path):
    _write_dataset_dir(
        tmp_path,
        {"r.csv": [[1.0] * 12, [2.0] * 11]},
        ["r.csv,r,0,500.0"],
        classes=["a", "b"],
    )
    with pytest.raises(MalformedRecord):
        load_csv(tmp_path)


def test_load_csv_nonfinite_value_is_located(tmp_path):
    _write_dataset_dir(
        tmp_path,
        {"r.csv": [[1.0, 2.0], [3.0, "nan"]]},
        ["r.csv,r,0,500.0"],
        classes=["a", "b"],
    )
    with pytest.raises(NonFiniteSample) as err:
        load_csv(tmp_path)
    assert err.value.row == 1 and err.value.col == 1


def test_load_csv_label_out_of_range(tmp_path):
    _write_dataset_dir(
        tmp_path,
        {"r.csv": [[1.0], [2.0]]},
        ["r.csv,r,9,500.0"],
        classes=["a"] + [f"c{i}" for i in range(8)],
    )
    with pytest.raises(UnknownClass):
        load_csv(tmp_path)


def test_load_csv_missing_manifest(tmp_path):
    with pytest.raises(MalformedRecord):
        load_csv(tmp_path)


def test_csv_round_trip_is_exact(tmp_path, dataset):
    write_csv_dataset(dataset, tmp_path / "out")
    back = load_csv(tmp_path / "out")
    assert back.class_names == dataset.class_names
    assert [r.record_id for r in back] == [r.record_id for r in dataset]
    for a, b in zip(dataset, back):
        assert a.label == b.label and a.sample_rate == b.sample_rate
        assert np.array_equal(a.channels, b.channels)


def test_write_csv_dataset_is_byte_deterministic(tmp_path, dataset):
    write_csv_dataset(dataset, tmp_path / "a")
    write_csv_dataset(dataset, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# File helpers


def test_csv_text_formats_floats_and_quotes_only_where_needed():
    rows = [
        ("name", "value", "count"),
        ("plain", 0.1, 3),
        ("x,y", np.float64(1 / 3), np.int64(7)),
        ('b "q"', float("nan"), np.float32(0.5)),
        ("two\nlines", -0.0, True),
        (),
        ("", "tail"),
    ]
    text = csv_text(rows)
    assert text == (
        "name,value,count\n"
        "plain,0.1,3\n"
        '"x,y",0.3333333333333333,7\n'
        '"b ""q""",nan,0.5\n'
        '"two\nlines",-0.0,True\n'
        "\n"
        ",tail\n"
    )
    back = list(csv.reader(io.StringIO(text, newline="")))
    assert [r[0] for r in back if r] == ["name", "plain", "x,y", 'b "q"', "two\nlines", ""]
    # A float matrix takes a faster path to the same text.
    matrix = np.array([[0.1, np.nan, 1e300], [1 / 3, -0.0, 5.0]])
    assert csv_text(matrix) == csv_text(list(matrix)) == "0.1,nan,1e+300\n0.3333333333333333,-0.0,5.0\n"


def test_file_helpers_read_what_they_write(tmp_path):
    path = tmp_path / "a" / "b"
    make_output_dir(path)
    make_output_dir(path)  # an existing directory is fine
    out = path / "f.bin"
    theta = np.arange(4.0)
    write_output(out, "é,", b"\x00", theta)
    assert read_input(out, SpecError) == "é,".encode() + b"\x00" + theta.tobytes()
    write_output(out, "é\n")
    assert read_input(out, SpecError, text=True) == "é\n"


def test_file_helpers_raise_typed_errors(tmp_path):
    (tmp_path / "latin1.txt").write_bytes(b"ab\xe9")
    with pytest.raises(SpecError, match=r"not UTF-8 text \(byte 2:"):
        read_input(tmp_path / "latin1.txt", SpecError, text=True)
    assert read_input(tmp_path / "latin1.txt", SpecError) == b"ab\xe9"
    for missing in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(SpecError, match="cannot read file"):
            read_input(missing, SpecError)
    with pytest.raises(OutputError, match="cannot write"):
        write_output(tmp_path, "x")
    with pytest.raises(OutputError, match="cannot write"):
        write_output(tmp_path / "missing" / "f.csv", "x")
    with pytest.raises(OutputError, match="cannot write"):
        make_output_dir(tmp_path / "latin1.txt")


# ---------------------------------------------------------------------------
# Synthetic generator


def test_generator_zero_noise_makes_identical_class_records():
    spec = SynthSpec(
        length=100,
        per_class_counts=(5, 5),
        channel_gain=(1.0, 0.5, 0.25),
        noise_sd=0.0,
        seed=7,
    )
    d = generate_synthetic(spec)
    assert len(d) == 10
    class0 = [r for r in d if r.label == 0]
    ids = {r.record_id for r in class0}
    assert len(ids) == 5
    for r in class0[1:]:
        assert np.array_equal(r.channels, class0[0].channels)


def test_generator_channel_gain_sets_rms_ratio():
    spec = SynthSpec(
        length=400,
        per_class_counts=(3, 3),
        channel_gain=(1.0, 0.01),
        noise_sd=0.0,
        seed=0,
    )
    for r in generate_synthetic(spec):
        rms = np.sqrt(np.mean(r.channels**2, axis=1))
        assert rms[1] / rms[0] == pytest.approx(0.01, rel=0.10)


def test_generator_same_seed_is_bit_identical():
    spec = SynthSpec(
        length=80,
        per_class_counts=(4, 3, 2),
        channel_gain=(1.0, 0.2),
        noise_sd=0.7,
        seed=11,
    )
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert [r.record_id for r in a] == [r.record_id for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.channels, rb.channels)


def test_generator_seed_moves_only_noise_and_order():
    # With zero noise the waveforms must not depend on the seed at all.
    base = dict(
        length=90,
        per_class_counts=(3, 3, 3),
        channel_gain=(1.0, 0.3),
        noise_sd=0.0,
    )
    a = generate_synthetic(SynthSpec(seed=0, **base))
    b = generate_synthetic(SynthSpec(seed=999, **base))
    by_id_a = {r.record_id: r for r in a}
    by_id_b = {r.record_id: r for r in b}
    assert set(by_id_a) == set(by_id_b)
    for rid, ra in by_id_a.items():
        assert np.array_equal(ra.channels, by_id_b[rid].channels)


@pytest.mark.parametrize(
    "fields",
    [
        {"per_class_counts": (5,)},
        {"per_class_counts": (3, -1)},
        {"channel_gain": ()},
        {"channel_gain": (1.0, 0.0)},
        {"channel_gain": (1.0, float("inf"))},
        {"length": 1},
        {"length": 10.5},
        {"noise_sd": -0.1},
        {"seed": -1},
        {"seed": 1.5},
        {"amplitude": float("nan")},
        {"class_names": ("a", "b")},
    ],
)
def test_synth_spec_rejects_an_invalid_recipe_on_construction(fields):
    with pytest.raises(SpecError):
        SynthSpec(**fields)


def test_synth_spec_shape_comes_from_its_tuples():
    assert SynthSpec().n_classes == 9 and SynthSpec().n_channels == 12
    spec = SynthSpec(per_class_counts=(np.int64(2), 3), channel_gain=(1.0, 0.5, 0.1))
    assert spec.per_class_counts == (2, 3) and spec.n_classes == 2 and spec.n_channels == 3


@pytest.mark.parametrize("counts", [(1.5, 2), (True, 2), (np.float64(2.0), 2), ("2", 2)])
def test_synth_spec_rejects_counts_that_are_not_integers(counts):
    # int() would truncate 1.5 and read True as 1.
    with pytest.raises(SpecError, match="integers"):
        SynthSpec(per_class_counts=counts)


def test_generator_class_waveforms_differ():
    d = tiny_dataset(noise_sd=0.0)
    protos = {}
    for r in d:
        protos.setdefault(r.label, r.channels)
    assert not np.array_equal(protos[0], protos[1])
    assert not np.array_equal(protos[1], protos[2])


def test_generator_nine_class_default_names():
    d = generate_synthetic(
        SynthSpec(
            length=20,
            per_class_counts=(1,) * 9,
            channel_gain=(1.0,),
        )
    )
    assert d.class_names == ("RBBB", "AF", "Normal", "STD", "I-AVB", "PVC", "PAC", "STE", "LBBB")


def test_generator_amplitude_controls_rms():
    spec = SynthSpec(
        length=500,
        per_class_counts=(1, 1),
        channel_gain=(1.0,),
        amplitude=5.0,
    )
    r = generate_synthetic(spec).records[0]
    assert np.sqrt(np.mean(r.channels**2)) == pytest.approx(5.0, rel=1e-9)


POSITIONS_SPEC = SynthSpec(
    length=50,
    per_class_counts=(6, 0, 5),
    channel_gain=(1.0, 0.1),
    noise_sd=0.7,
    seed=3,
)


@pytest.mark.parametrize("noise_sd", [0.7, 0.0])
def test_generator_positions_match_the_full_dataset(noise_sd):
    spec = dataclasses.replace(POSITIONS_SPEC, noise_sd=noise_sd)
    full = generate_synthetic(spec)
    rng = np.random.default_rng(5)
    for positions in (
        rng.permutation(len(full))[:7],
        rng.permutation(len(full)),
        np.arange(len(full))[::-1],
        [4],
        [],
    ):
        part = generate_synthetic(spec, positions)
        assert part.class_names == full.class_names
        assert len(part) == len(positions)
        for r, i in zip(part, positions):
            expected = full.records[i]
            assert r.record_id == expected.record_id and r.label == expected.label
            assert r.channels.tobytes() == expected.channels.tobytes()


def test_synth_labels_are_the_generated_labels():
    for spec in (POSITIONS_SPEC, dataclasses.replace(POSITIONS_SPEC, per_class_counts=(1, 9, 2), seed=40)):
        labels = synth_labels(spec)
        assert labels.tolist() == generate_synthetic(spec).labels().tolist()


def test_generator_record_noise_ignores_other_class_counts():
    a = generate_synthetic(POSITIONS_SPEC)
    b = generate_synthetic(dataclasses.replace(POSITIONS_SPEC, per_class_counts=(6, 4, 2)))
    by_id = {r.record_id: r for r in b}
    shared = [r for r in a if r.record_id in by_id]
    # Class 0 keeps all 6 records; class 2 keeps records 0 and 1 of 5.
    assert len(shared) == 8
    for r in shared:
        assert r.channels.tobytes() == by_id[r.record_id].channels.tobytes()


@pytest.mark.parametrize("positions", [[11], [0, 11], [-1], [-11], [0.0], [[0]], [True]])
def test_generator_rejects_bad_positions(positions):
    # The full dataset has 11 records; negative positions must not wrap around.
    with pytest.raises(SpecError):
        generate_synthetic(POSITIONS_SPEC, positions)


def test_generator_rejects_negative_seed():
    with pytest.raises(SpecError, match="seed"):
        generate_synthetic(dataclasses.replace(POSITIONS_SPEC, seed=-1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_sd", float("nan")),
        ("noise_sd", float("inf")),
        ("amplitude", float("inf")),
        ("sample_rate", float("inf")),
        ("base_frequency", float("inf")),
        ("frequency_spacing", float("nan")),
        ("channel_gain", (1.0, float("inf"))),
        ("channel_gain", (float("nan"), 1.0)),
    ],
)
def test_generator_rejects_non_finite_parameters(field, value):
    with pytest.raises(SpecError, match="finite"):
        generate_synthetic(dataclasses.replace(POSITIONS_SPEC, **{field: value}))


@pytest.mark.parametrize(
    "changes",
    [{"channel_gain": (1e308, 1.0)}, {"amplitude": 1e308}, {"sample_rate": 1e-310}],
    ids=["gain", "amplitude", "sample_rate"],
)
def test_generator_waveform_overflow_is_a_spec_error_without_warnings(changes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecError, match="waveform of class 0 is not finite"):
            generate_synthetic(dataclasses.replace(POSITIONS_SPEC, **changes))


# ---------------------------------------------------------------------------
# Windowing


def test_window_matches_source_columns(dataset):
    r = dataset.records[0]
    w = window_record(r, 10, 30)
    assert w.length == 30
    assert np.array_equal(w.channels, r.channels[:, 10:40])
    assert w.label == r.label and w.sample_rate == r.sample_rate


def test_window_identity():
    r = make_record(np.arange(12.0).reshape(2, 6))
    w = window_record(r, 0, 6)
    assert np.array_equal(w.channels, r.channels)


def test_window_out_of_range():
    r = make_record(np.zeros((1, 2999)))
    with pytest.raises(WindowOutOfRange):
        window_record(r, 500, 2500)


def test_window_canonical_protocol():
    r = make_record(np.arange(3000.0)[None, :])
    w = window_record(r, 500, 2500)
    assert w.length == 2500
    assert w.channels[0, 0] == 500.0


# ---------------------------------------------------------------------------
# Splitting


def test_split_ratio_per_class():
    d = tiny_dataset(n_classes=2, per_class=100, length=16, noise_sd=0.1)
    train, test = split(d, SplitSpec(train_fraction=0.9, seed=0))
    assert train.class_counts().tolist() == [90, 90]
    assert test.class_counts().tolist() == [10, 10]


def test_split_floor_sends_singleton_to_test():
    d = tiny_dataset(n_classes=2, per_class=1, length=16, noise_sd=0.0)
    train, test = split(d, SplitSpec(train_fraction=0.9, seed=0))
    assert len(train) == 0 and len(test) == 2


def test_split_conserves_records(dataset):
    train, test = split(dataset, SplitSpec(train_fraction=0.75, seed=3))
    all_ids = sorted([r.record_id for r in train] + [r.record_id for r in test])
    assert all_ids == sorted(r.record_id for r in dataset)


def test_split_same_seed_identical(dataset):
    a = split(dataset, SplitSpec(train_fraction=0.5, seed=42))
    b = split(dataset, SplitSpec(train_fraction=0.5, seed=42))
    assert [r.record_id for r in a[0]] == [r.record_id for r in b[0]]
    assert [r.record_id for r in a[1]] == [r.record_id for r in b[1]]


def test_split_fraction_bounds():
    with pytest.raises(SpecError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(SpecError):
        SplitSpec(train_fraction=0.0)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"train_fraction": "0.5"}, "train_fraction"),
        ({"train_fraction": None}, "train_fraction"),
        ({"train_fraction": True}, "train_fraction"),
        ({"train_fraction": 0.5, "seed": 1.5}, "seed"),
        ({"train_fraction": 0.5, "seed": True}, "seed"),
        ({"train_fraction": 0.5, "seed": None}, "seed"),
    ],
)
def test_split_spec_rejects_values_of_the_wrong_type(fields, key):
    # SynthSpec's rule: a fraction is a number and a seed an integer, not a bool.
    with pytest.raises(SpecError, match=key):
        SplitSpec(**fields)


def test_take_returns_the_records_at_positions_in_order(dataset):
    taken = dataset.take(np.array([3, 0, 3]))
    assert len(taken) == 3 and all(r is dataset.records[i] for r, i in zip(taken, (3, 0, 3)))
    assert taken.class_names == dataset.class_names
    assert len(dataset.take([])) == 0


@pytest.mark.parametrize(
    "positions",
    [[12], [0, 13], [-1], [[0, 1]], [0.0, 1.0], [True, False], "0"],
    ids=["past-the-end", "past-the-end-later", "negative", "2-d", "floats", "bools", "string"],
)
def test_take_rejects_positions_as_synthesis_does(dataset, positions):
    assert len(dataset) == 12
    with pytest.raises(SpecError):
        dataset.take(positions)
    spec = SynthSpec(length=60, per_class_counts=(4, 4, 4), channel_gain=(1.0, 0.1), noise_sd=0.2)
    with pytest.raises(SpecError):
        generate_synthetic(spec, positions)
