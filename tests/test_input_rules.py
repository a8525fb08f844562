"""Each input rule is defined once in ``ecgbalance.data``; every entry point that applies it refuses the same bad
values, each with the EcgBalanceError subclass that entry point raises."""

import numpy as np
import pytest

from conftest import tiny_dataset
from ecgbalance import (
    ChannelMagnitudeStats,
    EcgRecord,
    EncoderSpec,
    ExperimentSpec,
    LossConfig,
    SplitSpec,
    SynthSpec,
    TrainConfig,
    effective_number_weights,
    generate_synthetic,
    gradient_check,
    ldam_margins,
    longtail_counts,
    make_loss,
    resample,
    resample_positions,
    split_positions,
)
from ecgbalance.errors import ConfigError, DimensionError, MalformedRecord, SpecError, UnknownClass
from ecgbalance.trainer import init_model, metrics_from_confusion, score, train_stack

RAW = EncoderSpec(kind="raw", raw_take=3)
X = np.zeros((4, 3))
MODEL = init_model(3, 2, RAW, rng=np.random.default_rng(0), hidden=(2,), class_names=("a", "b"))
STACK = [TrainConfig(epochs=1, batch_size=2, hidden=(2,), encode=RAW)]
SYNTH = SynthSpec(length=8, per_class_counts=(3, 3), channel_gain=(1.0,))

# Bad values of each kind: bool, float, string, None, negative and out of range, as each rule defines them. A
# ragged nesting, which numpy cannot read as one array, is a bad label, position or count-vector shape.
FIELDS = [True, 2.5, "1", None]  # for a field that holds an int, or an object of one type
NUMBERS = [True, "1", None, [1.0]]  # for a field that holds an int or float
SEEDS = [True, 1.5, "1", None, -1]
NONNEGATIVE = "seeds? must be a nonnegative integer, got "  # the seed rule's message, after the seed's name
LABELS = [
    [0, 1, True, 0], [0.0, 1.0, 1.7, 0.2], ["0", "1", "0", "1"], [0, 1, -1, 0], [0, 1, 5, 0], [[0, 1], [1, 0]],
    [[0, 1], [0]],
]
POSITIONS = [[0, True], [0.0], ["0"], [-1], [100], [[0]], [[0], [1, 2]]]
COUNTS = [[True, 2], [3.7, 2], ["3", "2"], [-1, 2], [None, 2]]
SHAPES = [[5], [[1, 2], [3, 4]], [[1, 2], [3]], 5]

# (rule, entry point, call with the bad value, the error it raises, what its message names, bad values)
SITES = [
    ("field types", "SynthSpec", lambda v: SynthSpec(noise_sd=v), SpecError, r"\['noise_sd'\]", NUMBERS),
    ("field types", "EncoderSpec", lambda v: EncoderSpec(height=v), ConfigError, r"\['height'\]", FIELDS),
    ("field types", "ExperimentSpec", lambda v: ExperimentSpec(data_dir="ds", train=v), SpecError, "'train'", FIELDS),
    ("field types", "LossConfig", lambda v: LossConfig(beta=v), ConfigError, r"\['beta'\]", NUMBERS),
    ("field types", "TrainConfig", lambda v: TrainConfig(epochs=v), ConfigError, r"\['epochs'\]", FIELDS),
    ("field types", "EcgRecord", lambda v: EcgRecord(np.ones((1, 4)), 500.0, 0, record_id=v), MalformedRecord,
     r"\['record_id'\]", [5, True, 2.5, None, b"r1"]),
    ("seed", "SplitSpec", lambda v: SplitSpec(0.5, seed=v), SpecError, NONNEGATIVE, SEEDS),
    ("seed", "SynthSpec", lambda v: SynthSpec(seed=v), SpecError, NONNEGATIVE, SEEDS),
    ("seed", "ExperimentSpec", lambda v: ExperimentSpec(data_dir="ds", seeds=(v,)), SpecError, NONNEGATIVE, SEEDS),
    ("seed", "resample_positions", lambda v: resample_positions([0, 1], [1, 1], v), SpecError, NONNEGATIVE, SEEDS),
    ("seed", "gradient_check", lambda v: gradient_check(LossConfig(), 1, seed=v), ConfigError, NONNEGATIVE, SEEDS),
    ("seed", "TrainConfig", lambda v: TrainConfig(seed=v), ConfigError, NONNEGATIVE, SEEDS),
    ("integer", "gradient_check trials", lambda v: gradient_check(LossConfig(), v), ConfigError, "trials", [*SEEDS, 0]),
    ("integer", "gradient_check classes", lambda v: gradient_check(LossConfig(), 1, num_classes=v), ConfigError,
     "classes", [*SEEDS, 1, 2.5]),
    ("integer", "EcgRecord label", lambda v: EcgRecord(np.ones((1, 2)), 1.0, v), UnknownClass, "label", SEEDS),
    ("number", "longtail_counts alpha", lambda v: longtail_counts([4, 2], v), SpecError, "alpha",
     [True, "0.5", None, -0.5, 0, 1.5]),
    ("labels", "split_positions", lambda v: split_positions(v, 2, SplitSpec(0.5)), DimensionError, "labels", LABELS),
    ("labels", "resample_positions", lambda v: resample_positions(v, [1, 1], 0), DimensionError, "labels", LABELS),
    ("labels", "loss core", lambda v: make_loss(LossConfig("ce")).per_record(X[:, :2], v), DimensionError, "labels",
     LABELS),
    ("labels", "train_stack", lambda v: train_stack(X.copy(), v, STACK, ("a", "b")), DimensionError, "labels", LABELS),
    ("labels", "score", lambda v: score(MODEL, X, v), DimensionError, "labels", LABELS),
    ("labels", "Dataset.take", lambda v: tiny_dataset().take(v), SpecError, "positions", POSITIONS),
    ("labels", "generate_synthetic", lambda v: generate_synthetic(SYNTH, v), SpecError, "positions", POSITIONS),
    ("counts", "longtail_counts", lambda v: longtail_counts(v, 0.5), SpecError, "class counts", COUNTS),
    ("counts", "resample_positions", lambda v: resample_positions([0, 1], v, 0), SpecError, "target counts", COUNTS),
    ("counts", "SynthSpec", lambda v: SynthSpec(per_class_counts=v), SpecError, "per-class counts", COUNTS),
    *(
        ("counts", name, call, ConfigError, "positive integers", [*COUNTS, [0, 2]])
        for name, call in [
            ("effective_number_weights", lambda v: effective_number_weights(0.9, v)),
            ("ldam_margins", lambda v: ldam_margins(0.2, v)),
            ("make_loss", lambda v: make_loss(LossConfig("cb"), class_counts=v)),
        ]
    ),
    *(
        ("count shape", name, call, error, "1-D vector", SHAPES)
        for name, call, error in [
            ("longtail_counts", lambda v: longtail_counts(v, 0.5), DimensionError),
            ("resample_positions", lambda v: resample_positions([0], v, 0), DimensionError),
            ("resample", lambda v: resample(tiny_dataset(), v, 0), DimensionError),
            ("effective_number_weights", lambda v: effective_number_weights(0.9, v), DimensionError),
            ("ldam_margins", lambda v: ldam_margins(0.2, v), DimensionError),
            ("make_loss", lambda v: make_loss(LossConfig("cb"), class_counts=v), ConfigError),
        ]
    ),
    # A per_class_counts that is not a tuple or list breaks SynthSpec's field type rule.
    ("count shape", "SynthSpec", lambda v: SynthSpec(per_class_counts=v), SpecError, "1-D vector", SHAPES[:-1]),
]

CASES = [
    pytest.param(call, value, error, message, id=f"{rule}-{site}-{value!r}")
    for rule, site, call, error, message, values in SITES
    for value in values
]


@pytest.mark.parametrize("call, value, error, message", CASES)
def test_each_input_rule_refuses_a_bad_value_with_the_sites_error(call, value, error, message):
    # Each of these was once accepted, or ended in a bare TypeError or ValueError, at one site or another.
    with pytest.raises(error, match=message):
        call(value)


def test_shared_rules_accept_what_the_sites_accepted():
    # numpy integers are integers, an empty label vector is no labels, and arrays go through unchanged.
    assert longtail_counts((np.int64(4), 2), np.float64(0.5)).tolist() == [4, 2]
    assert resample_positions(np.array([], dtype=np.int64), [0, 0], np.int64(0)).size == 0
    assert resample_positions([], [0, 0], 0).size == 0
    assert make_loss(LossConfig("ldam"), class_counts=np.array([3, 2], dtype=np.int32)).class_counts.dtype == np.int64
    assert split_positions(np.array([0, 1, 0, 1], dtype=np.uint8), 2, SplitSpec(0.5))[0].size == 2
    assert gradient_check(LossConfig(), trials=np.int64(1), seed=np.int64(0), num_classes=np.int64(2)).trials == 1


def test_frozen_arrays_leave_the_callers_array_writeable():
    cm = np.array([[2, 1], [0, 3]], dtype=np.int64)
    metrics = metrics_from_confusion(cm)
    assert cm.flags.writeable and not metrics.confusion.flags.writeable
    assert metrics.confusion.dtype == np.int64 and metrics.confusion.tolist() == cm.tolist()
    rms, power, scale = np.ones(2), np.full(2, 0.5), np.ones((2, 2))
    stats = ChannelMagnitudeStats(rms, power, scale)
    assert all(a.flags.writeable for a in (rms, power, scale))
    stored = (stats.per_channel_rms, stats.per_channel_mean_power, stats.per_class_scale)
    assert not any(a.flags.writeable for a in stored)
    rms[0] = 7.0
    assert stats.per_channel_rms.tolist() == [1.0, 1.0]
