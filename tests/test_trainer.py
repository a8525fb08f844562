import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import tiny_dataset, traced_peak

from ecgbalance import (
    AdamState,
    Dataset,
    EncoderSpec,
    ExperimentSpec,
    LossConfig,
    ModelParams,
    TrainConfig,
    adam_init,
    adam_step,
    evaluate,
    init_model,
    load_model,
    make_loss,
    metrics_from_confusion,
    save_model,
    train,
)
from ecgbalance import trainer
from ecgbalance.errors import ConfigError, DimensionError, EmptyDataset, WindowOutOfRange
from ecgbalance.trainer import (
    ADAM_SLICE,
    _arrange,
    _backward_batch,
    _first_layer_grad,
    _forward_batch,
    _layers,
    featurize_dataset,
    score,
    train_stack,
)

SMALL_ENC = EncoderSpec(kind="cme", height=4, width=10, skip=0, take=60)
RAW_ENC = EncoderSpec(kind="raw", raw_take=60)


def stack_of(m: ModelParams) -> ModelParams:
    """A stack of one variant whose theta is a view of ``m.theta``."""
    return ModelParams(m.dims, m.theta[None], m.encoder, m.class_names)


def tail_of(stack: ModelParams) -> np.ndarray:
    """A buffer for every gradient but the first layer's weights, one row per variant."""
    return np.empty((stack.theta.shape[0], stack.theta.shape[1] - stack.dims[0] * stack.dims[1]))


def small_config(**overrides):
    defaults = dict(
        epochs=6,
        learning_rate=0.01,
        batch_size=8,
        seed=0,
        loss=LossConfig(beta=0.3),
        encode=SMALL_ENC,
        hidden=(8,),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# Model init


def test_init_model_shapes_and_zero_biases():
    m = init_model(input_dim=7, num_classes=3, encoder=SMALL_ENC, hidden=(5, 4), rng=np.random.default_rng(1))
    assert [w.shape for w in m.weights] == [(7, 5), (5, 4), (4, 3)]
    assert [b.shape for b in m.biases] == [(5,), (4,), (3,)]
    assert all(np.all(b == 0.0) for b in m.biases)
    assert m.num_classes == 3 and m.input_dim == 7


def test_weights_and_biases_are_views_of_theta_in_file_order():
    m = init_model(6, 3, SMALL_ENC, hidden=(5, 4), rng=np.random.default_rng(1))
    assert m.dims == (6, 5, 4, 3) and m.theta.shape == (6 * 5 + 5 + 5 * 4 + 4 + 4 * 3 + 3,)
    assert all(np.shares_memory(a, m.theta) for a in m.weights + m.biases)
    layout = np.concatenate([part for w, b in zip(m.weights, m.biases) for part in (w.ravel(), b)])
    assert np.array_equal(layout, m.theta)
    m.theta[0] = 42.0
    assert m.weights[0][0, 0] == 42.0


def test_init_model_seeded():
    a = init_model(4, 2, SMALL_ENC, hidden=(3,), rng=np.random.default_rng(9))
    b = init_model(4, 2, SMALL_ENC, hidden=(3,), rng=np.random.default_rng(9))
    c = init_model(4, 2, SMALL_ENC, hidden=(3,), rng=np.random.default_rng(10))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_model_he_scale():
    m = init_model(input_dim=400, num_classes=2, encoder=SMALL_ENC, hidden=(), rng=np.random.default_rng(0))
    sd = float(m.weights[0].std())
    assert sd == pytest.approx(math.sqrt(2.0 / 400.0), rel=0.15)


def test_init_model_validation():
    with pytest.raises(ConfigError):
        init_model(0, 3, SMALL_ENC, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        init_model(4, 1, SMALL_ENC, rng=np.random.default_rng(0))


def test_model_params_theta_must_fit_dims_and_be_finite():
    # (3, 4, 2) takes 3*4 + 4 + 4*2 + 2 = 26 parameters.
    assert ModelParams((3, 4, 2), np.zeros(26), SMALL_ENC).theta.size == 26
    for size in (25, 27):
        with pytest.raises(ConfigError):
            ModelParams((3, 4, 2), np.zeros(size), SMALL_ENC)
    for dims in ((3,), (3, 0, 2)):
        with pytest.raises(ConfigError):
            ModelParams(dims, np.zeros(0), SMALL_ENC)
    bad = ModelParams((2, 2), np.full(6, np.nan), SMALL_ENC)
    with pytest.raises(ConfigError):
        bad.validate()


# ---------------------------------------------------------------------------
# Forward


def test_forward_matches_manual_affine_chain():
    m = init_model(3, 2, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(2))
    x = np.array([0.5, -1.0, 2.0])
    hiddenv = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
    logits = hiddenv @ m.weights[1] + m.biases[1]
    _, batch_logits = _forward_batch(m, x[None, :])
    assert np.array_equal(batch_logits[0], logits)


def test_forward_rejects_wrong_width():
    # The raw encoder gives 2 x 60 features per record; the model takes 5.
    d = tiny_dataset()
    m = init_model(5, 3, RAW_ENC, hidden=(4,), rng=np.random.default_rng(2), class_names=d.class_names)
    with pytest.raises(DimensionError, match="model takes 5 input features"):
        evaluate(m, d)


# ---------------------------------------------------------------------------
# Backward


def test_backward_matches_finite_differences():
    m = init_model(3, 3, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(3))
    loss = make_loss(LossConfig(beta=0.3))
    x = np.array([[0.8, -0.3, 1.5]])
    y = np.array([1])
    stack = stack_of(m)
    tail = tail_of(stack)
    _, delta = _backward_batch(stack, x, y, [loss], tail)
    # The first layer's weights from the helper the Adam step uses per block, on every row.
    grad = np.concatenate([_first_layer_grad(x, delta[0], slice(None)).ravel(), tail[0]])
    w_grads, b_grads = zip(*_layers(m.dims, grad))
    h = 1e-6

    def value() -> float:
        return loss.mean(_forward_batch(m, x)[1], y)[0]

    for layer, wg in enumerate(w_grads):
        for i in range(wg.shape[0]):
            for j in range(wg.shape[1]):
                keep = m.weights[layer][i, j]
                m.weights[layer][i, j] = keep + h
                up = value()
                m.weights[layer][i, j] = keep - h
                down = value()
                m.weights[layer][i, j] = keep
                assert (up - down) / (2 * h) == pytest.approx(wg[i, j], rel=1e-4, abs=1e-7)
    for layer, bg in enumerate(b_grads):
        for j in range(bg.size):
            keep = m.biases[layer][j]
            m.biases[layer][j] = keep + h
            up = value()
            m.biases[layer][j] = keep - h
            down = value()
            m.biases[layer][j] = keep
            assert (up - down) / (2 * h) == pytest.approx(bg[j], rel=1e-4, abs=1e-7)


def test_backward_accepts_config_and_validates_label():
    m = init_model(3, 3, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(3))
    loss = make_loss(LossConfig(beta=0.3))
    stack = stack_of(m)
    tail = np.full_like(tail_of(stack), np.nan)
    [value], delta = _backward_batch(stack, np.ones((1, 3)), np.array([0]), [loss], tail)
    assert math.isfinite(value) and np.isfinite(tail).all()
    grad = np.concatenate([_first_layer_grad(np.ones((1, 3)), delta[0], slice(None)).ravel(), tail[0]])
    assert [gw.shape for gw, _ in _layers(m.dims, grad)] == [w.shape for w in m.weights]
    assert len(_layers(m.dims, grad)) == 2
    with pytest.raises(DimensionError):
        _backward_batch(stack, np.ones((1, 3)), np.array([3]), [loss], tail)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_steps_move_by_learning_rate():
    m = init_model(2, 2, SMALL_ENC, hidden=(), rng=np.random.default_rng(0))
    stack = stack_of(m)
    state = adam_init(stack)
    before = m.weights[0].copy()
    # A one-record batch of ones whose delta is 1: every weight's gradient is 1.
    x, delta, tail = np.ones((1, 2)), np.ones((1, 1, 2)), tail_of(stack)
    tail[...] = -3.0
    adam_step(stack, state, x, delta, tail, lr=0.01)
    # Bias correction makes the very first step lr * g/(|g| + eps) ~ lr.
    assert np.allclose(before - m.weights[0], 0.01, rtol=1e-6)
    assert np.allclose(m.biases[0], 0.01, rtol=1e-6)
    tail[...] = -3.0  # the step overwrites the tail
    adam_step(stack, state, x, delta, tail, lr=0.01)
    assert np.allclose(before - m.weights[0], 0.02, rtol=1e-6)
    assert state.step == 2


def test_adam_state_shapes_follow_model():
    small = init_model(3, 2, SMALL_ENC, hidden=(5,), rng=np.random.default_rng(0))
    large = init_model(3000, 9, RAW_ENC, hidden=(16,), rng=np.random.default_rng(0))
    assert small.theta.size < ADAM_SLICE < large.theta.size
    # small: 3 x 5 first-layer weights, 5 + 5 x 2 + 2 others; large: 2048 rows of 16 per block.
    for m, variants, work in ((small, 1, 17), (small, 3, 3 * 17), (large, 1, ADAM_SLICE), (large, 3, ADAM_SLICE)):
        stack = ModelParams(m.dims, np.tile(m.theta, (variants, 1)), m.encoder)
        state = adam_init(stack)
        assert isinstance(state, AdamState)
        assert [w.shape for w, _ in _layers(m.dims, state.m[0])] == [w.shape for w in m.weights]
        # Moments full size; work vectors one block of the first layer's weights,
        # or every variant's other parameters where those are more.
        assert state.m.shape == state.v.shape == stack.theta.shape
        assert state.grad.shape == state.num.shape == (work,)
        assert all(np.all(b == 0.0) for _, b in _layers(m.dims, state.v))


def test_a_training_step_allocates_less_than_the_parameters():
    # train allocates the moments, the tail's gradient and Adam's work vectors
    # once, and a batch is a slice of the features; a step then allocates only
    # its activations.
    rng = np.random.default_rng(0)
    m = init_model(3000, 9, RAW_ENC, hidden=(64, 32), rng=rng)
    loss = make_loss(LossConfig(beta=0.3))
    x = rng.normal(0.0, 1.0, size=(64, 3000))
    y = rng.integers(0, 9, size=64)
    stack = stack_of(m)
    state = adam_init(stack)
    tail = tail_of(stack)
    _, delta = _backward_batch(stack, x, y, [loss], tail)
    adam_step(stack, state, x, delta, tail, lr=0.001)
    steps = (lambda: _backward_batch(stack, x, y, [loss], tail), lambda: adam_step(stack, state, x, delta, tail, lr=0.001))
    for step in steps:
        _, peak = traced_peak(step)
        assert peak < m.theta.nbytes


@pytest.mark.parametrize("variants", (1, 3))
def test_a_raw_sized_stack_peaks_below_its_features_three_parameter_vectors_a_block_and_a_row(variants):
    # The stack's theta and both moments are the only parameter-sized arrays: the
    # first layer's weight gradient is formed one block at a time inside the Adam
    # step, the initial weights are not kept beside the stack, and every batch is
    # a slice of the features, whose rows move in place through one row of work space.
    rng = np.random.default_rng(0)
    n, width, batch = 48, 12000, 16
    labels = rng.integers(0, 9, size=n)
    cfg = TrainConfig(epochs=1, batch_size=batch, encode=EncoderSpec(kind="raw", raw_take=1000))
    cfgs = [dataclasses.replace(cfg, loss=LossConfig(kind=kind)) for kind in ("iwl", "cross_entropy", "ldam")[:variants]]

    def features_and_fits():
        x = rng.normal(0.0, 1.0, size=(n, width))
        return x, train_stack(x, labels, cfgs, tuple(f"c{k}" for k in range(9)))

    (x, fits), peak = traced_peak(features_and_fits)
    theta = sum(model.theta.nbytes for model, _ in fits)
    assert fits[0][0].theta.size > 20 * ADAM_SLICE
    # A block: Adam's two block-sized work vectors, and as much again for the
    # tail's gradient and the batch's activations.
    block = 4 * ADAM_SLICE * 8
    assert peak < x.nbytes + 3 * theta + block + width * 8, (peak, x.nbytes, theta)


# ---------------------------------------------------------------------------
# Training


def test_train_is_bit_deterministic():
    d = tiny_dataset()
    m1, log1 = train(d, small_config())
    m2, log2 = train(d, small_config())
    assert log1 == log2
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)


def test_train_seed_changes_trajectory():
    d = tiny_dataset()
    _, log0 = train(d, small_config(seed=0))
    _, log1 = train(d, small_config(seed=1))
    assert log0 != log1


def test_train_loss_decreases():
    d = tiny_dataset(per_class=6)
    _, log = train(d, small_config(epochs=10))
    assert log[-1] < log[0]
    assert len(log) == 10
    assert all(np.isfinite(v) for v in log)


def test_train_zero_epochs_returns_init():
    d = tiny_dataset()
    m, log = train(d, small_config(epochs=0))
    assert log == []
    assert all(np.all(b == 0.0) for b in m.biases)


def test_train_separable_data_reaches_full_accuracy():
    d = tiny_dataset(n_classes=2, per_class=8, noise_sd=0.05)
    m, _ = train(d, small_config(epochs=25))
    metrics = evaluate(m, d)
    assert metrics.accuracy == 1.0
    assert metrics.macro_f1 == 1.0


@pytest.mark.parametrize(
    "loss_cfg",
    [
        LossConfig(beta=0.3),
        LossConfig(beta=0.0),
        LossConfig(kind="cross_entropy"),
        LossConfig(kind="focal"),
        LossConfig(kind="class_balanced"),
        LossConfig(kind="cb_focal"),
        LossConfig(kind="ldam"),
    ],
    ids=lambda c: c.kind + (f"-b{c.beta}" if c.kind == "iwl" else ""),
)
def test_train_smoke_every_loss(loss_cfg):
    d = tiny_dataset(per_class=4)
    m, log = train(d, small_config(epochs=2, loss=loss_cfg))
    assert len(log) == 2 and all(np.isfinite(v) for v in log)
    assert np.isfinite(evaluate(m, d).accuracy)


@pytest.mark.parametrize("encode", [SMALL_ENC, RAW_ENC], ids=["cme", "raw"])
def test_a_whole_iwl_run_at_beta_zero_is_a_cross_entropy_run_bit_for_bit(tmp_path, encode):
    # The null control: at beta = 0 the IWL weight is exactly 1, so every step, and with them the
    # model file and the per-epoch losses, match cross-entropy's. beta = 0.3 shows the losses differ.
    d = tiny_dataset(per_class=60)
    runs = {}
    for loss in (LossConfig(beta=0.0), LossConfig(kind="cross_entropy"), LossConfig(beta=0.3)):
        model, log = train(d, small_config(epochs=3, loss=loss, encode=encode))
        path = tmp_path / "model.bin"
        save_model(model, path)
        runs[loss] = (path.read_bytes(), log)
    iwl, ce, weighted = runs.values()
    assert iwl == ce
    assert weighted[0] != ce[0] and weighted[1] != ce[1]


def test_train_count_losses_survive_absent_class():
    # Class 2 exists in the label space but has no records; the resolved
    # class counts are clamped to at least 1 so CB stays finite.
    full = tiny_dataset(n_classes=3, per_class=4)
    d = Dataset(records=tuple(r for r in full if r.label != 2), class_names=full.class_names)
    assert d.num_classes == 3 and d.class_counts().tolist() == [4, 4, 0]
    m, log = train(d, small_config(epochs=2, loss=LossConfig(kind="class_balanced")))
    assert all(np.isfinite(v) for v in log)
    assert m.num_classes == 3


def test_train_raw_encoder():
    d = tiny_dataset()
    m, _ = train(d, small_config(encode=RAW_ENC, epochs=2))
    assert m.input_dim == 2 * 60
    assert np.isfinite(evaluate(m, d).accuracy)


def test_train_stops_when_an_adam_step_overflows():
    # One batch whose loss is finite, then an update that overflows the weights.
    d = tiny_dataset(per_class=5, length=80)
    assert len(d) == 15
    cfg = TrainConfig(
        epochs=1, batch_size=64, hidden=(8,), learning_rate=1.7e308, encode=EncoderSpec(kind="raw", raw_take=80)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match=r"non-finite parameters .* epoch 0, batch 0"):
            train(d, cfg)


def test_arrange_moves_rows_from_any_order_to_any_other():
    rng = np.random.default_rng(4)
    original = rng.normal(size=(11, 3))
    x, at = original.copy(), np.arange(11)
    for want in (rng.permutation(11), np.arange(11), np.array([1, 0, *range(2, 11)]), rng.permutation(11)):
        _arrange(x, at, want)
        assert np.array_equal(at, want) and x.tobytes() == original[want].tobytes()
    _arrange(x, at, np.arange(11))
    assert x.tobytes() == original.tobytes()


def test_a_stack_slices_its_batches_from_x_rearranged_in_place(monkeypatch):
    # 19 rows in batches of 4: each batch is a view of x, and the batches of each
    # epoch hold every row of x once, shuffled.
    d = tiny_dataset(per_class=8, length=80)
    cfg = TrainConfig(epochs=2, batch_size=4, hidden=(8,), encode=EncoderSpec(kind="raw", raw_take=80))
    rows = np.random.default_rng(3).permutation(len(d))[:19]
    x = featurize_dataset(d, cfg.encode)[rows]
    original = x.copy()
    steps, batches = [], []

    def step(stack, state, x2d, *args):
        steps.append((x2d.shape[0], np.shares_memory(x2d, x)))
        batches.append(x2d.copy())
        return adam_step(stack, state, x2d, *args)

    monkeypatch.setattr(trainer, "adam_step", step)
    train_stack(x, d.labels()[rows], [cfg], d.class_names)
    assert steps == [(4, True)] * 4 + [(3, True)] + [(4, True)] * 4 + [(3, True)]
    for epoch in (batches[:5], batches[5:]):
        seen = np.concatenate(epoch)
        assert seen.tobytes() != original.tobytes()
        assert sorted(map(bytes, seen)) == sorted(map(bytes, original))
    assert x.tobytes() == original.tobytes()


def test_a_stack_stopped_mid_epoch_leaves_x_as_it_was():
    # A learning rate of 1e300 leaves the first batch's loss finite and overflows the second's.
    d = tiny_dataset(per_class=8, length=80)
    cfg = TrainConfig(epochs=2, batch_size=4, hidden=(8,), learning_rate=1e300, encode=EncoderSpec(kind="raw", raw_take=80))
    rows = np.random.default_rng(3).permutation(len(d))[:19]
    x = featurize_dataset(d, cfg.encode)[rows]
    before = x.tobytes()
    with pytest.raises(ConfigError, match="non-finite training loss at epoch 0, batch 1"):
        train_stack(x, d.labels()[rows], [cfg], d.class_names)
    assert x.tobytes() == before


# Labels that are not one class index per row; train_stack and score check them by one rule.
BAD_LABELS = pytest.mark.parametrize(
    "relabel",
    [
        lambda y, k: y[:-1],
        lambda y, k: np.append(y, 0),
        lambda y, k: y.reshape(-1, 1),
        lambda y, k: y.astype(float),
        lambda y, k: y == 1,
        lambda y, k: np.where(y == 0, -1, y),
        lambda y, k: np.where(y == 0, k, y),
    ],
    ids=["one short", "one over", "2-D", "float", "bool", "negative", "past the last class"],
)


@BAD_LABELS
def test_a_stack_checks_its_labels_before_any_work(monkeypatch, relabel):
    # Not a bare numpy error from bincount, and not a DimensionError from inside the first batch.
    d = tiny_dataset()
    cfg = TrainConfig(epochs=1, batch_size=4, hidden=(4,), encode=EncoderSpec(kind="raw", raw_take=60))
    x = featurize_dataset(d, cfg.encode)
    before = x.tobytes()

    def no_work(*args, **kwargs):
        raise AssertionError("a loss was made before the labels were checked")

    monkeypatch.setattr(trainer, "make_loss", no_work)
    with pytest.raises(DimensionError, match=r"labels must be 12 integers in \[0, 3\)"):
        train_stack(x, relabel(d.labels(), len(d.class_names)), [cfg], d.class_names)
    assert x.tobytes() == before


@BAD_LABELS
def test_score_checks_its_labels_by_the_stacks_rule(relabel):
    # Not a bare numpy error from bincount or reshape.
    d = tiny_dataset()
    x = featurize_dataset(d, RAW_ENC)
    m = init_model(x.shape[1], 3, RAW_ENC, hidden=(4,), rng=np.random.default_rng(0), class_names=d.class_names)
    assert score(m, x, d.labels()).confusion.sum() == len(d)
    with pytest.raises(DimensionError, match=r"labels must be 12 integers in \[0, 3\)"):
        score(m, x, relabel(d.labels(), len(d.class_names)))


def test_train_rejects_empty_dataset():
    d = Dataset(records=(), class_names=("a", "b"))
    with pytest.raises(ConfigError, match="training dataset is empty"):
        train(d, small_config())


# ---------------------------------------------------------------------------
# Config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        small_config(epochs=-1)
    with pytest.raises(ConfigError):
        small_config(batch_size=0)
    with pytest.raises(ConfigError):
        small_config(learning_rate=-0.1)
    for lr in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            small_config(learning_rate=lr)
    for hidden in ((0,), (8, 0), (-1,)):
        with pytest.raises(ConfigError):
            small_config(hidden=hidden)
    assert small_config(hidden=()).hidden == ()


def test_desk_profile():
    # The quick profile is the experiment default: 30 epochs, the rest as TrainConfig.
    cfg = ExperimentSpec.train
    assert cfg.epochs == 30
    assert cfg.learning_rate == 0.001
    assert cfg == TrainConfig(epochs=30)
    assert TrainConfig().epochs == 150


def test_encoder_spec_validation_and_dims():
    with pytest.raises(ConfigError):
        EncoderSpec(kind="fft")
    d = tiny_dataset(n_channels=2, length=60)
    assert featurize_dataset(d, SMALL_ENC).shape == (len(d), 40)
    assert featurize_dataset(d, RAW_ENC).shape == (len(d), 120)


@pytest.mark.parametrize(
    "field, value",
    [
        ("raw_take", None), ("raw_take", 60.0), ("raw_take", True), ("raw_take", "60"), ("raw_take", np.int64(60)),
        ("height", 4.0), ("skip", None), ("take", False), ("kind", None),
    ],
)
def test_encoder_spec_rejects_a_mistyped_field(field, value):
    # Each would fail far from here as a bare TypeError, or (a bool) train on one-sample windows.
    with pytest.raises(ConfigError, match=rf"\['{field}'\] have the wrong type"):
        EncoderSpec(**{"kind": "raw", field: value})


@pytest.mark.parametrize("mode", ["x", "l3", "RMS"])
def test_encoder_spec_rejects_an_unknown_magnitude_mode(mode):
    # Else a model file could carry it, and eval would fail only after loading its dataset.
    with pytest.raises(ConfigError, match="unknown magnitude mode"):
        EncoderSpec(magnitude_mode=mode)


@pytest.mark.parametrize(
    "config, field, value",
    [
        (TrainConfig, "epochs", True), (TrainConfig, "epochs", 2.5), (TrainConfig, "batch_size", 2.0),
        (TrainConfig, "learning_rate", "0.1"),
        (TrainConfig, "learning_rate", True), (TrainConfig, "hidden", (8.5,)), (TrainConfig, "hidden", ("8",)),
        (TrainConfig, "hidden", 8), (TrainConfig, "hidden", (True,)), (TrainConfig, "loss", None),
        (TrainConfig, "encode", "cme"), (LossConfig, "beta", "0.3"), (LossConfig, "beta", False),
        (LossConfig, "epsilon", None), (LossConfig, "kind", 3), (LossConfig, "ldam_s", [20.0]),
    ],
)
def test_train_and_loss_configs_reject_a_mistyped_field(config, field, value):
    # Each was accepted (epochs=True trains one epoch, hidden=(8.5,) a width of 8) or failed far from here as a
    # bare TypeError or AttributeError.
    with pytest.raises(ConfigError, match=rf"\['{field}'\] have the wrong type"):
        config(**{field: value})


def test_train_and_loss_configs_take_any_integer_or_float_number():
    # An int is a valid float setting (beta=0, beta=5); numpy numbers count as their Python kind.
    assert LossConfig(beta=0, ldam_s=np.float64(20.0)) == LossConfig(beta=0.0)
    cfg = TrainConfig(epochs=np.int64(2), learning_rate=1, seed=np.int64(3), hidden=[np.int64(8), 4])
    assert cfg.hidden == (8, 4) and all(type(h) is int for h in cfg.hidden)


def test_raw_window_longer_than_the_records_is_refused():
    with pytest.raises(WindowOutOfRange, match="does not fit"):
        train(tiny_dataset(length=60), small_config(encode=EncoderSpec(kind="raw", raw_take=61)))


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_hand_confusion():
    m = metrics_from_confusion(np.array([[2, 1], [0, 3]]))
    assert m.accuracy == pytest.approx(5.0 / 6.0)
    assert m.per_class_precision.tolist() == [1.0, 0.75]
    assert np.allclose(m.per_class_recall, [2.0 / 3.0, 1.0])
    assert m.per_class_f1[0] == pytest.approx(0.8)
    assert m.per_class_f1[1] == pytest.approx(6.0 / 7.0)
    assert m.macro_f1 == pytest.approx((0.8 + 6.0 / 7.0) / 2.0)


def test_metrics_zero_over_zero_scores_zero():
    m = metrics_from_confusion(np.array([[0, 0], [5, 0]]))
    assert m.accuracy == 0.0
    assert m.per_class_precision.tolist() == [0.0, 0.0]
    assert m.per_class_recall.tolist() == [0.0, 0.0]
    assert m.macro_f1 == 0.0


def test_metrics_constant_predictor_nine_classes():
    # Balanced 9-class data, everything predicted as class 0:
    # F1 is 1/5 for class 0 and zero elsewhere, so macro F1 is 1/45.
    cm = np.zeros((9, 9), dtype=int)
    cm[:, 0] = 7
    m = metrics_from_confusion(cm)
    assert m.macro_f1 == pytest.approx(1.0 / 45.0, abs=1e-15)


def test_metrics_validation():
    with pytest.raises(DimensionError):
        metrics_from_confusion(np.zeros((2, 3)))
    with pytest.raises(EmptyDataset):
        metrics_from_confusion(np.zeros((3, 3)))


def test_evaluate_rejects_empty_dataset():
    d = tiny_dataset()
    m, _ = train(d, small_config(epochs=0))
    with pytest.raises(EmptyDataset):
        evaluate(m, Dataset(records=(), class_names=d.class_names))


def test_evaluate_class_count_mismatch():
    d = tiny_dataset(n_classes=3)
    m = init_model(40, 2, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(0), class_names=("class_0", "class_1"))
    with pytest.raises(DimensionError, match="model classes"):
        evaluate(m, d)
    # As many classes, other names: the names are compared, not only counted.
    renamed = init_model(40, 3, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(0), class_names=("x", "y", "z"))
    with pytest.raises(DimensionError, match=r"\['x', 'y', 'z'\]"):
        evaluate(renamed, d)


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_round_trip(tmp_path):
    d = tiny_dataset()
    m, _ = train(d, small_config(epochs=2))
    path = tmp_path / "model.bin"
    save_model(m, path)
    back = load_model(path)
    for w1, w2 in zip(m.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m.biases, back.biases):
        assert np.array_equal(b1, b2)
    assert back.encoder == m.encoder
    assert back.class_names == m.class_names
    # The reloaded model predicts identically.
    x = featurize_dataset(d, SMALL_ENC)
    assert np.array_equal(_forward_batch(m, x)[1], _forward_batch(back, x)[1])


def test_save_is_byte_deterministic(tmp_path):
    d = tiny_dataset()
    m, _ = train(d, small_config(epochs=1))
    save_model(m, tmp_path / "a.bin")
    save_model(m, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"PNG\x00definitely not a model")
    with pytest.raises(ConfigError):
        load_model(path)
