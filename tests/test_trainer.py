import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import tiny_dataset

from ecgbalance import (
    AdamState,
    BaselineLossConfig,
    Dataset,
    EncoderSpec,
    ExperimentSpec,
    IwlConfig,
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
from ecgbalance.errors import ConfigError, DimensionError, EmptyDataset
from ecgbalance.trainer import _backward_batch, _forward_batch, _layers, featurize_dataset

SMALL_ENC = EncoderSpec(kind="cme", height=4, width=10, skip=0, take=60)
RAW_ENC = EncoderSpec(kind="raw", raw_take=60)


def stack_of(m: ModelParams) -> ModelParams:
    """A stack of one variant whose theta is a view of ``m.theta``."""
    return ModelParams(m.dims, m.theta[None], m.encoder, m.class_names)


def small_config(**overrides):
    defaults = dict(
        epochs=6,
        learning_rate=0.01,
        batch_size=8,
        seed=0,
        loss=IwlConfig(beta=0.3),
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
    m = init_model(5, 3, RAW_ENC, hidden=(4,), rng=np.random.default_rng(2))
    with pytest.raises(DimensionError):
        evaluate(m, tiny_dataset())


# ---------------------------------------------------------------------------
# Backward


def test_backward_matches_finite_differences():
    m = init_model(3, 3, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(3))
    loss = make_loss(IwlConfig(beta=0.3))
    x = np.array([[0.8, -0.3, 1.5]])
    y = np.array([1])
    grad = np.empty_like(m.theta)
    _backward_batch(stack_of(m), x, y, [loss], grad[None])
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
    loss = make_loss(IwlConfig(beta=0.3))
    grad = np.full_like(m.theta, np.nan)
    [value] = _backward_batch(stack_of(m), np.ones((1, 3)), np.array([0]), [loss], grad[None])
    assert math.isfinite(value) and np.isfinite(grad).all()
    assert [gw.shape for gw, _ in _layers(m.dims, grad)] == [w.shape for w in m.weights]
    assert len(_layers(m.dims, grad)) == 2
    with pytest.raises(DimensionError):
        _backward_batch(stack_of(m), np.ones((1, 3)), np.array([3]), [loss], grad[None])


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_steps_move_by_learning_rate():
    m = init_model(2, 2, SMALL_ENC, hidden=(), rng=np.random.default_rng(0))
    state = adam_init(m)
    before = m.weights[0].copy()
    grad = np.empty_like(m.theta)
    [(gw, gb)] = _layers(m.dims, grad)
    gw[...], gb[...] = 1.0, -3.0
    adam_step(m, state, grad, lr=0.01)
    # Bias correction makes the very first step lr * g/(|g| + eps) ~ lr.
    assert np.allclose(before - m.weights[0], 0.01, rtol=1e-6)
    assert np.allclose(m.biases[0], 0.01, rtol=1e-6)
    adam_step(m, state, grad, lr=0.01)
    assert np.allclose(before - m.weights[0], 0.02, rtol=1e-6)
    assert state.step == 2


def test_adam_state_shapes_follow_model():
    m = init_model(3, 2, SMALL_ENC, hidden=(5,), rng=np.random.default_rng(0))
    state = adam_init(m)
    assert isinstance(state, AdamState)
    assert [w.shape for w, _ in _layers(m.dims, state.m)] == [w.shape for w in m.weights]
    assert all(a.shape == m.theta.shape for a in (state.m, state.v, state.num, state.den))
    assert all(np.all(b == 0.0) for _, b in _layers(m.dims, state.v))


def test_a_training_step_allocates_less_than_the_parameters():
    # train allocates the gradient, the moments and Adam's work vectors once;
    # a step then allocates only batch-sized arrays.
    rng = np.random.default_rng(0)
    m = init_model(3000, 9, RAW_ENC, hidden=(64, 32), rng=rng)
    loss = make_loss(IwlConfig(beta=0.3))
    x = rng.normal(0.0, 1.0, size=(64, 3000))
    y = rng.integers(0, 9, size=64)
    stack = stack_of(m)
    state = adam_init(stack)
    grad = np.empty_like(stack.theta)
    _backward_batch(stack, x, y, [loss], grad)
    adam_step(stack, state, grad, lr=0.001)
    for step in (lambda: _backward_batch(stack, x, y, [loss], grad), lambda: adam_step(stack, state, grad, lr=0.001)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.theta.nbytes


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
        IwlConfig(beta=0.3),
        IwlConfig(beta=0.0),
        BaselineLossConfig(kind="cross_entropy"),
        BaselineLossConfig(kind="focal"),
        BaselineLossConfig(kind="class_balanced"),
        BaselineLossConfig(kind="cb_focal"),
        BaselineLossConfig(kind="ldam"),
    ],
    ids=lambda c: getattr(c, "kind", "iwl") + (f"-b{c.beta}" if isinstance(c, IwlConfig) else ""),
)
def test_train_smoke_every_loss(loss_cfg):
    d = tiny_dataset(per_class=4)
    m, log = train(d, small_config(epochs=2, loss=loss_cfg))
    assert len(log) == 2 and all(np.isfinite(v) for v in log)
    assert np.isfinite(evaluate(m, d).accuracy)


def test_train_count_losses_survive_absent_class():
    # Class 2 exists in the label space but has no records; the resolved
    # class counts are clamped to at least 1 so CB stays finite.
    full = tiny_dataset(n_classes=3, per_class=4)
    d = Dataset(records=tuple(r for r in full if r.label != 2), class_names=full.class_names)
    assert d.num_classes == 3 and d.class_counts().tolist() == [4, 4, 0]
    m, log = train(d, small_config(epochs=2, loss=BaselineLossConfig(kind="class_balanced")))
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


def test_train_rejects_empty_dataset():
    d = Dataset(records=(), class_names=("a", "b"))
    with pytest.raises((ConfigError, EmptyDataset)):
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
    whole = EncoderSpec(kind="raw", raw_take=None)
    assert featurize_dataset(tiny_dataset(n_channels=3, length=50), whole).shape[1] == 150


def test_raw_whole_record_encoding_needs_one_length():
    d = tiny_dataset(length=60)
    shorter = dataclasses.replace(d.records[0], channels=d.records[0].channels[:, :50])
    ragged = Dataset(records=(shorter,) + d.records[1:], class_names=d.class_names)
    enc = EncoderSpec(kind="raw", raw_take=None)
    with pytest.raises(DimensionError, match="needs one length"):
        featurize_dataset(ragged, enc)
    with pytest.raises(DimensionError):
        train(ragged, small_config(encode=enc))


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


def test_evaluate_class_count_mismatch():
    d = tiny_dataset(n_classes=3)
    m = init_model(40, 2, SMALL_ENC, hidden=(4,), rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        evaluate(m, d)


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
