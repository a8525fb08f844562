"""The trainer against frozen copies of the trainers it replaced.

The first reference is model init, backward pass, Adam step and model save
as they stood when every parameter was its own array (gradients and
moments in weights-then-biases order, the file interleaving each layer's
weights and bias). Their arithmetic is kept unchanged, so the flat
``theta`` is held to the same values bit for bit after 20 steps, and the
saved files to the same bytes.

The second is the per-cell ``train`` loop on one flat ``theta``, as it
stood before models that differ only in their loss trained as one stack.
Every variant of a stack is held to it bit for bit: parameters and
per-epoch losses. The Adam step, which forms and steps the first layer's
weight gradient one block of input rows at a time, is held to the first
reference at the edges of those blocks.
"""

import dataclasses
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from ecgbalance import (
    Dataset,
    EncoderSpec,
    LossConfig,
    ModelParams,
    SynthSpec,
    TrainConfig,
    adam_init,
    adam_step,
    generate_synthetic,
    init_model,
    load_model,
    make_loss,
    save_model,
    train,
    train_stack,
)
from ecgbalance.errors import ConfigError, DimensionError
from ecgbalance.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_SLICE,
    _backward_batch,
    _first_layer_grad,
    _row_blocks,
    featurize_dataset,
)


def _ref_init(input_dim, num_classes, rng, hidden):
    dims = (input_dim, *hidden, num_classes)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return weights, biases


def _ref_forward(weights, biases, x2d):
    acts = [x2d]
    a = x2d
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    return acts, a @ weights[-1] + biases[-1]


def _ref_backward(weights, biases, x2d, labels, loss):
    acts, logits = _ref_forward(weights, biases, x2d)
    mean_value, delta = loss.mean(logits, labels)
    depth = len(weights)
    grads = [None] * (2 * depth)
    for layer in range(depth - 1, -1, -1):
        grads[layer] = acts[layer].T @ delta
        grads[depth + layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta = np.where(acts[layer] > 0.0, delta, 0.0)
    return grads, mean_value


def _ref_adam_step(params, moments, velocities, step, grads, lr):
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    for p, g, mom, vel in zip(params, grads, moments, velocities):
        mom *= ADAM_BETA1
        mom += (1.0 - ADAM_BETA1) * g
        vel *= ADAM_BETA2
        vel += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (mom / c1) / (np.sqrt(vel / c2) + ADAM_EPS)


def _ref_save(weights, biases, encoder, class_names, path):
    header = {
        "layer_dims": [int(weights[0].shape[0])] + [int(b.size) for b in biases],
        "encoder": asdict(encoder),
        "class_names": list(class_names),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(b"ECGBMDL1")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for w, b in zip(weights, biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def _ref_flat(weights, biases):
    return np.concatenate([part for w, b in zip(weights, biases) for part in (w.ravel(), b)])


NUM_CLASSES = 9
COUNTS = (640, 300, 120, 64, 33, 17, 9, 4, 1)
CLASS_NAMES = tuple(f"c{k}" for k in range(NUM_CLASSES))
LOSSES = {
    "iwl": LossConfig(beta=0.3),
    "ce": LossConfig(kind="cross_entropy"),
    "ldam": LossConfig(kind="ldam"),
}
STEPS = 20


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("batch", (1, 7, 64))
@pytest.mark.parametrize("hidden", ((64, 32), (16,), ()), ids=lambda h: "h" + "x".join(map(str, h)))
@pytest.mark.parametrize("width", (1500, 3000))
def test_flat_trainer_matches_the_per_array_reference_bit_for_bit(tmp_path, width, hidden, batch, loss_name):
    loss = make_loss(LOSSES[loss_name], class_counts=COUNTS)
    encoder = EncoderSpec(kind="raw", raw_take=width)
    ref_w, ref_b = _ref_init(width, NUM_CLASSES, np.random.default_rng(width), hidden)
    m = init_model(width, NUM_CLASSES, encoder, rng=np.random.default_rng(width), hidden=hidden, class_names=CLASS_NAMES)
    assert np.array_equal(m.theta, _ref_flat(ref_w, ref_b))

    ref_params = [*ref_w, *ref_b]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    # A stack of one variant whose theta is a view of m.theta.
    stack = ModelParams(m.dims, m.theta[None], encoder, CLASS_NAMES)
    state = adam_init(stack)
    tail = np.empty((1, m.theta.size - width * m.dims[1]))
    data = np.random.default_rng(7)
    for step in range(1, STEPS + 1):
        x = data.normal(0.0, 1.0, size=(batch, width))
        labels = data.integers(0, NUM_CLASSES, size=batch)
        ref_grads, ref_value = _ref_backward(ref_w, ref_b, x, labels, loss)
        _ref_adam_step(ref_params, ref_m, ref_v, step, ref_grads, 0.01)
        values, delta = _backward_batch(stack, x, labels, [loss], tail)
        assert values == [ref_value]
        # The first layer's weight gradient from the helper the Adam step uses per block, on every row.
        grad = np.concatenate([_first_layer_grad(x, delta[0], slice(None)).ravel(), tail[0]])
        assert np.array_equal(grad, _ref_flat(ref_grads[: len(ref_w)], ref_grads[len(ref_w) :]))
        adam_step(stack, state, x, delta, tail, 0.01)
    assert m.theta.tobytes() == _ref_flat(ref_w, ref_b).tobytes()
    assert state.m[0].tobytes() == _ref_flat(ref_m[: len(ref_w)], ref_m[len(ref_w) :]).tobytes()

    save_model(m, tmp_path / "flat.bin")
    _ref_save(ref_w, ref_b, encoder, CLASS_NAMES, tmp_path / "ref.bin")
    assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
    assert load_model(tmp_path / "ref.bin").theta.tobytes() == m.theta.tobytes()


# ---------------------------------------------------------------------------
# The per-cell train loop on a flat theta


def _ref_views(dims, flat):
    views, at = [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        end = at + d_in * d_out
        views.append((flat[at:end].reshape(d_in, d_out), flat[end : end + d_out]))
        at = end + d_out
    return views


def _ref_flat_backward(dims, theta, x2d, labels, loss, grad):
    weights, biases = zip(*_ref_views(dims, theta))
    acts, logits = _ref_forward(weights, biases, x2d)
    mean_value, delta = loss.mean(logits, labels)
    for layer, (gw, gb) in reversed(list(enumerate(_ref_views(dims, grad)))):
        np.matmul(acts[layer].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta = np.where(acts[layer] > 0.0, delta, 0.0)
    return mean_value


def _ref_flat_adam(theta, state, grad, lr):
    state["step"] += 1
    c1 = 1.0 - ADAM_BETA1 ** state["step"]
    c2 = 1.0 - ADAM_BETA2 ** state["step"]
    m, v, num, den = state["m"], state["v"], state["num"], state["den"]
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, grad, out=num), 1.0 - ADAM_BETA2, out=num)
    np.sqrt(np.divide(v, c2, out=den), out=den)
    den += ADAM_EPS
    np.multiply(np.divide(m, c1, out=num), lr, out=num)
    theta -= np.divide(num, den, out=num)


BLOCK_HIDDEN = (64, 32)
BLOCK_ROWS = ADAM_SLICE // BLOCK_HIDDEN[0]


@pytest.mark.parametrize("variants", (1, 3))
@pytest.mark.parametrize(
    "width, blocks",
    [
        (BLOCK_ROWS - 1, [BLOCK_ROWS - 1]),
        (BLOCK_ROWS, [BLOCK_ROWS]),
        (BLOCK_ROWS + 1, [BLOCK_ROWS + 1]),
        (3 * BLOCK_ROWS + 5, [BLOCK_ROWS] * 3 + [5]),
    ],
)
def test_blockwise_adam_matches_the_per_array_reference_at_block_edges(width, blocks, variants):
    # The first layer's weights step BLOCK_ROWS input rows at a time. A one-row block
    # would be a matrix-vector product, summed in another order, so a last single row
    # joins the block before it. Each variant of the stack trains on its own loss
    # against its own reference.
    assert [rows.stop - rows.start for rows in _row_blocks((width, *BLOCK_HIDDEN, NUM_CLASSES))] == blocks
    names = sorted(LOSSES)[:variants]
    losses = [make_loss(LOSSES[name], class_counts=COUNTS) for name in names]
    encoder = EncoderSpec(kind="raw", raw_take=width)
    m = init_model(width, NUM_CLASSES, encoder, rng=np.random.default_rng(width), hidden=BLOCK_HIDDEN)
    stack = ModelParams(m.dims, np.tile(m.theta, (variants, 1)), encoder)
    state = adam_init(stack)
    tail = np.empty((variants, m.theta.size - width * BLOCK_HIDDEN[0]))
    refs = []
    for _ in names:
        ref_w, ref_b = _ref_init(width, NUM_CLASSES, np.random.default_rng(width), BLOCK_HIDDEN)
        params = [*ref_w, *ref_b]
        refs.append((ref_w, ref_b, params, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]))
    data = np.random.default_rng(11)
    for step in range(1, STEPS + 1):
        x = data.normal(0.0, 1.0, size=(64, width))
        labels = data.integers(0, NUM_CLASSES, size=64)
        ref_values = []
        for loss, (ref_w, ref_b, params, moments, velocities) in zip(losses, refs):
            ref_grads, ref_value = _ref_backward(ref_w, ref_b, x, labels, loss)
            _ref_adam_step(params, moments, velocities, step, ref_grads, 0.01)
            ref_values.append(ref_value)
        values, delta = _backward_batch(stack, x, labels, losses, tail)
        assert values == ref_values
        adam_step(stack, state, x, delta, tail, 0.01)
    assert state.step == STEPS
    for k, (ref_w, ref_b, _, moments, velocities) in enumerate(refs):
        half = len(ref_w)
        assert stack.theta[k].tobytes() == _ref_flat(ref_w, ref_b).tobytes(), names[k]
        assert state.m[k].tobytes() == _ref_flat(moments[:half], moments[half:]).tobytes(), names[k]
        assert state.v[k].tobytes() == _ref_flat(velocities[:half], velocities[half:]).tobytes(), names[k]


def _ref_train(d, cfg):
    x = featurize_dataset(d, cfg.encode)
    labels = d.labels()
    loss = make_loss(cfg.loss, class_counts=np.maximum(d.class_counts(), 1))
    rng = np.random.default_rng(cfg.seed)
    dims = (x.shape[1], *cfg.hidden, d.num_classes)
    theta = np.zeros(sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:])))
    for w, _ in _ref_views(dims, theta):
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
    state = {"step": 0, **{k: np.zeros_like(theta) for k in ("m", "v", "num", "den")}}
    grad = np.empty_like(theta)
    n = x.shape[0]
    log = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value = _ref_flat_backward(dims, theta, x[idx], labels[idx], loss, grad)
            _ref_flat_adam(theta, state, grad, cfg.learning_rate)
            epoch_sum += value * idx.size
        log.append(epoch_sum / n)
    return theta, log


# Every loss the trainer knows, iwl at two temperatures.
STACK_LOSSES = [
    LossConfig(kind="iwl", beta=0.3),
    LossConfig(kind="iwl", beta=2.0),
    LossConfig(kind="cross_entropy"),
    LossConfig(kind="focal"),
    LossConfig(kind="class_balanced"),
    LossConfig(kind="cb_focal"),
    LossConfig(kind="ldam"),
]


def _stack_data():
    # 43 records in batches of 7: every epoch ends on a one-record batch.
    spec = SynthSpec(
        length=120, per_class_counts=(20, 12, 8, 3), channel_gain=(1.0, 0.3, 0.05),
        noise_sd=0.6, seed=3,
    )
    return generate_synthetic(spec)


@pytest.mark.parametrize("hidden", ((64, 32), (16,), ()), ids=lambda h: "h" + "x".join(map(str, h)))
@pytest.mark.parametrize(
    "encoder", (EncoderSpec(kind="cme", height=4, width=30, skip=10, take=100), EncoderSpec(kind="raw", raw_take=100)),
    ids=lambda e: e.kind,
)
def test_every_stacked_variant_matches_the_per_cell_train_bit_for_bit(hidden, encoder):
    d = _stack_data()
    base = TrainConfig(epochs=3, batch_size=7, learning_rate=0.01, seed=5, encode=encoder, hidden=hidden)
    cfgs = [dataclasses.replace(base, loss=loss) for loss in STACK_LOSSES]
    fits = train_stack(featurize_dataset(d, encoder), d.labels(), cfgs, d.class_names)
    assert len(fits) == len(cfgs)
    for cfg, (model, log) in zip(cfgs, fits):
        ref_theta, ref_log = _ref_train(d, cfg)
        assert model.theta.tobytes() == ref_theta.tobytes(), cfg.loss
        assert log == ref_log, cfg.loss
        assert model.dims == (featurize_dataset(d, encoder).shape[1], *hidden, d.num_classes)
    single, single_log = train(d, cfgs[0])
    assert single.theta.tobytes() == fits[0][0].theta.tobytes() and single_log == fits[0][1]


def test_a_stack_trains_on_the_rows_it_is_given():
    # Rows in another order of a larger matrix, gathered by the caller: the same model as the records alone.
    d = _stack_data()
    cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=0.01, seed=5, encode=EncoderSpec(kind="raw", raw_take=100),
                      hidden=(8,))
    x = featurize_dataset(d, cfg.encode)
    perm = np.random.default_rng(0).permutation(len(d))
    padded = np.concatenate([np.zeros((5, x.shape[1])), x[perm]])
    rows = 5 + np.argsort(perm)
    [(model, log)] = train_stack(padded[rows], d.labels(), [cfg], d.class_names)
    ref_theta, ref_log = _ref_train(d, cfg)
    assert model.theta.tobytes() == ref_theta.tobytes() and log == ref_log


@pytest.mark.parametrize("layout", ("in place", "read-only", "Fortran order", "repeated rows"))
def test_a_stack_trains_as_on_gathered_batches_and_leaves_x_as_it_was(layout):
    # 31 of 43 rows, shuffled, in batches of 7, so every epoch ends on a short batch.
    # Only a writeable C-order x is rearranged in place; the others train on a copy.
    d = _stack_data()
    base = TrainConfig(epochs=3, batch_size=7, learning_rate=0.01, seed=5, encode=EncoderSpec(kind="raw", raw_take=100),
                       hidden=(16,))
    cfgs = [dataclasses.replace(base, loss=loss) for loss in STACK_LOSSES]
    rows = np.random.default_rng(2).permutation(len(d))[:31]
    if layout == "repeated rows":
        rows[[4, 20]] = rows[9]
    x = featurize_dataset(d, base.encode)[rows]
    if layout == "read-only":
        x.flags.writeable = False
    elif layout == "Fortran order":
        x = np.asfortranarray(x)
    before = x.tobytes()
    fits = train_stack(x, d.labels()[rows], cfgs, d.class_names)
    assert x.tobytes() == before
    trained = Dataset(tuple(d.records[i] for i in rows), d.class_names)
    for cfg, (model, log) in zip(cfgs, fits):
        ref_theta, ref_log = _ref_train(trained, cfg)
        assert model.theta.tobytes() == ref_theta.tobytes() and log == ref_log, cfg.loss


def test_stacked_configs_may_differ_only_in_their_loss():
    d = _stack_data()
    base = TrainConfig(epochs=1, batch_size=7, encode=EncoderSpec(kind="raw", raw_take=100), hidden=(8,))
    x = featurize_dataset(d, base.encode)
    for other in (dataclasses.replace(base, seed=1), dataclasses.replace(base, learning_rate=0.01)):
        with pytest.raises(ConfigError, match="differ only in their loss"):
            train_stack(x, d.labels(), [base, other], d.class_names)
    with pytest.raises(ConfigError):
        train_stack(x, d.labels(), [], d.class_names)
    with pytest.raises(DimensionError):
        train_stack(x, d.labels()[:-1], [base], d.class_names)


def test_a_diverging_stack_names_the_epoch_the_batch_and_the_loss():
    # iwl at beta 1000 overflows its weight on the first batch; cross-entropy does not.
    d = _stack_data()
    base = TrainConfig(epochs=2, batch_size=7, encode=EncoderSpec(kind="raw", raw_take=100), hidden=(8,))
    cfgs = [dataclasses.replace(base, loss=LossConfig(kind="cross_entropy")), dataclasses.replace(base, loss=LossConfig(beta=1000.0))]
    with pytest.raises(ConfigError, match=r"non-finite training loss at epoch 0, batch 0, loss iwl \(beta 1000\.0\)"):
        train_stack(featurize_dataset(d, base.encode), d.labels(), cfgs, d.class_names)
    # An Adam step that overflows every variant is caught at the end of the epoch, naming the first.
    huge = [dataclasses.replace(c, learning_rate=1.7e308, batch_size=64) for c in cfgs[:1]] * 2
    with pytest.raises(ConfigError, match=r"non-finite parameters .* epoch 0, batch 0, loss cross_entropy"):
        train_stack(featurize_dataset(d, base.encode), d.labels(), huge, d.class_names)
