"""The flat-vector trainer against a frozen copy of the per-array trainer it replaced.

The reference functions below are model init, backward pass, Adam step and
model save as they stood when every parameter was its own array (gradients
and moments in weights-then-biases order, the file interleaving each
layer's weights and bias). Their arithmetic is kept unchanged, so the flat
``theta`` is held to the same values bit for bit after 20 steps, and the
saved files to the same bytes.
"""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from ecgbalance import (
    BaselineLossConfig,
    EncoderSpec,
    IwlConfig,
    adam_init,
    adam_step,
    init_model,
    load_model,
    make_loss,
    save_model,
)
from ecgbalance.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, _backward_batch


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
    "iwl": IwlConfig(beta=0.3),
    "ce": BaselineLossConfig(kind="cross_entropy"),
    "ldam": BaselineLossConfig(kind="ldam", class_counts=COUNTS),
}
STEPS = 20


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("batch", (1, 7, 64))
@pytest.mark.parametrize("hidden", ((64, 32), (16,), ()), ids=lambda h: "h" + "x".join(map(str, h)))
@pytest.mark.parametrize("width", (1500, 3000))
def test_flat_trainer_matches_the_per_array_reference_bit_for_bit(tmp_path, width, hidden, batch, loss_name):
    loss = make_loss(LOSSES[loss_name])
    encoder = EncoderSpec(kind="raw", raw_take=width)
    ref_w, ref_b = _ref_init(width, NUM_CLASSES, np.random.default_rng(width), hidden)
    m = init_model(width, NUM_CLASSES, encoder, rng=np.random.default_rng(width), hidden=hidden, class_names=CLASS_NAMES)
    assert np.array_equal(m.theta, _ref_flat(ref_w, ref_b))

    ref_params = [*ref_w, *ref_b]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    state = adam_init(m)
    grad = np.empty_like(m.theta)
    data = np.random.default_rng(7)
    for step in range(1, STEPS + 1):
        x = data.normal(0.0, 1.0, size=(batch, width))
        labels = data.integers(0, NUM_CLASSES, size=batch)
        ref_grads, ref_value = _ref_backward(ref_w, ref_b, x, labels, loss)
        _ref_adam_step(ref_params, ref_m, ref_v, step, ref_grads, 0.01)
        assert _backward_batch(m, x, labels, loss, grad) == ref_value
        assert np.array_equal(grad, _ref_flat(ref_grads[: len(ref_w)], ref_grads[len(ref_w) :]))
        adam_step(m, state, grad, 0.01)
    assert m.theta.tobytes() == _ref_flat(ref_w, ref_b).tobytes()
    assert state.m.tobytes() == _ref_flat(ref_m[: len(ref_w)], ref_m[len(ref_w) :]).tobytes()

    save_model(m, tmp_path / "flat.bin")
    _ref_save(ref_w, ref_b, encoder, CLASS_NAMES, tmp_path / "ref.bin")
    assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
    assert load_model(tmp_path / "ref.bin").theta.tobytes() == m.theta.tobytes()
