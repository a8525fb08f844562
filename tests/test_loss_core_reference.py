"""The loss core against a frozen copy of the five per-loss cores it replaced.

The reference functions below are the per-loss implementations as they
stood before every loss went through one core, kept with their arithmetic
unchanged, so that the shared core is held to the same values and
gradients bit for bit. Left out are the label checks, and the IWL's other
log bases and stopped weight gradient, which the loss no longer has; its
natural base divided by exactly 1.0. That includes
batches whose logits are spread wide enough (sd 300) that the true-class
probability underflows to zero.
"""

import math

import numpy as np
import pytest

from ecgbalance import LossConfig, effective_number_weights, ldam_margins, make_loss

_LN10 = math.log(10.0)


def _ref_log_softmax(logits2d):
    shifted = logits2d - logits2d.max(axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def _ref_rows_and_labels(logits2d, labels):
    return np.asarray(logits2d, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def _ref_ce_core(logits2d, labels):
    z, t = _ref_rows_and_labels(logits2d, labels)
    lp = _ref_log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    values = -lp[rows, t]
    grads = probs.copy()
    grads[rows, t] -= 1.0
    return values, grads


def _ref_iwl_core(logits2d, labels, cfg):
    z, t = _ref_rows_and_labels(logits2d, labels)
    lp = _ref_log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    p = probs[rows, t]
    a = _LN10 - np.log(p + cfg.epsilon)
    ce_part = -lp[rows, t]
    weight = a**cfg.beta
    values = weight * ce_part
    p_dv = -weight
    if cfg.beta != 0.0:
        p_dv = p_dv - cfg.beta * a ** (cfg.beta - 1.0) * (p / (p + cfg.epsilon)) * ce_part
    grads = probs * (-p_dv)[:, None]
    grads[rows, t] += p_dv
    return values, grads


def _ref_focal_core(logits2d, labels, gamma):
    z, t = _ref_rows_and_labels(logits2d, labels)
    lp = _ref_log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    p = probs[rows, t]
    logp = lp[rows, t]
    q = 1.0 - p
    values = -(q**gamma) * logp
    p_dv = -(q**gamma)
    if gamma != 0.0:
        inner = np.zeros_like(p)
        pos = q > 0.0
        inner[pos] = gamma * q[pos] ** (gamma - 1.0) * (p[pos] * logp[pos])
        p_dv = p_dv + inner
    grads = probs * (-p_dv)[:, None]
    grads[rows, t] += p_dv
    return values, grads


def _ref_cb_core(logits2d, labels, cfg):
    weights = effective_number_weights(cfg.cb_beta, COUNTS)
    if cfg.kind == "cb_focal":
        values, grads = _ref_focal_core(logits2d, labels, cfg.gamma)
    else:
        values, grads = _ref_ce_core(logits2d, labels)
    w = weights[np.asarray(labels, dtype=np.int64)]
    return values * w, grads * w[:, None]


def _ref_ldam_core(logits2d, labels, cfg):
    z, t = _ref_rows_and_labels(logits2d, labels)
    margins = ldam_margins(cfg.ldam_mu, COUNTS)
    rows = np.arange(t.size)
    shifted = z.copy()
    shifted[rows, t] -= margins[t]
    lp = _ref_log_softmax(cfg.ldam_s * shifted)
    probs = np.exp(lp)
    values = -lp[rows, t]
    grads = cfg.ldam_s * probs
    grads[rows, t] -= cfg.ldam_s
    return values, grads


def _ref_per_record(cfg, logits2d, labels):
    if cfg.kind == "iwl":
        return _ref_iwl_core(logits2d, labels, cfg)
    if cfg.kind == "cross_entropy":
        return _ref_ce_core(logits2d, labels)
    if cfg.kind == "focal":
        return _ref_focal_core(logits2d, labels, cfg.gamma)
    if cfg.kind in ("class_balanced", "cb_focal"):
        return _ref_cb_core(logits2d, labels, cfg)
    return _ref_ldam_core(logits2d, labels, cfg)


NUM_CLASSES = 9
COUNTS = (640, 300, 120, 64, 33, 17, 9, 4, 1)

CONFIGS = (
    [
        LossConfig(beta=beta, epsilon=eps)
        for beta in (0.0, 0.3, 1.0, 2.0)
        for eps in (1e-12, 1e-3)
    ]
    + [LossConfig(kind="cross_entropy")]
    + [LossConfig(kind="focal", gamma=g) for g in (0.0, 0.5, 2.0)]
    + [
        LossConfig(kind=kind, cb_beta=b)
        for kind in ("class_balanced", "cb_focal")
        for b in (0.0, 0.999)
    ]
    + [LossConfig(kind="ldam")]
)


def _config_id(cfg):
    if cfg.kind == "iwl":
        return f"iwl-b{cfg.beta}-eps{cfg.epsilon:g}"
    return f"{cfg.kind}-g{cfg.gamma}-cb{cfg.cb_beta}"


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_core_matches_the_per_loss_reference_bit_for_bit(cfg):
    loss = make_loss(cfg, class_counts=COUNTS)
    rng = np.random.default_rng(20240)
    for sd in (0.5, 3.0, 30.0, 300.0):
        for n in (1, 7, 64):
            logits = rng.normal(0.0, sd, size=(n, NUM_CLASSES))
            labels = rng.integers(0, NUM_CLASSES, size=n)
            ref_values, ref_grads = _ref_per_record(cfg, logits, labels)
            values, grads = loss.per_record(logits, labels)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(grads, ref_grads)
            mean_value, mean_grads = loss.mean(logits, labels)
            assert mean_value == math.fsum(ref_values.tolist()) / n
            assert np.array_equal(mean_grads, ref_grads / n)


def test_core_does_not_modify_the_caller_logits():
    logits = np.random.default_rng(5).normal(0.0, 3.0, size=(8, NUM_CLASSES))
    before = logits.copy()
    labels = np.arange(8)
    for cfg in CONFIGS:
        make_loss(cfg, class_counts=COUNTS).per_record(logits, labels)
    assert np.array_equal(logits, before)
