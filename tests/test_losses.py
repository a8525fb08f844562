import math

import numpy as np
import pytest

from ecgbalance import (
    LossConfig,
    canonical_loss_name,
    effective_number_weights,
    finite_difference_grad,
    gradient_check,
    iwl_point_value,
    iwl_weight,
    ldam_margins,
    make_loss,
    relative_gradient_error,
    softmax,
)
from ecgbalance.errors import ConfigError, DimensionError

RNG = np.random.default_rng(0)
CE = LossConfig(kind="cross_entropy")


def one_row(cfg, logits, label, class_counts=None):
    """Value and logit gradient of one record, evaluated as a one-row batch."""
    z = np.asarray(logits, dtype=np.float64)[None, :]
    values, grads = make_loss(cfg, class_counts=class_counts).per_record(z, [label])
    return float(values[0]), grads[0]


# ---------------------------------------------------------------------------
# Primitives


def test_softmax_two_logit_oracle():
    p = softmax([1.0, 2.0])
    assert p[0] == pytest.approx(0.2689414213699951, abs=1e-16)
    assert p[1] == pytest.approx(0.7310585786300049, abs=1e-16)


def test_softmax_shift_invariance_and_overflow_safety():
    # exp(1000) overflows without max subtraction.
    p = softmax(np.array([1000.0, 995.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # A common shift leaves the max-subtracted logits bit-identical.
    q = softmax(np.array([5.0, 0.0, -995.0]))
    assert np.array_equal(p, q)


def test_softmax_rows_independent():
    z = RNG.normal(size=(4, 6))
    batch = softmax(z)
    for i in range(4):
        assert np.array_equal(batch[i], softmax(z[i]))


# ---------------------------------------------------------------------------
# Cross-entropy


def test_cross_entropy_value_and_gradient_formula():
    logits = np.array([1.0, -0.5, 0.2])
    value, grad = one_row(CE, logits, 0)
    p = softmax(logits)
    assert value == pytest.approx(-math.log(p[0]), rel=1e-14)
    assert np.allclose(grad, p - np.eye(3)[0], atol=1e-15)


# ---------------------------------------------------------------------------
# IWL: frozen oracles


def test_iwl_point_value_oracle_beta_one():
    # p = 0.1: ln(10/0.1) * (-ln 0.1), high-precision reference.
    v = iwl_point_value(0.1, LossConfig(beta=1.0))
    assert v == pytest.approx(10.60379622093377, rel=1e-14)


def test_iwl_weight_and_value_oracle_beta_03():
    cfg = LossConfig(beta=0.3)
    w = iwl_weight(0.25, cfg)
    v = iwl_point_value(0.25, cfg)
    assert w == pytest.approx(1.4793411537703097, rel=1e-14)
    assert v == pytest.approx(2.0508022996443733, rel=1e-14)


def test_iwl_logit_space_oracle():
    value, _ = one_row(LossConfig(beta=0.3), [1.0, -0.5, 0.2], 0)
    assert value == pytest.approx(0.7016861027016875, rel=1e-14)


def test_iwl_base_ten_point_oracle():
    # log10(10/0.1) = 2, so weight = 2**0.5; -log10(0.1) = 1. The epsilon
    # guard inside the weight shifts the result by about 1e-12 relative.
    cfg = LossConfig(beta=0.5, log_base=10.0)
    assert iwl_point_value(0.1, cfg) == pytest.approx(math.sqrt(2.0), rel=1e-11)


def test_iwl_epsilon_only_guards_the_weight():
    # At p = 1 the CE factor is exactly zero, so the loss is zero too.
    cfg = LossConfig(beta=2.0, epsilon=1e-3)
    assert iwl_point_value(1.0, cfg) == 0.0
    w = iwl_weight(1.0, cfg)
    assert w == pytest.approx(math.log(10.0 / (1.0 + 1e-3)) ** 2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# IWL: beta = 0 reduces to cross-entropy, bit for bit


def test_iwl_beta_zero_is_cross_entropy_exactly():
    cfg = LossConfig(beta=0.0)
    for _ in range(200):
        k = int(RNG.integers(2, 12))
        logits = RNG.normal(0.0, 4.0, size=k)
        label = int(RNG.integers(k))
        a_value, a_grad = one_row(cfg, logits, label)
        b_value, b_grad = one_row(CE, logits, label)
        assert a_value == b_value
        assert np.array_equal(a_grad, b_grad)


# ---------------------------------------------------------------------------
# IWL: shape properties


def test_iwl_loss_strictly_decreasing_in_confidence():
    grid = np.arange(0.01, 1.0, 0.01)
    for beta in (0.1, 0.3, 1.0, 5.0):
        cfg = LossConfig(beta=beta)
        values = np.array([iwl_point_value(p, cfg) for p in grid])
        assert np.all(np.diff(values) < 0.0)


def test_iwl_weight_strictly_decreasing_for_positive_beta():
    grid = np.arange(0.01, 1.0, 0.01)
    for beta in (0.1, 0.3, 1.0, 5.0):
        cfg = LossConfig(beta=beta)
        weights = np.array([iwl_weight(p, cfg) for p in grid])
        assert np.all(np.diff(weights) < 0.0)
    flat = np.array([iwl_weight(p, LossConfig(beta=0.0)) for p in grid])
    assert np.all(flat == 1.0)


def test_iwl_weight_upweights_hard_records():
    cfg = LossConfig(beta=0.3)
    assert iwl_weight(1e-4, cfg) > iwl_weight(0.5, cfg) > iwl_weight(0.99, cfg)


# ---------------------------------------------------------------------------
# IWL: gradients


def test_iwl_gradient_matches_finite_differences():
    cfg = LossConfig(beta=0.3)
    for _ in range(30):
        logits = RNG.normal(0.0, 3.0, size=9)
        label = int(RNG.integers(9))
        _, grad = one_row(cfg, logits, label)
        num = finite_difference_grad(lambda z, t: one_row(cfg, z, t)[0], logits, label)
        assert relative_gradient_error(grad, num) < 1e-6


def test_iwl_gradient_finite_at_collapsed_probability():
    # The true-class probability underflows; the gradient must stay finite.
    logits = np.array([-800.0, 0.0, 0.0])
    value, grad = one_row(LossConfig(beta=0.3), logits, 0)
    assert np.all(np.isfinite(grad))
    assert np.isfinite(value)


def test_iwl_stop_weight_gradient_scales_cross_entropy_gradient():
    cfg = LossConfig(beta=0.7, stop_weight_gradient=True)
    for _ in range(50):
        logits = RNG.normal(0.0, 3.0, size=6)
        label = int(RNG.integers(6))
        _, grad = one_row(cfg, logits, label)
        _, ce_grad = one_row(CE, logits, label)
        p = softmax(logits)[label]
        w = iwl_weight(p, cfg)
        assert np.allclose(grad, w * ce_grad, rtol=1e-9, atol=1e-12)


def test_iwl_full_gradient_differs_from_stopped_gradient():
    logits = np.array([0.5, -0.2, 0.1])
    full_value, full_grad = one_row(LossConfig(beta=0.7), logits, 0)
    stopped_value, stopped_grad = one_row(LossConfig(beta=0.7, stop_weight_gradient=True), logits, 0)
    assert full_value == stopped_value
    assert not np.allclose(full_grad, stopped_grad)


def test_iwl_base_ten_gradcheck():
    res = gradient_check(LossConfig(beta=0.5, log_base=10.0), trials=50, seed=5)
    assert res.passed


def test_iwl_stopped_weight_gradcheck_differences_a_constant_weight():
    stopped = LossConfig(beta=1.5, log_base=10.0, stop_weight_gradient=True)
    assert gradient_check(stopped, trials=50, seed=5).passed
    # The unstopped weight is still checked against the full loss.
    assert gradient_check(LossConfig(beta=1.5, log_base=10.0), trials=50, seed=5).passed


# ---------------------------------------------------------------------------
# Focal


def test_focal_point_oracle():
    value, _ = one_row(LossConfig(kind="focal", gamma=2.0), np.log(np.array([0.25, 0.75])), 0)
    # (1 - 0.25)**2 * (-ln 0.25)
    assert value == pytest.approx(0.7797905781299385, rel=1e-13)


def test_focal_gamma_zero_is_cross_entropy():
    for _ in range(50):
        logits = RNG.normal(0.0, 3.0, size=5)
        label = int(RNG.integers(5))
        a_value, a_grad = one_row(LossConfig(kind="focal", gamma=0.0), logits, label)
        b_value, b_grad = one_row(CE, logits, label)
        assert a_value == b_value
        assert np.array_equal(a_grad, b_grad)


def test_focal_gradient_finite_when_p_saturates():
    # p -> 1 drives (1-p)**(gamma-1) through a 0 * log(p) product.
    logits = np.array([200.0, 0.0, -50.0])
    value, grad = one_row(LossConfig(kind="focal", gamma=2.0), logits, 0)
    assert np.all(np.isfinite(grad))
    assert value == 0.0


def test_focal_downweights_easy_records():
    easy, _ = one_row(LossConfig(kind="focal", gamma=2.0), [4.0, 0.0], 0)
    ce_easy, _ = one_row(CE, [4.0, 0.0], 0)
    assert easy < ce_easy


# ---------------------------------------------------------------------------
# Class-balanced


def test_effective_number_weights_oracle():
    w = effective_number_weights(0.999, [100, 10])
    assert w[0] == pytest.approx(0.1893274702469939, rel=1e-12)
    assert w[1] == pytest.approx(1.8106725297530061, rel=1e-12)
    assert w.mean() == pytest.approx(1.0, abs=1e-12)


def test_effective_number_weights_beta_zero_is_uniform():
    assert np.array_equal(effective_number_weights(0.0, [5, 500]), np.ones(2))


def test_class_balanced_scales_cross_entropy():
    logits = np.array([0.2, -1.0, 0.7])
    counts = (100, 10, 50)
    value, grad = one_row(LossConfig(kind="class_balanced", cb_beta=0.999), logits, 1, class_counts=counts)
    base_value, base_grad = one_row(CE, logits, 1)
    w = effective_number_weights(0.999, counts)[1]
    assert value == pytest.approx(w * base_value, rel=1e-14)
    assert np.allclose(grad, w * base_grad, rtol=1e-14)


def test_class_balanced_focal_inner():
    logits = np.array([0.2, -1.0, 0.7])
    counts = (100, 10, 50)
    value, _ = one_row(LossConfig(kind="cb_focal", cb_beta=0.99, gamma=2.0), logits, 0, class_counts=counts)
    w = effective_number_weights(0.99, counts)[0]
    base_value, _ = one_row(LossConfig(kind="focal", gamma=2.0), logits, 0)
    assert value == pytest.approx(w * base_value, rel=1e-14)


def test_class_balanced_requires_counts_by_fit_time():
    # Count-free construction is fine (counts belong to the training split);
    # building the batch loss without them is not.
    cfg = LossConfig(kind="class_balanced")
    with pytest.raises(ConfigError):
        make_loss(cfg)
    assert np.isfinite(one_row(cfg, [0.1, 0.2], 0, class_counts=(100, 10))[0])


# ---------------------------------------------------------------------------
# LDAM


def test_ldam_margin_oracle():
    m = ldam_margins(0.2, [640, 10])
    assert m[0] == pytest.approx(0.07071067811865475, rel=1e-14)
    assert m[1] == pytest.approx(0.2, rel=1e-15)


def test_ldam_value_is_scaled_ce_on_shifted_logits():
    logits = np.array([1.0, 0.0, -0.5])
    counts = (640, 64, 10)
    value, _ = one_row(LossConfig(kind="ldam", ldam_mu=0.2, ldam_s=20.0), logits, 2, class_counts=counts)
    margins = ldam_margins(0.2, counts)
    shifted = logits.copy()
    shifted[2] -= margins[2]
    ref, _ = one_row(CE, 20.0 * shifted, 2)
    assert value == pytest.approx(ref, rel=1e-14)


def test_ldam_rare_class_gets_largest_margin():
    m = ldam_margins(0.5, [1000, 100, 5])
    assert m[2] == 0.5
    assert m[0] < m[1] < m[2]


# ---------------------------------------------------------------------------
# Batch plumbing


def test_batch_mean_is_order_invariant():
    loss = make_loss(LossConfig(beta=0.3))
    logits = RNG.normal(0.0, 2.0, size=(64, 9))
    labels = RNG.integers(0, 9, size=64)
    v1, g1 = loss.mean(logits, labels)
    perm = RNG.permutation(64)
    v2, g2 = loss.mean(logits[perm], labels[perm])
    assert v1 == v2
    # Per-row gradients travel with their rows.
    assert np.array_equal(g2, g1[perm])


def test_batch_labels_validated():
    loss = make_loss(LossConfig(kind="cross_entropy"))
    with pytest.raises(DimensionError):
        loss.per_record(np.zeros((2, 3)), np.array([0, 3]))


@pytest.mark.parametrize("kind", ["ldam", "class_balanced", "cb_focal"])
@pytest.mark.parametrize("counts", [(5, 3), (5, 3, 2, 1)])
def test_class_counts_must_match_the_logit_width(kind, counts):
    loss = make_loss(LossConfig(kind=kind), class_counts=counts)
    with pytest.raises(DimensionError, match="class counts for 3 logit columns"):
        loss.per_record(np.zeros((1, 3)), [2])


def test_make_loss_binds_class_counts():
    value, _ = one_row(LossConfig(kind="ldam"), [0.1, -0.1], 0, class_counts=[10, 20])
    assert np.isfinite(value)
    loss = make_loss(LossConfig(kind="ldam"), class_counts=[10, 20])
    assert loss.class_counts.dtype == np.int64 and loss.class_counts.tolist() == [10, 20]
    assert make_loss(LossConfig(kind="focal"), class_counts=[10, 20]).class_counts is None


@pytest.mark.parametrize("counts", [(5, 0, 2), (5, -1), ((5, 3), (2, 1))])
def test_make_loss_rejects_unusable_class_counts(counts):
    with pytest.raises(ConfigError, match="positive integers"):
        make_loss(LossConfig(kind="ldam"), class_counts=counts)


def test_loss_config_has_no_class_counts_field():
    # Counts come from the training split, through make_loss only.
    with pytest.raises(TypeError):
        LossConfig(kind="ldam", class_counts=(5, 3))


def test_loss_aliases():
    assert canonical_loss_name("ce") == "cross_entropy"
    assert canonical_loss_name("cb") == "class_balanced"
    assert canonical_loss_name("iwl") == "iwl"
    assert LossConfig(kind=" CB ").kind == "class_balanced"
    with pytest.raises(ConfigError):
        canonical_loss_name("hinge")


def test_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(beta=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        LossConfig(log_base=1.0)
    with pytest.raises(ConfigError, match="hinge"):
        LossConfig(kind="hinge")
    with pytest.raises(ConfigError):
        LossConfig(kind="focal", gamma=-1.0)
    with pytest.raises(ConfigError):
        LossConfig(kind="cross_entropy", cb_beta=1.0)
    # NaN slips past every ordered comparison, so each parameter is also checked for finiteness.
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("beta", "epsilon", "log_base"):
            with pytest.raises(ConfigError, match=name):
                LossConfig(**{name: bad})
        for name in ("gamma", "ldam_mu", "ldam_s", "cb_beta"):
            with pytest.raises(ConfigError, match=name):
                LossConfig(kind="ldam", **{name: bad})


# ---------------------------------------------------------------------------
# Gradient checking machinery


def test_finite_difference_matches_analytic_quadratic():
    # loss = sum(z**2) has gradient 2z; the label argument is unused.
    z = np.array([0.5, -1.5, 2.0])
    num = finite_difference_grad(lambda logits, t: float(np.sum(logits**2)), z, 0)
    assert np.allclose(num, 2.0 * z, atol=1e-6)


def test_relative_error_guards_zero_denominator():
    assert relative_gradient_error(np.zeros(3), np.zeros(3)) == 0.0


def test_gradient_check_passes_for_every_loss_kind():
    configs = [
        LossConfig(beta=0.3),
        LossConfig(kind="cross_entropy"),
        LossConfig(kind="focal"),
        # Count-free configs exercise the per-trial random histograms.
        LossConfig(kind="class_balanced"),
        LossConfig(kind="cb_focal"),
        LossConfig(kind="ldam"),
    ]
    for cfg in configs:
        res = gradient_check(cfg, trials=20, seed=3)
        assert res.passed, f"{res.loss}: {res.max_rel_error}"


def test_gradient_check_reports_failure_on_absurd_threshold():
    res = gradient_check(LossConfig(beta=0.3), trials=5, seed=0, threshold=1e-18)
    assert not res.passed
