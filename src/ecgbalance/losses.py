"""Classification losses with exact analytical logit gradients.

The centerpiece is the inverted-weight logarithmic (IWL) loss

    value = (ln(10 / (p + eps)))**beta * (-ln p)

on the true-class probability p, which multiplies cross-entropy by a
weight that grows as confidence falls, so rare (low-confidence) classes
receive proportionally larger gradients. The logarithms are natural and
the weight is differentiated; in a base b the IWL would be this loss times
(ln b)**-(1+beta), a scale Adam cancels but for its epsilon. Alongside it
live the usual imbalance baselines (focal, class-balanced, LDAM) and a
central finite-difference oracle used to verify every analytical gradient.

Every loss is a pointwise term on the true-class p and log p, which one
core turns into values and logit gradients (LDAM shifts and scales the
logits first; class-balanced losses weight each record by its class).
Gradients stay finite as p underflows to zero: each log p comes from the
stable log-softmax, and the term returns p * d(value)/dp, not d(value)/dp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .data import _check_counts, _check_fields, _check_integer, _check_labels, _is_integer, _is_number
from .errors import ConfigError, DimensionError

LOSS_KINDS = ("iwl", "cross_entropy", "focal", "class_balanced", "cb_focal", "ldam")

# Aliases accepted by config files and CLI flags.
LOSS_ALIASES = {
    "ce": "cross_entropy",
    "cb": "class_balanced",
}

# Losses whose terms depend on the training split's class counts.
_COUNTED_KINDS = ("class_balanced", "cb_focal", "ldam")

_LN10 = math.log(10.0)


def canonical_loss_name(name: str) -> str:
    key = name.strip().lower()
    key = LOSS_ALIASES.get(key, key)
    if key not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {name!r}; expected one of {LOSS_KINDS}")
    return key


# ---------------------------------------------------------------------------
# Softmax


def _log_softmax(logits2d: np.ndarray) -> np.ndarray:
    shifted = logits2d - logits2d.max(axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def softmax(logits) -> np.ndarray:
    """Max-subtracted softmax; overflow-safe for any finite logits."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 1:
        return np.exp(_log_softmax(arr[None, :]))[0]
    return np.exp(_log_softmax(arr))


@dataclass(frozen=True)
class LossConfig:
    """Selection and parameters of one loss; each loss reads only its own fields.

    iwl: beta is the temperature, where 0 recovers plain cross-entropy and
    larger values weight low-confidence records more sharply. epsilon guards
    the weight's denominator (it sits inside the weight only, never under
    -ln p). The loss is (ln(10 / (p + epsilon)))**beta * (-ln p), weight
    differentiated, and cross-entropy bit for bit at beta=0; in a log base b
    it would be this loss times (ln b)**-(1+beta).

    focal and cb_focal use gamma; class_balanced and cb_focal use cb_beta;
    ldam uses ldam_mu and ldam_s. The class-balanced and LDAM variants also
    need the training split's class counts, which :func:`make_loss` binds.
    """

    kind: str = "iwl"
    beta: float = 0.3
    epsilon: float = 1e-12
    gamma: float = 2.0
    cb_beta: float = 0.999
    ldam_mu: float = 0.2
    ldam_s: float = 20.0

    def __post_init__(self):
        # kind is a string and each parameter an int or float, not a bool, so a wrong type fails here.
        fits = {f.name: _is_number(getattr(self, f.name)) for f in fields(self)} | {"kind": isinstance(self.kind, str)}
        _check_fields(fits, ConfigError, "loss")
        object.__setattr__(self, "kind", canonical_loss_name(self.kind))
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError(f"beta must be finite and nonnegative, got {self.beta}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if not 0.0 <= self.cb_beta < 1.0:
            raise ConfigError(f"cb_beta must lie in [0, 1), got {self.cb_beta}")
        if not (math.isfinite(self.ldam_s) and self.ldam_s > 0):
            raise ConfigError(f"ldam_s must be finite and positive, got {self.ldam_s}")
        if not (math.isfinite(self.ldam_mu) and self.ldam_mu >= 0):
            raise ConfigError(f"ldam_mu must be finite and nonnegative, got {self.ldam_mu}")


def effective_number_weights(cb_beta: float, class_counts) -> np.ndarray:
    """(1 - b) / (1 - b**n) per class, normalized to mean 1."""
    counts = _check_counts(class_counts, ConfigError, positive=True).astype(np.float64)
    if cb_beta == 0.0:
        return np.ones_like(counts)
    raw = (1.0 - cb_beta) / (1.0 - cb_beta**counts)
    return raw * (counts.size / raw.sum())


def ldam_margins(mu: float, class_counts) -> np.ndarray:
    """Per-class margins proportional to n**(-1/4), scaled so max = mu."""
    counts = _check_counts(class_counts, ConfigError, positive=True).astype(np.float64)
    raw = counts**-0.25
    return mu * raw / raw.max()


# ---------------------------------------------------------------------------
# The loss core: rows of logits, integer labels -> per-row values + grads


def _iwl_log_term(p, cfg: LossConfig):
    """ln(10 / (p + eps)), the quantity the IWL weight raises to beta."""
    return _LN10 - np.log(p + cfg.epsilon)


def _pointwise(p, logp, cfg: LossConfig):
    """Per-record (value, p * d(value)/dp) from the true-class p and log p."""
    if cfg.kind == "iwl":
        a = _iwl_log_term(p, cfg)
        ce_part = -logp
        weight = a**cfg.beta
        p_dv = -weight
        if cfg.beta != 0.0:
            # Kept finite as p -> 0: the weight-term factor carries p/(p+eps)
            # instead of a bare 1/(p+eps), the CE-term factor cancels its 1/p.
            p_dv = p_dv - cfg.beta * a ** (cfg.beta - 1.0) * (p / (p + cfg.epsilon)) * ce_part
        return weight * ce_part, p_dv
    if cfg.kind in ("focal", "cb_focal"):
        q = 1.0 - p
        p_dv = -(q**cfg.gamma)
        values = p_dv * logp
        if cfg.gamma != 0.0:
            # gamma * q**(gamma-1) * p * log p, with the q=0 limit (which is 0) taken explicitly
            inner = np.zeros_like(p)
            pos = q > 0.0
            inner[pos] = cfg.gamma * q[pos] ** (cfg.gamma - 1.0) * (p[pos] * logp[pos])
            p_dv = p_dv + inner
        return values, p_dv
    return -logp, np.full_like(p, -1.0)


def _core(logits2d, labels, cfg: LossConfig, class_counts) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(logits2d, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError(f"logits must be one row per record, got shape {z.shape}")
    t = _check_labels(labels, z.shape[1], z.shape[0])
    if cfg.kind in _COUNTED_KINDS and class_counts.size != z.shape[1]:
        raise DimensionError(f"{class_counts.size} class counts for {z.shape[1]} logit columns")
    rows = np.arange(t.size)
    if cfg.kind == "ldam":
        z = z.copy()
        z[rows, t] -= ldam_margins(cfg.ldam_mu, class_counts)[t]
        z = cfg.ldam_s * z
    lp = _log_softmax(z)
    probs = np.exp(lp)
    values, p_dv = _pointwise(probs[rows, t], lp[rows, t], cfg)
    if cfg.kind == "ldam":
        p_dv = cfg.ldam_s * p_dv
    # d(value)/dz = p_dv * (onehot - probs), since d(log p)/dz = onehot - probs.
    grads = probs * (-p_dv)[:, None]
    grads[rows, t] += p_dv
    if cfg.kind in ("class_balanced", "cb_focal"):
        w = effective_number_weights(cfg.cb_beta, class_counts)[t]
        values, grads = values * w, grads * w[:, None]
    return values, grads


# ---------------------------------------------------------------------------
# IWL point helpers (used for monotonicity studies over p directly)


def iwl_weight(p, cfg: LossConfig = LossConfig()):
    """The weight factor (ln(10/(p+eps)))**beta as a function of p."""
    return _iwl_log_term(np.asarray(p, dtype=np.float64), cfg) ** cfg.beta


def iwl_point_value(p, cfg: LossConfig = LossConfig()):
    """IWL value as a function of the true-class probability alone."""
    arr = np.asarray(p, dtype=np.float64)
    return iwl_weight(arr, cfg) * -np.log(arr)


# ---------------------------------------------------------------------------
# Batch adapter and factory


@dataclass(frozen=True)
class BatchLoss:
    """A loss config, and the training split's class counts if its kind needs them, over rows of logits."""

    cfg: LossConfig
    class_counts: Optional[np.ndarray] = None

    def per_record(self, logits2d, labels) -> tuple[np.ndarray, np.ndarray]:
        return _core(logits2d, labels, self.cfg, self.class_counts)

    def mean(self, logits2d, labels) -> tuple[float, np.ndarray]:
        """Mean value over records and the matching mean-gradient rows.

        The reduction uses an exactly rounded sum, so it is independent of
        record order up to the final division.
        """
        values, grads = self.per_record(logits2d, labels)
        n = values.size
        return math.fsum(values.tolist()) / n, grads / n


def make_loss(cfg: LossConfig, class_counts=None) -> BatchLoss:
    """Build a BatchLoss from a config, binding the class counts the counted kinds need.

    Those kinds refuse, with a ConfigError, class counts that are missing or
    are not a vector of at least two positive integers (a float or a bool is
    not one); the others ignore ``class_counts``.
    """
    if cfg.kind not in _COUNTED_KINDS:
        return BatchLoss(cfg)
    if class_counts is None:
        raise ConfigError(f"loss {cfg.kind!r} needs class_counts")
    return BatchLoss(cfg, _check_counts(class_counts, ConfigError, positive=True, shape_error=ConfigError))


# ---------------------------------------------------------------------------
# Finite-difference oracle


def finite_difference_grad(loss_fn, logits, y, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar loss in logit space.

    loss_fn(logits, y) must return a float. The default step 1e-6 balances
    truncation against cancellation for double precision.
    """
    base = np.asarray(logits, dtype=np.float64)
    grad = np.empty_like(base)
    for j in range(base.size):
        up = base.copy()
        up[j] += h
        down = base.copy()
        down[j] -= h
        grad[j] = (loss_fn(up, y) - loss_fn(down, y)) / (2.0 * h)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the largest finite-difference magnitude.

    The scale is floored at 1e-3: central differences with step h carry an
    absolute rounding noise near eps * |loss| / (2h), about 1e-8 for the
    losses here, so a gradient that small cannot be resolved numerically
    and must not be judged on its own magnitude.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(n))), 1e-3)
    return float(np.max(np.abs(a - n))) / scale


@dataclass(frozen=True)
class GradCheckResult:
    loss: str
    trials: int
    max_rel_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.threshold


def gradient_check(
    cfg: LossConfig,
    trials: int = 100,
    seed: int = 0,
    threshold: float = 1e-4,
    num_classes: int = 9,
) -> GradCheckResult:
    """Compare analytical against central finite-difference gradients.

    Each trial draws fresh logits (sd 3) and a label, evaluated as a
    one-row batch; losses that need class counts get a fresh random
    histogram per trial as well, so the check covers the count-dependent
    terms too. There must be at least two classes.
    """
    _check_integer(trials, ConfigError, "trials", least=1)
    _check_integer(seed, ConfigError)
    if not (_is_number(threshold) and math.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"threshold must be finite and positive, got {threshold!r}")
    if not (_is_integer(num_classes) and num_classes >= 2):
        raise ConfigError(f"need at least two classes, got {num_classes!r}")
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        logits = rng.normal(0.0, 3.0, size=num_classes)
        label = int(rng.integers(num_classes))
        counts = rng.integers(1, 641, size=num_classes) if cfg.kind in _COUNTED_KINDS else None
        batch = make_loss(cfg, class_counts=counts)
        # A parameter that overflows gives a NaN error, which fails the check; it is not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            _, grads = batch.per_record(logits[None, :], [label])
            loss_fn = lambda z, t: float(batch.per_record(z[None, :], [t])[0][0])
            numeric = finite_difference_grad(loss_fn, logits, label)
            errors.append(relative_gradient_error(grads[0], numeric))
    # np.max, unlike the builtin max, carries a NaN error through to the result.
    return GradCheckResult(loss=cfg.kind, trials=trials, max_rel_error=float(np.max(errors)), threshold=threshold)
