"""Classification losses with exact analytical logit gradients.

The centerpiece is the inverted-weight logarithmic (IWL) loss

    value = (log(10 / (p + eps)))**beta * (-log p)

on the true-class probability p, which multiplies cross-entropy by a
weight that grows as confidence falls, so rare (low-confidence) classes
receive proportionally larger gradients. Alongside it live the usual
imbalance baselines (focal, class-balanced, LDAM) and a central
finite-difference oracle used to verify every analytical gradient.

All gradients are with respect to the logits and are assembled in forms
that stay finite even when the true-class probability underflows to zero,
by routing every log p through the stable log-softmax and multiplying
derivative terms by p before any division by p can occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, DimensionError

LOSS_KINDS = ("cross_entropy", "focal", "class_balanced", "cb_focal", "ldam")

# Every loss with an analytical gradient worth checking.
GRADCHECK_LOSSES = ("iwl",) + LOSS_KINDS

# Aliases accepted by config files and CLI flags.
LOSS_ALIASES = {
    "ce": "cross_entropy",
    "cb": "class_balanced",
    "iwl": "iwl",
}

_LN10 = math.log(10.0)


def canonical_loss_name(name: str) -> str:
    key = name.strip().lower()
    key = LOSS_ALIASES.get(key, key)
    if key != "iwl" and key not in LOSS_KINDS:
        raise ConfigError(f"unknown loss {name!r}; expected iwl or one of {LOSS_KINDS}")
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
class IwlConfig:
    """IWL parameters.

    beta is the temperature: 0 recovers plain cross-entropy, larger values
    weight low-confidence records more sharply. epsilon guards the weight's
    denominator (it sits inside the weight only, never under -log p).
    log_base selects the base of both logarithms; the natural base is the
    default and short-circuits to exact arithmetic so beta=0 reproduces
    cross-entropy bit for bit. stop_weight_gradient treats the weight as a
    constant during differentiation rather than backpropagating through it.
    """

    beta: float = 0.3
    epsilon: float = 1e-12
    log_base: float = math.e
    stop_weight_gradient: bool = False

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.log_base <= 1.0:
            raise ConfigError(f"log base must exceed 1, got {self.log_base}")

    @property
    def _ln_base(self) -> float:
        # Exact 1.0 for the natural base, so no rounding detour through log(e).
        return 1.0 if self.log_base == math.e else math.log(self.log_base)


@dataclass(frozen=True)
class BaselineLossConfig:
    """Selection and parameters for the comparison losses.

    class_counts are the per-class training-set sizes; they are required
    by the class-balanced and LDAM variants and ignored by the others.
    """

    kind: str = "cross_entropy"
    gamma: float = 2.0
    cb_beta: float = 0.999
    ldam_mu: float = 0.2
    ldam_s: float = 20.0
    class_counts: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_loss_name(self.kind))
        if self.kind == "iwl":
            raise ConfigError("use IwlConfig for the iwl loss")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.cb_beta < 1.0:
            raise ConfigError(f"cb_beta must lie in [0, 1), got {self.cb_beta}")
        if self.ldam_s <= 0 or self.ldam_mu < 0:
            raise ConfigError("ldam_s must be positive and ldam_mu nonnegative")
        # class_counts may stay None here: counts describe the training split,
        # so make_loss fills them in at fit time and errors if still missing.
        if self.class_counts is not None:
            counts = tuple(int(c) for c in self.class_counts)
            if any(c < 1 for c in counts):
                raise ConfigError("class_counts must be positive integers")
            object.__setattr__(self, "class_counts", counts)


LossConfig = Union[IwlConfig, BaselineLossConfig]

_IWL_PARAMS = frozenset(f.name for f in fields(IwlConfig))
_BASELINE_PARAMS = frozenset(f.name for f in fields(BaselineLossConfig)) - {"kind"}


def loss_config(name: str, **params) -> LossConfig:
    """The config for loss ``name``, built from the params that loss uses.

    ``params`` may carry settings for every loss at once, as the command
    line and experiment specs do; each config takes only its own fields and
    leaves the rest at their defaults. A param no loss knows is an error.
    """
    unknown = set(params) - _IWL_PARAMS - _BASELINE_PARAMS
    if unknown:
        raise ConfigError(f"unknown loss parameters: {sorted(unknown)}")
    kind = canonical_loss_name(name)
    if kind == "iwl":
        return IwlConfig(**{k: v for k, v in params.items() if k in _IWL_PARAMS})
    return BaselineLossConfig(kind=kind, **{k: v for k, v in params.items() if k in _BASELINE_PARAMS})


# ---------------------------------------------------------------------------
# Vectorized cores: rows of logits, integer labels -> per-row values + grads


def _rows_and_labels(logits2d, labels):
    z = np.asarray(logits2d, dtype=np.float64)
    t = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or t.ndim != 1 or z.shape[0] != t.size:
        raise DimensionError(f"got logits {z.shape} for {t.size} labels")
    if np.any(t < 0) or np.any(t >= z.shape[1]):
        raise DimensionError("label outside the class range")
    return z, t


def _ce_core(logits2d, labels):
    z, t = _rows_and_labels(logits2d, labels)
    lp = _log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    values = -lp[rows, t]
    grads = probs.copy()
    grads[rows, t] -= 1.0
    return values, grads


def _iwl_core(logits2d, labels, cfg: IwlConfig):
    z, t = _rows_and_labels(logits2d, labels)
    lp = _log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    p = probs[rows, t]
    ln_b = cfg._ln_base
    # weight = log_b(10/(p+eps)) ** beta; -log_b p built from the stable log-prob
    a = (_LN10 - np.log(p + cfg.epsilon)) / ln_b
    ce_part = -lp[rows, t] / ln_b
    weight = a**cfg.beta
    values = weight * ce_part
    # p * d(value)/dp, kept finite as p -> 0: the weight-term factor carries
    # p/(p+eps) instead of a bare 1/(p+eps), the CE-term factor cancels its 1/p.
    p_dv = -weight / ln_b
    if not cfg.stop_weight_gradient and cfg.beta != 0.0:
        p_dv = p_dv - cfg.beta * a ** (cfg.beta - 1.0) * (p / (p + cfg.epsilon)) * ce_part / ln_b
    grads = probs * (-p_dv)[:, None]
    grads[rows, t] += p_dv
    return values, grads


def _focal_core(logits2d, labels, gamma: float):
    z, t = _rows_and_labels(logits2d, labels)
    lp = _log_softmax(z)
    probs = np.exp(lp)
    rows = np.arange(t.size)
    p = probs[rows, t]
    logp = lp[rows, t]
    q = 1.0 - p
    values = -(q**gamma) * logp
    p_dv = -(q**gamma)
    if gamma != 0.0:
        # gamma * q**(gamma-1) * p * log p, with the q=0 limit (which is 0) taken explicitly
        inner = np.zeros_like(p)
        pos = q > 0.0
        inner[pos] = gamma * q[pos] ** (gamma - 1.0) * (p[pos] * logp[pos])
        p_dv = p_dv + inner
    grads = probs * (-p_dv)[:, None]
    grads[rows, t] += p_dv
    return values, grads


def effective_number_weights(cb_beta: float, class_counts) -> np.ndarray:
    """(1 - b) / (1 - b**n) per class, normalized to mean 1."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise DimensionError("class_counts must be a 1-D vector of at least two counts")
    if np.any(counts < 1):
        raise ConfigError("class counts must be positive")
    if cb_beta == 0.0:
        return np.ones_like(counts)
    raw = (1.0 - cb_beta) / (1.0 - cb_beta**counts)
    return raw * (counts.size / raw.sum())


def _cb_core(logits2d, labels, cfg: BaselineLossConfig):
    weights = effective_number_weights(cfg.cb_beta, cfg.class_counts)
    if cfg.kind == "cb_focal":
        values, grads = _focal_core(logits2d, labels, cfg.gamma)
    else:
        values, grads = _ce_core(logits2d, labels)
    w = weights[np.asarray(labels, dtype=np.int64)]
    return values * w, grads * w[:, None]


def ldam_margins(mu: float, class_counts) -> np.ndarray:
    """Per-class margins proportional to n**(-1/4), scaled so max = mu."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ConfigError("class counts must be positive")
    raw = counts**-0.25
    return mu * raw / raw.max()


def _ldam_core(logits2d, labels, cfg: BaselineLossConfig):
    z, t = _rows_and_labels(logits2d, labels)
    margins = ldam_margins(cfg.ldam_mu, cfg.class_counts)
    rows = np.arange(t.size)
    shifted = z.copy()
    shifted[rows, t] -= margins[t]
    lp = _log_softmax(cfg.ldam_s * shifted)
    probs = np.exp(lp)
    values = -lp[rows, t]
    grads = cfg.ldam_s * probs
    grads[rows, t] -= cfg.ldam_s
    return values, grads


# ---------------------------------------------------------------------------
# IWL point helpers (used for monotonicity studies over p directly)


def iwl_weight(p, cfg: IwlConfig = IwlConfig()):
    """The weight factor (log_b(10/(p+eps)))**beta as a function of p."""
    arr = np.asarray(p, dtype=np.float64)
    return ((_LN10 - np.log(arr + cfg.epsilon)) / cfg._ln_base) ** cfg.beta


def iwl_point_value(p, cfg: IwlConfig = IwlConfig()):
    """IWL value as a function of the true-class probability alone."""
    arr = np.asarray(p, dtype=np.float64)
    return iwl_weight(arr, cfg) * (-np.log(arr) / cfg._ln_base)


# ---------------------------------------------------------------------------
# Batch adapter and factory


@dataclass(frozen=True)
class BatchLoss:
    """A named loss evaluated over rows of logits with integer labels."""

    name: str
    core: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    def per_record(self, logits2d, labels) -> tuple[np.ndarray, np.ndarray]:
        return self.core(logits2d, labels)

    def mean(self, logits2d, labels) -> tuple[float, np.ndarray]:
        """Mean value over records and the matching mean-gradient rows.

        The reduction uses an exactly rounded sum, so it is independent of
        record order up to the final division.
        """
        values, grads = self.core(logits2d, labels)
        n = values.size
        return math.fsum(values.tolist()) / n, grads / n


def make_loss(cfg: LossConfig, class_counts=None) -> BatchLoss:
    """Build a BatchLoss from a config, filling in class counts if needed."""
    if isinstance(cfg, IwlConfig):
        return BatchLoss(name="iwl", core=lambda z, t: _iwl_core(z, t, cfg))
    if not isinstance(cfg, BaselineLossConfig):
        raise ConfigError(f"unsupported loss config type {type(cfg).__name__}")
    if cfg.kind in ("class_balanced", "cb_focal", "ldam") and cfg.class_counts is None:
        if class_counts is None:
            raise ConfigError(f"loss {cfg.kind!r} needs class_counts")
        cfg = replace(cfg, class_counts=tuple(int(c) for c in class_counts))
    if cfg.kind == "cross_entropy":
        return BatchLoss(name=cfg.kind, core=_ce_core)
    if cfg.kind == "focal":
        return BatchLoss(name=cfg.kind, core=lambda z, t: _focal_core(z, t, cfg.gamma))
    if cfg.kind in ("class_balanced", "cb_focal"):
        return BatchLoss(name=cfg.kind, core=lambda z, t: _cb_core(z, t, cfg))
    return BatchLoss(name=cfg.kind, core=lambda z, t: _ldam_core(z, t, cfg))


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
    num_classes: int | None = None,
    h: float = 1e-6,
) -> GradCheckResult:
    """Compare analytical against central finite-difference gradients.

    Each trial draws fresh logits (sd 3) and a label, evaluated as a
    one-row batch; losses that need class counts get a fresh random
    histogram per trial as well, so the check covers the count-dependent
    terms too. A config with pinned class_counts fixes num_classes to the
    histogram's length.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    pinned = getattr(cfg, "class_counts", None)
    if num_classes is None:
        num_classes = len(pinned) if pinned is not None else 9
    elif pinned is not None and len(pinned) != num_classes:
        raise ConfigError(f"num_classes {num_classes} does not match {len(pinned)} pinned class counts")
    rng = np.random.default_rng(seed)
    randomize_counts = (
        isinstance(cfg, BaselineLossConfig)
        and cfg.kind in ("class_balanced", "cb_focal", "ldam")
        and cfg.class_counts is None
    )
    batch = None if randomize_counts else make_loss(cfg, class_counts=None)
    worst = 0.0
    for _ in range(trials):
        logits = rng.normal(0.0, 3.0, size=num_classes)
        label = int(rng.integers(num_classes))
        if randomize_counts:
            counts = tuple(int(c) for c in rng.integers(1, 641, size=num_classes))
            batch = make_loss(cfg, class_counts=counts)
        assert batch is not None
        _, grads = batch.per_record(logits[None, :], [label])
        if getattr(cfg, "stop_weight_gradient", False):
            # The analytic gradient holds the weight constant, so difference
            # the weight at this trial point times the (base-b) cross-entropy.
            w0 = float(iwl_weight(softmax(logits)[label], cfg))
            loss_fn = lambda z, t: w0 * float(-_log_softmax(z[None, :])[0, t]) / cfg._ln_base
        else:
            loss_fn = lambda z, t: float(batch.per_record(z[None, :], [t])[0][0])
        numeric = finite_difference_grad(loss_fn, logits, label, h=h)
        worst = max(worst, relative_gradient_error(grads[0], numeric))
    return GradCheckResult(loss=batch.name, trials=trials, max_rel_error=worst, threshold=threshold)
