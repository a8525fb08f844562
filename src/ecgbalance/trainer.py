"""A small deterministic MLP classifier with manual backpropagation.

The network is a plain affine chain (input -> 64 -> 32 -> M by default)
with rectifier nonlinearities, trained by Adam on one of the losses from
:mod:`ecgbalance.losses`. Everything is seeded: parameter init, epoch
shuffling, and batch order are pure functions of the config, so two runs
with the same inputs produce bit-identical parameter trajectories.

Records enter the network through an :class:`EncoderSpec`, either the CME
image (window, equalize, encode, flatten) or the flattened raw window, so
a trained model carries everything needed to featurize new records at
evaluation time.

Training runs on a stack: models that differ only in their loss share the
feature matrix, the initial weights and the batch order, so their
parameters carry a leading variant axis and each layer of a step is one
``np.matmul`` over all of them. :func:`train` is a stack of one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, window_records
from .equalizer import CANONICAL_SKIP, CANONICAL_TAKE, featurize_records
from .errors import ConfigError, DimensionError, EmptyDataset
from .losses import BatchLoss, IwlConfig, LossConfig, make_loss

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ENCODE_KINDS = ("cme", "raw")

_MODEL_MAGIC = b"ECGBMDL1"


@dataclass(frozen=True)
class EncoderSpec:
    """How a record becomes the network's input vector.

    kind "cme": window (skip, take), equalize channel magnitudes, encode to
    a (height, width) image, flatten. kind "raw": window (0, raw_take) and
    flatten; raw_take None means the whole record, so every record must
    then have one length.
    """

    kind: str = "cme"
    height: int = 128
    width: int = 128
    skip: int = CANONICAL_SKIP
    take: int = CANONICAL_TAKE
    raw_take: Optional[int] = 3000
    magnitude_mode: str = "rms"

    def __post_init__(self):
        if self.kind not in ENCODE_KINDS:
            raise ConfigError(f"unknown encode kind {self.kind!r}; expected one of {ENCODE_KINDS}")


@dataclass
class ModelParams:
    """Affine layer stack plus the encoder that feeds it.

    ``dims`` is (input, *hidden, classes). ``theta`` holds every parameter in
    one float64 vector, in model-file order: each layer's weights row-major,
    then its bias. ``weights`` and ``biases`` are views into ``theta``. In
    training, ``theta`` is a (variants, parameters) stack and every view
    keeps that leading axis.
    """

    dims: tuple[int, ...]
    theta: np.ndarray
    encoder: EncoderSpec
    class_names: tuple[str, ...] = ()
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ConfigError(f"layer dimensions {list(self.dims)} do not describe a network")
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        self.weights, self.biases = (list(views) for views in zip(*_layers(self.dims, self.theta)))

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    def validate(self) -> None:
        if not np.isfinite(self.theta).all():
            raise ConfigError("parameters must be finite")


def _param_count(dims: tuple[int, ...]) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _layers(dims: tuple[int, ...], flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, bias) as views of ``flat``, laid out like ``ModelParams.theta``
    along its last axis; a leading variant axis stays on every view."""
    if flat.ndim not in (1, 2) or flat.shape[-1] != _param_count(dims):
        raise ConfigError(f"layer dimensions {list(dims)} take {_param_count(dims)} parameters, not {flat.shape}")
    lead = flat.shape[:-1]
    views, at = [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        end = at + d_in * d_out
        views.append((flat[..., at:end].reshape(*lead, d_in, d_out), flat[..., end : end + d_out]))
        at = end + d_out
    return views


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 0.001
    batch_size: int = 64
    seed: int = 0
    loss: LossConfig = field(default_factory=IwlConfig)
    encode: EncoderSpec = field(default_factory=EncoderSpec)
    hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be nonnegative and batch_size positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        hidden = tuple(int(h) for h in self.hidden)
        if any(h < 1 for h in hidden):
            raise ConfigError(f"hidden layer sizes must be positive, got {hidden}")
        object.__setattr__(self, "hidden", hidden)


def init_model(
    input_dim: int,
    num_classes: int,
    encoder: EncoderSpec,
    *,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = TrainConfig.hidden,
    class_names: tuple[str, ...] = (),
) -> ModelParams:
    """He-initialized weights drawn from ``rng`` layer by layer, zero biases."""
    if input_dim < 1 or num_classes < 2:
        raise ConfigError("need a positive input dimension and at least two classes")
    dims = (input_dim, *hidden, num_classes)
    model = ModelParams(dims, np.zeros(_param_count(dims)), encoder, tuple(class_names))
    for w in model.weights:
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
    return model


# ---------------------------------------------------------------------------
# Forward and backward passes


def _forward_batch(m: ModelParams, x2d: np.ndarray):
    """Returns (post-activation list including the input, logits). For a stack,
    every activation after the input and the logits lead with the variant axis."""
    acts = [x2d]
    a = x2d
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        a = np.maximum(a @ w + b[..., None, :], 0.0)
        acts.append(a)
    logits = a @ m.weights[-1] + m.biases[-1][..., None, :]
    return acts, logits


def _backward_batch(
    stack: ModelParams, x2d: np.ndarray, labels: np.ndarray, losses: Sequence[BatchLoss], grad: np.ndarray
) -> list[float]:
    """Writes the gradient of variant k's batch-mean loss ``losses[k]`` into ``grad[k]``,
    laid out like ``stack.theta``, and returns each variant's mean loss. The batch mean
    of per-record losses is what gets differentiated, so batch gradients are exactly the
    mean of per-record gradients. Each product is one ``np.matmul`` over the variant
    axis, which computes every variant's 2-D product bit for bit."""
    acts, logits = _forward_batch(stack, x2d)
    values, deltas = zip(*(loss.mean(z, labels) for loss, z in zip(losses, logits, strict=True)))
    delta = np.stack(deltas)
    for layer, (gw, gb) in reversed(list(enumerate(_layers(stack.dims, grad)))):
        np.matmul(np.swapaxes(acts[layer], -1, -2), delta, out=gw)
        np.sum(delta, axis=-2, out=gb)
        if layer > 0:
            delta = delta @ np.swapaxes(stack.weights[layer], -1, -2)
            delta = np.where(acts[layer] > 0.0, delta, 0.0)
    return list(values)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Step count, first/second moments and two work vectors, each shaped like ``model.theta``."""

    step: int
    m: np.ndarray
    v: np.ndarray
    num: np.ndarray
    den: np.ndarray


def adam_init(model: ModelParams) -> AdamState:
    return AdamState(0, *(np.zeros_like(model.theta) for _ in range(4)))


def adam_step(model: ModelParams, state: AdamState, grad: np.ndarray, lr: float) -> None:
    """theta -= lr * (m / c1) / (sqrt(v / c2) + eps) after the moment updates, operation
    for operation, in place through the state's work vectors: a step allocates nothing.
    Every operation is elementwise, so a stack steps each variant as it would alone."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    m, v, num, den = state.m, state.v, state.num, state.den
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, grad, out=num), 1.0 - ADAM_BETA2, out=num)
    np.sqrt(np.divide(v, c2, out=den), out=den)
    den += ADAM_EPS
    np.multiply(np.divide(m, c1, out=num), lr, out=num)
    model.theta -= np.divide(num, den, out=num)


# ---------------------------------------------------------------------------
# Training and evaluation


def featurize_dataset(d: Dataset, encoder: EncoderSpec) -> np.ndarray:
    """The network input of every record, one row each."""
    if len(d) == 0:
        raise EmptyDataset("no records to featurize")
    if encoder.kind == "cme":
        x = featurize_records(
            d.records, encoder.height, encoder.width, encoder.skip, encoder.take, encoder.magnitude_mode
        )
    else:
        lengths = {r.length for r in d.records}
        if encoder.raw_take is None and len(lengths) > 1:
            raise DimensionError(f"raw encoding of whole records needs one length, got {min(lengths)}-{max(lengths)}")
        x = window_records(d.records, 0, max(lengths) if encoder.raw_take is None else encoder.raw_take)
    return x.reshape(len(d), -1)


def _loss_label(cfg: LossConfig) -> str:
    return f"{cfg.kind} (beta {cfg.beta!r})" if isinstance(cfg, IwlConfig) else cfg.kind


def train_stack(
    x: np.ndarray, rows: np.ndarray, labels: np.ndarray, cfgs: Sequence[TrainConfig], class_names: tuple[str, ...]
) -> list[tuple[ModelParams, list[float]]]:
    """Train one model per config on rows ``rows`` of the feature matrix ``x``, as one stack.

    ``labels[i]`` is the label of ``x[rows[i]]``. The configs may differ only
    in their loss, so every variant starts from the same weights, drawn from
    the seed, and takes the same shuffled batches, gathered as
    ``x[rows[idx]]``. Returns (model, per-epoch mean loss) per config, each
    bit for bit what a stack of that config alone returns. A non-finite
    batch loss, or a parameter left non-finite at the end of an epoch,
    stops training with a ConfigError naming the epoch, the batch (both
    counted from 0) and the loss.
    """
    if not cfgs:
        raise ConfigError("a stack needs at least one training config")
    cfg = cfgs[0]
    if any(dataclasses.replace(c, loss=cfg.loss) != cfg for c in cfgs):
        raise ConfigError("stacked training configs may differ only in their loss")
    n = rows.size
    if n == 0:
        raise ConfigError("training dataset is empty")
    if labels.shape != rows.shape:
        raise DimensionError(f"got {labels.size} labels for {n} rows")
    # Guard against classes absent from this split; CB/LDAM need counts >= 1.
    counts = np.maximum(np.bincount(labels, minlength=len(class_names)), 1)
    losses = [make_loss(c.loss, class_counts=counts) for c in cfgs]
    rng = np.random.default_rng(cfg.seed)
    first = init_model(x.shape[1], len(class_names), cfg.encode, rng=rng, hidden=cfg.hidden, class_names=class_names)
    stack = ModelParams(first.dims, np.tile(first.theta, (len(cfgs), 1)), cfg.encode, first.class_names)
    state = adam_init(stack)
    grad = np.empty_like(stack.theta)
    logs: list[list[float]] = [[] for _ in cfgs]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = [0.0] * len(cfgs)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = start // cfg.batch_size
            # A diverging run is stopped by the checks below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                values = _backward_batch(stack, x[rows[idx]], labels[idx], losses, grad)
                for c, value in zip(cfgs, values):
                    if not math.isfinite(value):
                        raise ConfigError(
                            f"non-finite training loss at epoch {epoch}, batch {batch}, loss {_loss_label(c.loss)}"
                        )
                adam_step(stack, state, grad, cfg.learning_rate)
            for k, value in enumerate(values):
                sums[k] += value * idx.size
        # Once per epoch: an overflow mid-epoch shows in the next batch's loss.
        finite = np.isfinite(stack.theta).all(axis=1)
        if not finite.all():
            raise ConfigError(
                f"non-finite parameters after the Adam step at epoch {epoch}, batch {batch}, "
                f"loss {_loss_label(cfgs[int(np.argmin(finite))].loss)}"
            )
        for log, total in zip(logs, sums):
            log.append(total / n)
    return [(ModelParams(stack.dims, theta, cfg.encode, stack.class_names), log) for theta, log in zip(stack.theta, logs)]


def train(d_train: Dataset, cfg: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Train on the whole dataset; returns the model and per-epoch mean loss.

    Featurizes the dataset, then runs :func:`train_stack` with one variant.
    Deterministic given (d_train, cfg): the seed drives parameter init and
    the per-epoch shuffle, batches are taken in shuffled order, and the
    loss reduction is order-exact.
    """
    if len(d_train) == 0:
        raise ConfigError("training dataset is empty")
    x = featurize_dataset(d_train, cfg.encode)
    [fit] = train_stack(x, np.arange(len(d_train)), d_train.labels(), [cfg], d_train.class_names)
    return fit


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    confusion: np.ndarray

    def __post_init__(self):
        for name in ("per_class_precision", "per_class_recall", "per_class_f1", "confusion"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    """Accuracy, per-class precision/recall/F1, macro F1. 0/0 counts as 0."""
    cm = np.asarray(confusion, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise DimensionError(f"confusion matrix must be square, got shape {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise EmptyDataset("confusion matrix has no entries")
    diag = np.diag(cm).astype(np.float64)
    pred_sums = cm.sum(axis=0).astype(np.float64)
    true_sums = cm.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, pred_sums, out=np.zeros_like(diag), where=pred_sums > 0)
    recall = np.divide(diag, true_sums, out=np.zeros_like(diag), where=true_sums > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    return Metrics(
        accuracy=float(diag.sum() / total),
        macro_f1=float(f1.mean()),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        confusion=cm,
    )


def score(m: ModelParams, x: np.ndarray, labels: np.ndarray) -> Metrics:
    """Predict each row of the feature matrix ``x`` by argmax and score it against ``labels``."""
    if x.shape[1] != m.input_dim:
        raise DimensionError(f"model takes {m.input_dim} input features, the dataset gives {x.shape[1]}")
    _, logits = _forward_batch(m, x)
    preds = np.argmax(logits, axis=1)
    k = m.num_classes
    cm = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    return metrics_from_confusion(cm)


def evaluate(m: ModelParams, d_test: Dataset) -> Metrics:
    """Featurize with the model's encoder, then :func:`score`."""
    if len(d_test) == 0:
        raise EmptyDataset("evaluation dataset is empty")
    if d_test.num_classes != m.num_classes:
        raise DimensionError(f"model has {m.num_classes} classes, dataset {d_test.num_classes}")
    return score(m, featurize_dataset(d_test, m.encoder), d_test.labels())


# ---------------------------------------------------------------------------
# Model persistence: a flat deterministic binary container


def save_model(m: ModelParams, path) -> None:
    """Magic, JSON header (sizes, encoder, classes), then ``m.theta`` as
    little-endian float64. Byte-deterministic."""
    m.validate()
    header = {"layer_dims": list(m.dims), "encoder": asdict(m.encoder), "class_names": list(m.class_names)}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(m.theta.astype("<f8", copy=False).tobytes())


def load_model(path) -> ModelParams:
    """Read a file written by save_model; any damage raises ConfigError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc.strerror or exc}") from exc
    if not raw.startswith(_MODEL_MAGIC):
        raise ConfigError(f"{path} is not a model file")
    offset = len(_MODEL_MAGIC) + 8
    if len(raw) < offset:
        raise ConfigError(f"{path} is too short to hold a model header")
    (hlen,) = struct.unpack("<Q", raw[offset - 8 : offset])
    try:
        header = json.loads(raw[offset : offset + hlen].decode())
        dims = [int(d) for d in header["layer_dims"]]
        enc = header["encoder"]
        # Exact key set: EncoderSpec's defaults must not fill a damaged header.
        names = {f.name for f in fields(EncoderSpec)}
        if set(enc) != names:
            raise ConfigError(f"{path}: model encoder fields {sorted(enc)} are not {sorted(names)}")
        encoder = EncoderSpec(**enc)
        class_names = tuple(header["class_names"])
        theta = np.frombuffer(raw, dtype="<f8", offset=offset + hlen).astype(np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed model file ({exc!r})") from exc
    try:
        model = ModelParams(dims, theta, encoder, class_names)
        model.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return model
