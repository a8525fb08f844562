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
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

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
    """Affine layer stack plus the encoder that feeds it."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    encoder: EncoderSpec
    class_names: tuple[str, ...] = ()

    @property
    def params(self) -> list[np.ndarray]:
        """Every parameter array: the weights, then the biases, in layer order."""
        return [*self.weights, *self.biases]

    @property
    def num_classes(self) -> int:
        return self.biases[-1].size

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def validate(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("weights and biases must be matched, nonempty lists")
        prev = self.weights[0].shape[0]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape != (prev, b.size):
                raise ConfigError(f"layer shapes do not chain: {w.shape} then bias {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigError("parameters must be finite")
            prev = b.size


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
    """He-initialized weights drawn from ``rng``, zero biases."""
    if input_dim < 1 or num_classes < 2:
        raise ConfigError("need a positive input dimension and at least two classes")
    dims = (input_dim, *hidden, num_classes)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    model = ModelParams(weights=weights, biases=biases, encoder=encoder, class_names=tuple(class_names))
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Forward and backward passes


def _forward_batch(m: ModelParams, x2d: np.ndarray):
    """Returns (post-activation list including the input, logits)."""
    acts = [x2d]
    a = x2d
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    logits = a @ m.weights[-1] + m.biases[-1]
    return acts, logits


def _backward_batch(m: ModelParams, x2d: np.ndarray, labels: np.ndarray, loss: BatchLoss):
    """Gradients of the batch-mean loss for every parameter.

    Returns (grads, mean loss value), with grads in ``m.params`` order. The
    batch mean of per-record losses is what gets differentiated, so batch
    gradients are exactly the mean of per-record gradients.
    """
    acts, logits = _forward_batch(m, x2d)
    mean_value, dlogits = loss.mean(logits, labels)
    depth = len(m.weights)
    # Allocated although each entry is replaced below: without these, glibc
    # returned and re-faulted the freed pages every step, and backward and
    # Adam on the raw cell ran about 25% slower (2-core host).
    grads = [np.empty_like(p) for p in m.params]
    delta = dlogits
    for layer in range(depth - 1, -1, -1):
        grads[layer] = acts[layer].T @ delta
        grads[depth + layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ m.weights[layer].T
            delta = np.where(acts[layer] > 0.0, delta, 0.0)
    return grads, mean_value


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Step count and first/second moments, one array per ``model.params`` entry."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def adam_init(model: ModelParams) -> AdamState:
    params = model.params
    return AdamState(step=0, m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(model: ModelParams, state: AdamState, grads: list[np.ndarray], lr: float) -> None:
    """One bias-corrected first/second-moment update, in place; ``grads`` in ``model.params`` order."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    for p, g, mom, vel in zip(model.params, grads, state.m, state.v):
        mom *= ADAM_BETA1
        mom += (1.0 - ADAM_BETA1) * g
        vel *= ADAM_BETA2
        vel += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (mom / c1) / (np.sqrt(vel / c2) + ADAM_EPS)


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


def train(d_train: Dataset, cfg: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Train on the whole dataset; returns the model and per-epoch mean loss.

    Deterministic given (d_train, cfg): the seed drives parameter init and
    the per-epoch shuffle, batches are taken in shuffled order, and the
    loss reduction is order-exact. A non-finite batch loss, or a parameter
    left non-finite at the end of an epoch, stops training with a
    ConfigError naming the epoch and batch, both counted from 0.
    """
    if len(d_train) == 0:
        raise ConfigError("training dataset is empty")
    x = featurize_dataset(d_train, cfg.encode)
    labels = d_train.labels()
    # Guard against classes absent from this split; CB/LDAM need counts >= 1.
    counts = np.maximum(d_train.class_counts(), 1)
    loss = make_loss(cfg.loss, class_counts=counts)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(
        input_dim=x.shape[1],
        num_classes=d_train.num_classes,
        encoder=cfg.encode,
        rng=rng,
        hidden=cfg.hidden,
        class_names=d_train.class_names,
    )
    state = adam_init(model)
    n = x.shape[0]
    log: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = start // cfg.batch_size
            # A diverging run is stopped by the checks below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                grads, value = _backward_batch(model, x[idx], labels[idx], loss)
                if not math.isfinite(value):
                    raise ConfigError(f"non-finite training loss at epoch {epoch}, batch {batch}")
                adam_step(model, state, grads, cfg.learning_rate)
            epoch_sum += value * idx.size
        # Once per epoch: an overflow mid-epoch shows in the next batch's loss.
        if not all(np.isfinite(p).all() for p in model.params):
            raise ConfigError(f"non-finite parameters after the Adam step at epoch {epoch}, batch {batch}")
        log.append(epoch_sum / n)
    return model, log


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


def evaluate(m: ModelParams, d_test: Dataset) -> Metrics:
    """Featurize with the model's encoder, predict by argmax, score."""
    if len(d_test) == 0:
        raise EmptyDataset("evaluation dataset is empty")
    if d_test.num_classes != m.num_classes:
        raise DimensionError(f"model has {m.num_classes} classes, dataset {d_test.num_classes}")
    x = featurize_dataset(d_test, m.encoder)
    if x.shape[1] != m.input_dim:
        raise DimensionError(f"model takes {m.input_dim} input features, the dataset gives {x.shape[1]}")
    labels = d_test.labels()
    _, logits = _forward_batch(m, x)
    preds = np.argmax(logits, axis=1)
    k = m.num_classes
    cm = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    return metrics_from_confusion(cm)


# ---------------------------------------------------------------------------
# Model persistence: a flat deterministic binary container


def save_model(m: ModelParams, path) -> None:
    """Magic, JSON header (sizes, encoder, classes), then the parameter
    arrays as little-endian float64 in layer order. Byte-deterministic."""
    m.validate()
    header = {
        "layer_dims": [int(m.weights[0].shape[0])] + [int(b.size) for b in m.biases],
        "encoder": asdict(m.encoder),
        "class_names": list(m.class_names),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for w, b in zip(m.weights, m.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


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
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed model header ({exc!r})") from exc
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"{path}: layer dimensions {dims} do not describe a network")
    offset += hlen
    expected = 8 * sum(d_in * d_out + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))
    if len(raw) - offset != expected:
        raise ConfigError(f"{path}: expected {expected} parameter bytes, found {len(raw) - offset}")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        n = d_in * d_out * 8
        weights.append(np.frombuffer(raw[offset : offset + n], dtype="<f8").reshape(d_in, d_out).copy())
        offset += n
        biases.append(np.frombuffer(raw[offset : offset + d_out * 8], dtype="<f8").copy())
        offset += d_out * 8
    model = ModelParams(weights=weights, biases=biases, encoder=encoder, class_names=class_names)
    model.validate()
    return model
