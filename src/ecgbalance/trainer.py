"""A small deterministic MLP classifier with manual backpropagation.

The network is a plain affine chain (input -> 64 -> 32 -> M by default)
with rectifier nonlinearities, trained by Adam on one of the losses from
:mod:`ecgbalance.losses`. Everything is seeded: parameter init, epoch
shuffling, and batch order are pure functions of the config, so two runs
with the same inputs produce bit-identical parameter trajectories.

Records enter the network flattened, as their
:class:`~ecgbalance.equalizer.EncoderSpec` gives them (the CME image, the
image without CME, or the raw window), so a trained model carries
everything needed to featurize new records at evaluation time. Every
record, for training, evaluation, the experiment or ``encode``'s image
files, is featurized by :func:`featurize_blocks`, one block at a time.

Training runs on a stack: models that differ only in their loss share the
feature matrix, the initial weights and the batch order, so their
parameters carry a leading variant axis and each layer of a step is one
``np.matmul`` over all of them. :func:`train` is a stack of one.

Training holds three parameter-sized arrays: ``theta`` and Adam's two
moments. The first layer's weight gradient, nearly all of a raw model's
gradient, is never held whole: :func:`adam_step` forms it one block of
input rows at a time from the batch and the first layer's delta, and steps
each block as soon as it exists. No batch is copied either:
:func:`train_stack` rearranges the feature matrix's rows in place each
epoch, so that every batch is a slice of it, and restores their order
before it returns, also on error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .data import (
    Dataset, _check_fields, _check_integer, _check_labels, _frozen, _is_integer, _is_number, read_input, write_output
)
from .equalizer import EncoderSpec, featurize_records
from .errors import ConfigError, DimensionError, EmptyDataset
from .losses import BatchLoss, LossConfig, make_loss

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MODEL_MAGIC = b"ECGBMDL1"


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
        if len(self.class_names) != self.num_classes:
            raise ConfigError(f"{len(self.class_names)} class names for {self.num_classes} outputs")


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
    loss: LossConfig = field(default_factory=LossConfig)
    encode: EncoderSpec = field(default_factory=EncoderSpec)
    hidden: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        # Counts are ints and learning_rate an int or float, never a bool: epochs=True would train one epoch, and
        # a float or string fails far from here. hidden is a sequence of ints, and the seed follows the seed rule.
        fits = {
            "epochs": _is_integer(self.epochs),
            "learning_rate": _is_number(self.learning_rate),
            "batch_size": _is_integer(self.batch_size),
            "loss": isinstance(self.loss, LossConfig),
            "encode": isinstance(self.encode, EncoderSpec),
            "hidden": isinstance(self.hidden, Sequence) and all(_is_integer(h) for h in self.hidden),
        }
        _check_fields(fits, ConfigError, "train")
        _check_integer(self.seed, ConfigError)
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
    stack: ModelParams, x2d: np.ndarray, labels: np.ndarray, losses: Sequence[BatchLoss], tail: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Differentiates variant k's batch-mean loss ``losses[k]`` and returns each variant's
    mean loss with the first layer's delta, shaped (variants, batch, first layer's outputs).
    Every gradient but the first layer's weights goes into ``tail[k]``, laid out like
    ``stack.theta[k, D*H:]``; :func:`_first_layer_grad` forms the rest from the delta.
    The batch mean of per-record losses is what gets differentiated, so batch gradients
    are exactly the mean of per-record gradients. Each product is one ``np.matmul`` over
    the variant axis, which computes every variant's 2-D product bit for bit."""
    acts, logits = _forward_batch(stack, x2d)
    values, deltas = zip(*(loss.mean(z, labels) for loss, z in zip(losses, logits, strict=True)))
    delta = np.stack(deltas)
    # The tail is laid out like the parameters of the same network with no inputs.
    for layer, (gw, gb) in reversed(list(enumerate(_layers((0, *stack.dims[1:]), tail)))):
        np.sum(delta, axis=-2, out=gb)
        if layer > 0:
            np.matmul(np.swapaxes(acts[layer], -1, -2), delta, out=gw)
            delta = delta @ np.swapaxes(stack.weights[layer], -1, -2)
            delta = np.where(acts[layer] > 0.0, delta, 0.0)
    return list(values), delta


def _first_layer_grad(x2d: np.ndarray, delta: np.ndarray, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Input rows ``rows`` of one variant's first-layer weight gradient, from the batch
    ``x2d`` and that variant's first-layer ``delta``."""
    return np.matmul(x2d[:, rows].T, delta, out=out)


# ---------------------------------------------------------------------------
# Adam


# Elements of theta stepped per block: a block of theta, both moments, the
# gradient, the numerator and the batch's input rows (1.5 MB) stay in a 2 MB L2
# across the step's 14 passes. 2^13 and 2^17 were slower on a 7-variant raw
# stack when the step ran over flat slices of the same size.
ADAM_SLICE = 1 << 15


def _row_blocks(dims: tuple[int, ...]) -> list[slice]:
    """The first layer's input rows, in the blocks whose weights step together: ADAM_SLICE
    elements' worth of rows, at least two. A last single row joins the block before it,
    because BLAS forms a one-row product as a matrix-vector product, which sums in another
    order than the whole layer's product does."""
    d_in, width = dims[:2]
    starts = list(range(0, d_in, max(2, ADAM_SLICE // width)))
    if len(starts) > 1 and d_in - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], d_in])]


@dataclass
class AdamState:
    """Step count, first/second moments shaped like ``stack.theta`` (full size), and two
    work vectors (block size): one block of the first layer's weight gradient, and the
    numerator of a step."""

    step: int
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    num: np.ndarray


def adam_init(stack: ModelParams) -> AdamState:
    """Zero moments, full size; zero work vectors, big enough for one block of the first
    layer's weights or for every variant's other parameters."""
    variants, size = stack.theta.shape
    first = stack.dims[0] * stack.dims[1]
    rows = max(block.stop - block.start for block in _row_blocks(stack.dims))
    work = max(rows * stack.dims[1], variants * (size - first))
    return AdamState(0, np.zeros_like(stack.theta), np.zeros_like(stack.theta), np.zeros(work), np.zeros(work))


def _adam_update(theta, m, v, g, num, c1: float, c2: float, lr: float) -> None:
    """Steps ``theta``, ``m`` and ``v`` in place for the gradient ``g``; ``num`` is work
    space, and ``g`` is overwritten."""
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, g, out=num), 1.0 - ADAM_BETA2, out=num)
    den = g  # g is spent once v is updated
    np.sqrt(np.divide(v, c2, out=den), out=den)
    den += ADAM_EPS
    np.multiply(np.divide(m, c1, out=num), lr, out=num)
    theta -= np.divide(num, den, out=num)


def adam_step(
    stack: ModelParams, state: AdamState, x2d: np.ndarray, delta: np.ndarray, tail: np.ndarray, lr: float
) -> None:
    """theta -= lr * (m / c1) / (sqrt(v / c2) + eps) after the moment updates, operation
    for operation, for the gradient :func:`_backward_batch` returned: the first layer's
    delta and the tail (which the step overwrites). Every operation is elementwise, so the
    first layer's weights step one block of input rows at a time, each block's gradient
    formed by :func:`_first_layer_grad` into the state's work vector just before its step,
    and the rest of every variant steps in one call. A step allocates nothing."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    d_in, width = stack.dims[:2]
    for rows in _row_blocks(stack.dims):
        block = slice(rows.start * width, rows.stop * width)
        g, num = state.grad[: block.stop - block.start], state.num[: block.stop - block.start]
        for k in range(len(delta)):
            _first_layer_grad(x2d, delta[k], rows, out=g.reshape(-1, width))
            _adam_update(stack.theta[k, block], state.m[k, block], state.v[k, block], g, num, c1, c2, lr)
    rest = slice(d_in * width, None)
    num = state.num[: tail.size].reshape(tail.shape)
    _adam_update(stack.theta[:, rest], state.m[:, rest], state.v[:, rest], tail, num, c1, c2, lr)


# ---------------------------------------------------------------------------
# Training and evaluation


def featurize_dataset(d: Dataset, encoder: EncoderSpec) -> np.ndarray:
    """The network input of every record, one row each."""
    if len(d) == 0:
        raise EmptyDataset("no records to featurize")
    return featurize_records(d.records, encoder).reshape(len(d), -1)


# Records built and featurized per block. At 12 leads x 1000 samples and a 166+832 window, 64 records held 9.03 MiB of
# temporaries beyond their output at 64 per block, 2.63 MiB at 16 (tracemalloc): 16 keeps each window stack and squares
# array under numpy's 4 MiB huge-page threshold, so training, not featurization, sets a criterion-7 seed's peak RSS.
BLOCK_RECORDS = 16


def featurize_blocks(build, positions: Sequence[int], encoders: dict):
    """Builds the records at ``positions`` as Datasets by ``build(positions)``, ``BLOCK_RECORDS`` at a time, and
    yields (start, block, key, rows) for the block from ``positions[start]`` on and each key of ``encoders``: its
    :func:`featurize_dataset` rows. The next block is built only then, so at most one block is alive at once."""
    for start in range(0, len(positions), BLOCK_RECORDS):
        block = build(positions[start : start + BLOCK_RECORDS])
        for key, encoder in encoders.items():
            yield start, block, key, featurize_dataset(block, encoder)


def featurize(build, positions: np.ndarray, encoders: dict) -> dict:
    """One feature matrix per key of ``encoders``, row r for the record at ``positions[r]``, filled from
    :func:`featurize_blocks`. An encoder gives every block rows of one width; no positions give (0, 0) matrices."""
    features = {key: np.empty((0, 0)) for key in encoders}
    for start, block, key, x in featurize_blocks(build, positions, encoders):
        if start == 0:
            features[key] = np.empty((positions.size, x.shape[1]))
        features[key][start : start + len(block)] = x
    return features


def _loss_label(cfg: LossConfig) -> str:
    return f"{cfg.kind} (beta {cfg.beta!r})" if cfg.kind == "iwl" else cfg.kind


def _arrange(x: np.ndarray, at: np.ndarray, want: np.ndarray) -> None:
    """Moves the rows of ``x`` in place from holding original row ``at[p]`` at each position p
    to holding ``want[p]``, and sets ``at`` to ``want``. Walks each cycle of the move with one
    row of work space."""
    where = np.empty_like(at)
    where[at] = np.arange(at.size)
    source = where[want].tolist()
    row = np.empty_like(x[0])
    for first in range(len(source)):
        if source[first] == first:
            continue
        row[...] = x[first]
        p = first
        while source[p] != first:
            x[p] = x[source[p]]
            source[p], p = p, source[p]  # position p is done; go on to its source
        x[p] = row
        source[p] = p
    at[...] = want


def train_stack(
    x: np.ndarray, labels: np.ndarray, cfgs: Sequence[TrainConfig], class_names: tuple[str, ...]
) -> list[tuple[ModelParams, list[float]]]:
    """Train one model per config on every row of the feature matrix ``x``, as one stack.

    ``labels[i]`` is the class index of ``x[i]`` in ``class_names``; labels
    that are not one integer per row inside that range are a DimensionError,
    raised before any work. The configs may differ only in their loss, so
    every variant starts from the same weights, drawn from the seed, and
    takes the same shuffled batches. Returns (model, per-epoch mean loss) per
    config, each bit for bit what a stack of that config alone returns. A
    non-finite batch loss, or a parameter left non-finite at the end of an
    epoch, stops training with a ConfigError naming the epoch, the batch
    (both counted from 0) and the loss.

    No batch is copied. Each epoch rearranges the rows of ``x`` in place, so
    that each batch is a slice of ``x``. Every row is back in its place
    before this returns or raises, but ``x`` must not be read by anything
    else while it trains. An ``x`` that is read-only or not C-contiguous
    trains the same way on a copy. To train on some rows of a matrix, or on
    repeated rows, pass ``x[rows]``.
    """
    if not cfgs:
        raise ConfigError("a stack needs at least one training config")
    cfg = cfgs[0]
    if any(dataclasses.replace(c, loss=cfg.loss) != cfg for c in cfgs):
        raise ConfigError("stacked training configs may differ only in their loss")
    n = len(x)
    if n == 0:
        raise ConfigError("training dataset is empty")
    labels = _check_labels(labels, len(class_names), n)
    # Guard against classes absent from this split; CB/LDAM need counts >= 1.
    counts = np.maximum(np.bincount(labels, minlength=len(class_names)), 1)
    losses = [make_loss(c.loss, class_counts=counts) for c in cfgs]
    rng = np.random.default_rng(cfg.seed)
    first = init_model(x.shape[1], len(class_names), cfg.encode, rng=rng, hidden=cfg.hidden, class_names=class_names)
    stack = ModelParams(first.dims, np.tile(first.theta, (len(cfgs), 1)), cfg.encode, first.class_names)
    del first  # the stack holds its only copy of the initial weights
    state = adam_init(stack)
    tail = np.empty((len(cfgs), stack.theta.shape[1] - stack.dims[0] * stack.dims[1]))
    if not (x.flags.writeable and x.flags.c_contiguous):
        x = x.copy()  # a C-contiguous copy that can be rearranged in place
    logs: list[list[float]] = [[] for _ in cfgs]
    at = np.arange(n)
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            _arrange(x, at, order)
            sums = [0.0] * len(cfgs)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = start // cfg.batch_size
                x2d = x[start : start + idx.size]
                # A diverging run is stopped by the checks below, not warned about.
                with np.errstate(over="ignore", invalid="ignore"):
                    values, delta = _backward_batch(stack, x2d, labels[idx], losses, tail)
                    for c, value in zip(cfgs, values):
                        if not math.isfinite(value):
                            raise ConfigError(
                                f"non-finite training loss at epoch {epoch}, batch {batch}, loss {_loss_label(c.loss)}"
                            )
                    adam_step(stack, state, x2d, delta, tail, cfg.learning_rate)
                for k, value in enumerate(values):
                    sums[k] += value * idx.size
            # Once per epoch: an overflow mid-epoch shows in the next batch's loss. min and max
            # carry any NaN or infinity through, and allocate no mask of theta's shape.
            finite = np.isfinite(stack.theta.min(axis=1)) & np.isfinite(stack.theta.max(axis=1))
            if not finite.all():
                raise ConfigError(
                    f"non-finite parameters after the Adam step at epoch {epoch}, batch {batch}, "
                    f"loss {_loss_label(cfgs[int(np.argmin(finite))].loss)}"
                )
            for log, total in zip(logs, sums):
                log.append(total / n)
    finally:
        _arrange(x, at, np.arange(n))
    return [(ModelParams(stack.dims, theta, cfg.encode, stack.class_names), log) for theta, log in zip(stack.theta, logs)]


def train(d_train: Dataset, cfg: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Train on the whole dataset; returns the model and per-epoch mean loss.

    Featurizes the dataset with :func:`featurize`, then runs
    :func:`train_stack` with one variant. Deterministic given (d_train,
    cfg): the seed drives parameter init and the per-epoch shuffle, batches
    are taken in shuffled order, and the loss reduction is order-exact.
    """
    x = featurize(d_train.take, np.arange(len(d_train)), {0: cfg.encode})[0]
    [fit] = train_stack(x, d_train.labels(), [cfg], d_train.class_names)
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
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype=None))


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
    """Predict each row of ``x`` by argmax and score it against ``labels``, checked as :func:`train_stack` does."""
    if x.shape[1] != m.input_dim:
        raise DimensionError(f"model takes {m.input_dim} input features, the dataset gives {x.shape[1]}")
    k = m.num_classes
    labels = _check_labels(labels, k, len(x))
    _, logits = _forward_batch(m, x)
    preds = np.argmax(logits, axis=1)
    cm = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    return metrics_from_confusion(cm)


def evaluate(m: ModelParams, d_test: Dataset) -> Metrics:
    """Featurize with the model's encoder by :func:`featurize`, then :func:`score`."""
    if d_test.class_names != m.class_names:
        raise DimensionError(f"model classes {list(m.class_names)} are not the dataset's {list(d_test.class_names)}")
    if len(d_test) == 0:
        raise EmptyDataset("no records to evaluate")
    return score(m, featurize(d_test.take, np.arange(len(d_test)), {0: m.encoder})[0], d_test.labels())


# ---------------------------------------------------------------------------
# Model persistence: a flat deterministic binary container


def save_model(m: ModelParams, path) -> None:
    """Magic, JSON header (sizes, encoder, classes), then ``m.theta`` as
    little-endian float64. Byte-deterministic."""
    m.validate()
    header = {"layer_dims": list(m.dims), "encoder": asdict(m.encoder), "class_names": list(m.class_names)}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_output(path, _MODEL_MAGIC, struct.pack("<Q", len(blob)), blob, m.theta.astype("<f8", copy=False))


def load_model(path) -> ModelParams:
    """Read a file written by save_model; any damage raises ConfigError."""
    raw = read_input(path, lambda reason: ConfigError(f"model file {path}: {reason}"))
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
            raise ConfigError(f"model encoder fields {sorted(enc)} are not {sorted(names)}")
        # And their JSON types, which EncoderSpec checks.
        encoder = EncoderSpec(**enc)
        class_names = tuple(header["class_names"])
        theta = np.frombuffer(raw, dtype="<f8", offset=offset + hlen).astype(np.float64)
        model = ModelParams(dims, theta, encoder, class_names)
        model.validate()
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed model file ({exc!r})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return model
