"""Traced replay of a workload: spans around every call into a layer.

The replay runs in the benchmark process. It swaps the public functions
that one ecgbalance module imports from another for wrappers that record a
span (name, start, end, parent span, run id) and a few counts, runs the
workload's commands through ``ecgbalance.cli.main``, and restores the
originals. Nothing under ``src/`` changes. Spans stay in memory until the
pass ends.

Experiment commands are replayed with ``--jobs 1``: spans inside pool
workers would be lost. The pool itself is measured by
``experiment.pool_efficiency``: the traced serial cell times over ``jobs``
times the untraced command's wall time.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

# Records of the workload used for the per-call equalizer timings.
MICRO_RECORDS = 200


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.first_train = None  # (train dataset, encoder) of the first fit
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter(), math.nan,
                 self.run_id)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return traced


class _TracedLoss:
    """A BatchLoss whose ``mean`` is spanned; everything else passes through."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.mean = tracer.wrap("losses.mean", inner.mean)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _count_synth(t: Tracer, args, d):
    spec = args[0]
    t.counts["data.synth_records"] += len(d)
    t.counts["data.synth_bytes"] += len(d) * spec.n_channels * spec.length * 8


def _count_resample(t: Tracer, args, d):
    t.counts["imbalance.kept_records"] += len(d)


def _count_featurize(t: Tracer, args, x):
    t.counts["equalizer.featurize_records"] += len(args[0])


def _count_train(t: Tracer, args, result):
    d_train, cfg = args[0], args[1]
    model = result[0]
    dims = [(w.shape[0], w.shape[1]) for w in model.weights]
    n = len(d_train)
    macs = sum(a * b for a, b in dims)
    # forward, weight gradients, and input gradients for every layer but the first
    t.counts["trainer.flop"] += cfg.epochs * n * 2 * (3 * macs - dims[0][0] * dims[0][1])
    params = macs + sum(b for _, b in dims)
    # Adam reads parameter, gradient and both moments and writes three of them back
    t.counts["trainer.adam_bytes"] += cfg.epochs * math.ceil(n / cfg.batch_size) * 7 * 8 * params
    if t.first_train is None:
        t.first_train = (d_train, cfg.encode)


def _count_cell(t: Tracer, args, result):
    t.counts["experiment.cells"] += 1
    t.counts["experiment.fits"] += len(result)


def _count_csv_write(t: Tracer, args, result):
    t.counts["data.csv_write_bytes"] += _dir_bytes(args[1])


def _count_csv_read(t: Tracer, args, d):
    t.counts["data.csv_read_bytes"] += _dir_bytes(args[0])


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap the cross-layer entry points for traced wrappers, then restore them."""
    from ecgbalance import cli, experiment, trainer

    io_and_compute = {
        "generate_synthetic": ("data.generate_synthetic", _count_synth),
        "load_csv": ("data.load_csv", _count_csv_read),
        "write_csv_dataset": ("data.write_csv_dataset", _count_csv_write),
        "split": ("data.split", None),
        "longtail_counts": ("imbalance.longtail_counts", None),
        "resample": ("imbalance.resample", _count_resample),
        "channel_stats": ("equalizer.channel_stats", None),
        "cme_pipeline": ("equalizer.cme_pipeline", None),
        "write_image_csv": ("equalizer.write_image_csv", None),
        "write_image_raw": ("equalizer.write_image_raw", None),
        "gradient_check": ("losses.gradient_check", None),
        "train": ("trainer.train", _count_train),
        "evaluate": ("trainer.evaluate", None),
        "save_model": ("trainer.save_model", None),
        "load_model": ("trainer.load_model", None),
        "run_cell": ("experiment.run_cell", _count_cell),
        "featurize_dataset": ("trainer.featurize_dataset", _count_featurize),
        "adam_step": ("trainer.adam_step", None),
    }
    saved = []
    for module in (cli, experiment, trainer):
        for attr, (name, count) in io_and_compute.items():
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
    make_loss = trainer.make_loss
    saved.append((trainer, "make_loss", make_loss))
    trainer.make_loss = lambda *a, **kw: _TracedLoss(make_loss(*a, **kw), tracer)
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def serial(argv: list[str]) -> list[str]:
    """``argv`` with any ``--jobs`` value replaced by 1."""
    if "--jobs" not in argv:
        return argv
    i = argv.index("--jobs") + 1
    return [*argv[:i], "1", *argv[i + 1:]]


def replay(commands: list[list[str]], cwd: Path, tracer: Tracer | None = None) -> tuple[list[int], dict[str, str]]:
    """Run ``commands`` in-process with ``--jobs 1``, traced when a tracer is given.

    Returns the exit codes and each command's standard output.
    """
    from ecgbalance import cli

    codes, stdout = [], {}
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with instrument(tracer) if tracer else contextlib.nullcontext():
            for argv in commands:
                buf = io.StringIO()
                span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
                with span, contextlib.redirect_stdout(buf):
                    codes.append(cli.main(serial(argv)))
                stdout[argv[0]] = buf.getvalue()
    finally:
        os.chdir(here)
    return codes, stdout


def micro(tracer: Tracer) -> None:
    """Per-call timings of cme_factors and encode_image on the workload's windowed records."""
    from ecgbalance import cme_factors, encode_image, window_record

    if tracer.first_train is None:
        return
    d, enc = tracer.first_train
    if enc.kind == "cme":
        windows = [window_record(r, enc.skip, enc.take) for r in d.records[:MICRO_RECORDS]]
    else:
        windows = [window_record(r, 0, enc.raw_take or r.length) for r in d.records[:MICRO_RECORDS]]
    with tracer.span("micro"):
        for w in windows:
            with tracer.span("equalizer.cme_factors"):
                cme_factors(w, mode=enc.magnitude_mode)
        for w in windows:
            with tracer.span("equalizer.encode_image"):
                encode_image(w, enc.height, enc.width)


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur - child[s.id]
    return dict(out)


def layer_metrics(tracer: Tracer, jobs: int, experiment_wall_s: float, replay_wall_s: float,
                  traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``experiment_wall_s`` is the wall time of the workload's experiment
    command in its own process; ``replay_wall_s`` and ``traced_wall_s`` are
    the in-process replay of the same commands without and with tracing.
    """
    spans = tracer.spans
    c = tracer.counts
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum(s.dur for n in names for s in by_name[n])

    def median_us(name):
        durs = [s.dur for s in by_name[name]]
        return 1e6 * statistics.median(durs) if durs else 0.0

    train_ids = {s.id for s in by_name["trainer.train"]}
    featurize_in_train = sum(s.dur for s in by_name["trainer.featurize_dataset"] if s.parent in train_ids)
    steps = len(by_name["trainer.adam_step"])
    featurized = c["equalizer.featurize_records"]
    featurize_s = total("trainer.featurize_dataset")
    m = {
        "data.synth_s": (total("data.generate_synthetic"), "s"),
        "data.synth_mb": (c["data.synth_bytes"] / 1e6, "MB"),
        "data.split_s": (total("data.split"), "s"),
        "imbalance.resample_s": (total("imbalance.longtail_counts", "imbalance.resample"), "s"),
        "imbalance.kept_ratio": (c["imbalance.kept_records"] / max(c["data.synth_records"], 1), "ratio"),
        "equalizer.featurize_s": (featurize_s, "s"),
        "equalizer.featurize_records": (featurized, "count"),
        "equalizer.featurize_us_per_record": (1e6 * featurize_s / max(featurized, 1), "us"),
        "equalizer.cme_factors_us": (median_us("equalizer.cme_factors"), "us"),
        "equalizer.encode_image_us": (median_us("equalizer.encode_image"), "us"),
        "losses.mean_us": (median_us("losses.mean"), "us"),
        "losses.calls": (len(by_name["losses.mean"]), "count"),
        "trainer.train_s": (total("trainer.train"), "s"),
        "trainer.steps": (steps, "count"),
        "trainer.step_ms": (1e3 * (total("trainer.train") - featurize_in_train) / max(steps, 1), "ms"),
        "trainer.adam_ms": (median_us("trainer.adam_step") / 1e3, "ms"),
        "trainer.evaluate_s": (total("trainer.evaluate"), "s"),
        "trainer.gflop_per_step": (c["trainer.flop"] / 1e9 / max(steps, 1), "GFLOP"),
        "trainer.adam_mb_per_step": (c["trainer.adam_bytes"] / 1e6 / max(steps, 1), "MB"),
        "experiment.cells": (c["experiment.cells"], "count"),
        "experiment.fits": (c["experiment.fits"], "count"),
        "experiment.pool_efficiency": (total("experiment.run_cell") / (jobs * experiment_wall_s), "ratio"),
        "cli.experiment_s": (total("cli.experiment"), "s"),
        "trace.overhead_s": (traced_wall_s - replay_wall_s, "s"),
    }
    # Exercised only where the workload writes and reads files; None elsewhere.
    files = {
        "data.csv_write_s": (("data.write_csv_dataset",), "s"),
        "data.csv_read_s": (("data.load_csv",), "s"),
        "equalizer.image_write_s": (("equalizer.write_image_csv", "equalizer.write_image_raw"), "s"),
        "trainer.save_s": (("trainer.save_model",), "s"),
        "trainer.load_s": (("trainer.load_model",), "s"),
        **{f"cli.{cmd}_s": ((f"cli.{cmd}",), "s")
           for cmd in ("synth", "analyze", "resample", "encode", "gradcheck", "train", "eval")},
    }
    for metric, (names, unit) in files.items():
        m[metric] = (total(*names) if any(by_name[n] for n in names) else None, unit)
    m["data.csv_write_mb"] = (c["data.csv_write_bytes"] / 1e6 if by_name["data.write_csv_dataset"] else None, "MB")
    m["data.csv_read_mb"] = (c["data.csv_read_bytes"] / 1e6 if by_name["data.load_csv"] else None, "MB")
    return m
