"""The module globals and entry points that perfbench/tracing.py patches or calls.

The tracer swaps a name only where the module has it, so a rename or a
call that bypasses the module global would silently zero a per-layer
metric (``equalizer.featurize_s`` among them). These tests fail instead.
"""

import dataclasses
import math
from pathlib import Path

from conftest import tiny_dataset

from ecgbalance import (
    EncoderSpec,
    LossConfig,
    SplitSpec,
    TrainConfig,
    cli,
    cme_factors,
    encode_image,
    evaluate,
    experiment,
    featurize_records,
    generate_synthetic,
    longtail_counts,
    parse_experiment_spec,
    resample,
    split,
    train,
    trainer,
    window_record,
)
from ecgbalance.data import window_records

# (module, name) pairs the tracer wraps to compute the benchmark's per-layer metrics.
TRACED = (
    [(experiment, name) for name in ("generate_synthetic", "longtail_counts")]
    + [(cli, "resample")]
    + [(trainer, name) for name in ("train", "evaluate", "featurize_dataset", "adam_step", "make_loss")]
)

ENCODERS = [
    EncoderSpec(kind="cme", height=4, width=10, skip=5, take=50),
    EncoderSpec(kind="raw", raw_take=55),
]


def test_traced_names_exist():
    missing = [f"{module.__name__}.{name}" for module, name in TRACED if not callable(getattr(module, name, None))]
    assert not missing


def test_train_and_evaluate_featurize_through_the_module_global(monkeypatch):
    calls, matrices = [], []

    def spy(name, record):
        original = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, name, wrapper)

    # The tracer counts records as len(args[0]), so each block must be a sized Dataset.
    spy("featurize_dataset", lambda args: calls.append(len(args[0])))
    spy("train_stack", lambda args: matrices.append(args[0].copy()))
    spy("score", lambda args: matrices.append(args[1].copy()))
    d = tiny_dataset(per_class=11)
    block = trainer.BLOCK_RECORDS
    assert len(d) > 2 * block and len(d) % block
    for enc in ENCODERS:
        if enc.kind == "cme":
            whole = featurize_records(d.records, enc.height, enc.width, enc.skip, enc.take, enc.magnitude_mode)
        else:
            whole = window_records(d.records, 0, enc.raw_take)
        calls.clear()
        matrices.clear()
        cfg = TrainConfig(epochs=1, batch_size=8, loss=LossConfig(beta=0.3), encode=enc, hidden=(4,))
        model, _ = train(d, cfg)
        evaluate(model, d)
        # Blocks of BLOCK_RECORDS records in order, the last one shorter, once for train and once for
        # evaluate, whose rows are bit for bit those of one call on every record.
        assert calls == [min(block, len(d) - start) for start in range(0, len(d), block)] * 2
        assert len(matrices) == 2
        for x in matrices:
            assert x.tobytes() == whole.reshape(len(d), -1).tobytes()


def test_per_call_entry_points_take_dataset_records():
    # The tracer's micro timings: window the first records, then time
    # cme_factors and encode_image on each window.
    d = tiny_dataset(n_channels=2, length=60)
    for enc in ENCODERS:
        if enc.kind == "cme":
            windows = [window_record(r, enc.skip, enc.take) for r in d.records[:5]]
        else:
            windows = [window_record(r, 0, enc.raw_take or r.length) for r in d.records[:5]]
        for w in windows:
            assert cme_factors(w, mode=enc.magnitude_mode).shape == (2,)
            assert encode_image(w, enc.height, enc.width).shape == (enc.height, enc.width)


TRACED_SPEC = """\
loss = iwl, ce
alpha = none, 0.5
encode = cme, raw
seeds = 4
epochs = 2
batch_size = 8
hidden = 8
train_fraction = 0.75
image.height = 4
image.width = 20
window.skip = 0
window.take = 80
raw.take = 80
data.classes = 3
data.head_count = 12
data.channels = 2
data.length = 80
"""


def test_a_traced_replay_writes_the_untraced_results_and_counts_every_step(tmp_path, monkeypatch):
    # perfbench/run.py judges a traced run by this: the replay through the wrapped module globals
    # writes the same bytes as a plain one, and its spans and counts describe the run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    (tmp_path / "spec.txt").write_text(TRACED_SPEC)
    command = ["experiment", "--spec", "spec.txt", "--out", "results.csv", "--jobs", "2"]
    outputs = []
    for tracer in (None, tracing.Tracer(run_id="test")):
        codes, _ = tracing.replay([command], tmp_path, tracer)
        assert codes == [0]
        outputs.append((tmp_path / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]

    spec = parse_experiment_spec(tmp_path / "spec.txt")
    [seed] = spec.seeds
    full = generate_synthetic(dataclasses.replace(spec.synth, seed=seed))
    kept = [full if a is None else resample(full, longtail_counts(full.class_counts(), a), seed) for a in spec.alphas]
    trained = [len(split(d, SplitSpec(train_fraction=spec.train_fraction, seed=seed))[0]) for d in kept]
    steps = len(spec.encodes) * sum(spec.train.epochs * math.ceil(n / spec.train.batch_size) for n in trained)
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0, 1.0)
    assert metrics["trainer.steps"][0] == steps > 0
    # Each encode featurizes every record each alpha keeps, once.
    assert metrics["equalizer.featurize_records"][0] == len(spec.encodes) * sum(len(d) for d in kept) > 0
    tracing.micro(tracer)
