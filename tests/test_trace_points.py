"""The module globals and entry points that perfbench/tracing.py patches or calls.

The tracer swaps a name only where the module has it, so a rename or a
call that bypasses the module global would silently zero a per-layer
metric (``equalizer.featurize_s`` among them). These tests fail instead.
"""

from conftest import tiny_dataset

from ecgbalance import (
    EncoderSpec,
    IwlConfig,
    TrainConfig,
    cme_factors,
    encode_image,
    evaluate,
    experiment,
    train,
    trainer,
    window_record,
)

# (module, name) pairs the tracer wraps to compute the benchmark's per-layer metrics.
TRACED = [
    (experiment, name)
    for name in ("generate_synthetic", "split", "longtail_counts", "resample", "train", "evaluate", "run_cell")
] + [(trainer, name) for name in ("train", "evaluate", "featurize_dataset", "adam_step", "make_loss")]

ENCODERS = [
    EncoderSpec(kind="cme", height=4, width=10, skip=5, take=50),
    EncoderSpec(kind="raw", raw_take=55),
]


def test_traced_names_exist():
    missing = [f"{module.__name__}.{name}" for module, name in TRACED if not callable(getattr(module, name, None))]
    assert not missing


def test_train_and_evaluate_featurize_through_the_module_global(monkeypatch):
    original = trainer.featurize_dataset
    calls = []

    def counted(*args, **kwargs):
        # The tracer counts records as len(args[0]).
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "featurize_dataset", counted)
    d = tiny_dataset()
    for enc in ENCODERS:
        calls.clear()
        cfg = TrainConfig(epochs=1, batch_size=8, loss=IwlConfig(beta=0.3), encode=enc, hidden=(4,))
        model, _ = train(d, cfg)
        assert calls == [len(d)]
        evaluate(model, d)
        assert calls == [len(d), len(d)]


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
