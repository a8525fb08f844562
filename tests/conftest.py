import tracemalloc

import numpy as np
import pytest

from ecgbalance import Dataset, EcgRecord, SynthSpec, generate_synthetic


def make_record(channels, sample_rate=500.0, label=0, record_id="r0"):
    return EcgRecord(
        channels=np.asarray(channels, dtype=np.float64),
        sample_rate=sample_rate,
        label=label,
        record_id=record_id,
    )


def random_record(rng, n_channels=None, length=None, scale_spread=3.0):
    """A record with channel magnitudes spread over several decades."""
    c = n_channels if n_channels is not None else int(rng.integers(2, 9))
    n = length if length is not None else int(rng.integers(8, 64))
    scales = np.exp(rng.normal(0.0, scale_spread, size=c))
    x = rng.normal(0.0, 1.0, size=(c, n)) * scales[:, None]
    return make_record(x, record_id=f"rand-{c}x{n}")


def tiny_dataset(n_classes=3, per_class=4, n_channels=2, length=60, noise_sd=0.2, seed=0):
    return generate_synthetic(
        SynthSpec(
            length=length,
            per_class_counts=(per_class,) * n_classes,
            channel_gain=tuple(1.0 / (10.0**i) for i in range(n_channels)),
            noise_sd=noise_sd,
            seed=seed,
        )
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def dataset():
    return tiny_dataset()


def dataset_from_arrays(arrays, labels, class_names, sample_rate=500.0):
    records = tuple(
        EcgRecord(
            channels=np.asarray(a, dtype=np.float64),
            sample_rate=sample_rate,
            label=int(lbl),
            record_id=f"arr-{i:03d}",
        )
        for i, (a, lbl) in enumerate(zip(arrays, labels))
    )
    return Dataset(records=records, class_names=tuple(class_names))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
