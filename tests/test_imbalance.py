import numpy as np
import pytest

from ecgbalance import Dataset, longtail_counts, resample, resample_positions, write_csv_dataset
from ecgbalance.imbalance import write_histogram_csv
from ecgbalance.errors import DimensionError, EmptyDataset, SpecError

from conftest import tiny_dataset


def test_longtail_targets_alpha_005():
    assert longtail_counts([640] * 9, 0.05).tolist() == [640, 440, 302, 208, 143, 98, 67, 46, 32]


def test_longtail_targets_alpha_001():
    assert longtail_counts([640] * 9, 0.01).tolist() == [640, 359, 202, 113, 64, 35, 20, 11, 6]


def test_longtail_alpha_one_keeps_counts():
    counts = [50, 40, 30]
    assert longtail_counts(counts, 1.0).tolist() == counts


def test_longtail_floor_never_drops_below_one():
    targets = longtail_counts([640] * 9, 1e-6)
    assert targets[0] == 640
    assert targets.min() == 1
    # The decay is steep enough that everything past the head floors out.
    assert targets[-1] == 1


def test_longtail_ranks_by_descending_count():
    # Class order in the input must not matter for which class keeps most.
    targets = longtail_counts([10, 640, 80], 0.1)
    assert targets[1] == 640
    assert targets[2] == 80 or targets[2] == int(640 * 0.1**0.5)
    # The smallest input class is the tail rank.
    assert targets[0] == min(10, max(1, int(640 * 0.1)))


def test_longtail_targets_clamped_to_available():
    targets = longtail_counts([640, 3, 300], 0.5)
    # Rank order: 640, 300, 3; the class with 3 records cannot grow.
    assert targets[0] == 640
    assert targets[1] <= 3
    assert targets[2] <= 300


def test_longtail_tie_break_is_stable():
    a = longtail_counts([100, 100, 100], 0.25)
    # Stable ranking: earlier classes take earlier (larger) ranks.
    assert a.tolist() == [100, 50, 25]


def test_longtail_input_validation():
    with pytest.raises(SpecError):
        longtail_counts([10, 10], 0.0)
    with pytest.raises(SpecError):
        longtail_counts([10, 10], 1.5)
    with pytest.raises(DimensionError):
        longtail_counts([10], 0.5)
    with pytest.raises(SpecError):
        longtail_counts([10, -1], 0.5)
    with pytest.raises(EmptyDataset):
        longtail_counts([0, 0], 0.5)


def test_longtail_counts_returns_an_int64_vector():
    targets = longtail_counts([64, 32, 16], 0.5)
    assert targets.dtype == np.int64 and targets.shape == (3,)


def test_resample_positions_validates_targets():
    labels = [0, 1, 1, 0]
    with pytest.raises(SpecError):
        resample_positions(labels, [3, -1], seed=0)
    with pytest.raises(DimensionError):
        resample_positions(labels, [[1, 1], [1, 1]], seed=0)
    with pytest.raises(DimensionError):
        resample_positions(labels, [3], seed=0)


@pytest.mark.parametrize("seed", [1.5, None, True, "1", -1])
def test_resample_positions_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(SpecError, match="resample seed"):
        resample_positions([0, 1, 1, 0], [1, 1], seed=seed)


def test_resample_hits_targets_exactly():
    d = tiny_dataset(n_classes=3, per_class=8, length=20, noise_sd=0.1)
    targets = longtail_counts(d.class_counts(), 0.25)
    out = resample(d, targets, seed=0)
    assert out.class_counts().tolist() == targets.tolist()


def test_resample_draws_without_replacement():
    d = tiny_dataset(n_classes=3, per_class=8, length=20, noise_sd=0.1)
    out = resample(d, longtail_counts(d.class_counts(), 0.5), seed=3)
    ids = [r.record_id for r in out]
    assert len(ids) == len(set(ids))
    source = {r.record_id for r in d}
    assert set(ids) <= source


def test_resample_is_seed_deterministic():
    d = tiny_dataset(n_classes=3, per_class=8, length=20, noise_sd=0.1)
    targets = longtail_counts(d.class_counts(), 0.3)
    a = resample(d, targets, seed=7)
    b = resample(d, targets, seed=7)
    assert [r.record_id for r in a] == [r.record_id for r in b]
    c = resample(d, targets, seed=8)
    assert [r.record_id for r in c] != [r.record_id for r in a]


def test_resample_identity_targets_is_permutation():
    d = tiny_dataset(n_classes=2, per_class=6, length=20, noise_sd=0.1)
    out = resample(d, longtail_counts(d.class_counts(), 1.0), seed=1)
    assert sorted(r.record_id for r in out) == sorted(r.record_id for r in d)


def test_resample_rejects_oversized_targets():
    d = tiny_dataset(n_classes=2, per_class=4, length=20)
    with pytest.raises(SpecError):
        resample(d, [5, 4], seed=0)


def test_resample_rejects_target_vector_of_wrong_length():
    d = tiny_dataset(n_classes=3, per_class=4, length=20)
    for targets in ([4, 4], [4, 4, 4, 4], 4):
        with pytest.raises(DimensionError):
            resample(d, targets, seed=0)


def frozen_resample(d, targets, seed):
    """``resample`` as it was before it delegated to ``resample_positions``."""
    labels = d.labels()
    rng = np.random.default_rng(seed)
    chosen = []
    for m in range(d.num_classes):
        idx = np.flatnonzero(labels == m)
        picked = rng.choice(idx, size=int(targets[m]), replace=False)
        chosen.extend(int(i) for i in picked)
    order = rng.permutation(len(chosen))
    return Dataset(records=tuple(d.records[chosen[i]] for i in order), class_names=d.class_names)


def test_resample_matches_the_frozen_implementation(tmp_path):
    d = tiny_dataset(n_classes=4, per_class=9, length=20, noise_sd=0.1)
    for alpha, seed in [(1.0, 0), (0.5, 3), (0.1, 7), (0.01, 1009)]:
        targets = longtail_counts(d.class_counts(), alpha)
        new, old = resample(d, targets, seed), frozen_resample(d, targets, seed)
        assert [r.record_id for r in new] == [r.record_id for r in old]
        write_csv_dataset(new, tmp_path / "new")
        write_csv_dataset(old, tmp_path / "old")
        for f in sorted((tmp_path / "old").iterdir()):
            assert (tmp_path / "new" / f.name).read_bytes() == f.read_bytes()


def test_resample_positions_index_the_resampled_records():
    d = tiny_dataset(n_classes=3, per_class=8, length=20, noise_sd=0.1)
    targets = longtail_counts(d.class_counts(), 0.25)
    positions = resample_positions(d.labels(), targets, seed=4)
    out = resample(d, targets, seed=4)
    assert len(positions) == len(out)
    assert all(d.records[i] is r for i, r in zip(positions, out))
    with pytest.raises(DimensionError):
        resample_positions(d.labels(), [8, 8], seed=4)


def test_histogram_csv(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(("a", "b"), [10, 8], [10, 4], path)
    assert path.read_text() == "class,before,after\na,10,10\nb,8,4\n"
    with pytest.raises(DimensionError):
        write_histogram_csv(("a",), [10, 8], [10, 4], path)
