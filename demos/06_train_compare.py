"""Train the same small network under cross-entropy and under IWL at two
betas, on a long-tailed dataset, and compare held-out macro F1.

At beta = 0 IWL is exactly cross-entropy; the reweighting's bite grows
with beta. Everything is seeded, so rerunning reproduces these numbers.
"""

import statistics
from dataclasses import replace

from ecgbalance import (
    EncoderSpec,
    LossConfig,
    SplitSpec,
    SynthSpec,
    TrainConfig,
    evaluate,
    generate_synthetic,
    longtail_counts,
    resample,
    split,
    train,
)

SEEDS = (0, 1, 2, 3, 4)

spec = SynthSpec(
    length=240,
    per_class_counts=(24,) * 9,
    channel_gain=(1.0, 0.05),
    noise_sd=0.4,
    seed=0,
)
encoder = EncoderSpec(kind="cme", height=4, width=60, skip=40, take=200)


def run(loss_cfg, seed):
    d = generate_synthetic(replace(spec, seed=seed))
    d = resample(d, longtail_counts(d.class_counts(), 0.05), seed)
    d_train, d_test = split(d, SplitSpec(train_fraction=0.9, seed=seed))
    cfg = TrainConfig(
        epochs=6,
        learning_rate=0.01,
        batch_size=16,
        seed=seed,
        loss=loss_cfg,
        encode=encoder,
        hidden=(16, 8),
    )
    model, _ = train(d_train, cfg)
    return evaluate(model, d_test)


print(f"9 classes, head 24 records, tail ratio 0.05, {len(SEEDS)} seeds\n")
for name, cfg in (
    ("cross-entropy", LossConfig(kind="cross_entropy")),
    ("iwl beta=0.3 ", LossConfig(kind="iwl", beta=0.3)),
    ("iwl beta=5   ", LossConfig(kind="iwl", beta=5.0)),
):
    f1s = [run(cfg, seed).macro_f1 for seed in SEEDS]
    print(f"{name}  macro F1 {[round(v, 3) for v in f1s]}  "
          f"median {statistics.median(f1s):.3f}  mean {statistics.mean(f1s):.3f}")

print("\nSmall beta barely changes the optimum at this scale; large beta "
      "upweights the hard tail samples enough to move the median. Demo 07 "
      "sweeps beta properly.")
