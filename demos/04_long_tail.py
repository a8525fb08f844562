"""Carve exponential long-tail subsets out of a balanced dataset."""

import numpy as np

from ecgbalance import SynthSpec, generate_synthetic, longtail_counts, resample

spec = SynthSpec(
    length=120,
    per_class_counts=(640,) * 9,
    channel_gain=(1.0, 0.5),
    noise_sd=0.2,
    seed=0,
)
d = generate_synthetic(spec)
print(f"balanced source: {d.class_counts().tolist()}")

for alpha in (0.5, 0.1, 0.05, 0.01):
    out = resample(d, longtail_counts(d.class_counts(), alpha), seed=0)
    counts = np.bincount(out.labels(), minlength=9).tolist()
    print(f"alpha={alpha:<5}: {counts}  ({len(out.records)} records)")

print("\nEach class keeps floor(N_max * alpha^(m/(M-1))) records, never "
      "fewer than one. alpha is the tail/head ratio, so alpha=0.01 puts "
      "100x fewer records in the last class than the first.")
