"""Generate a small synthetic dataset and look at what is in it."""

import numpy as np

from ecgbalance import SynthSpec, generate_synthetic

spec = SynthSpec(
    length=1000,
    per_class_counts=(40, 40, 40, 40, 40),
    channel_gain=(1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.05, 0.01),
    noise_sd=0.5,
    sample_rate=500.0,
    seed=7,
)
d = generate_synthetic(spec)

print(f"{len(d.records)} records, {len(d.class_names)} classes, "
      f"{d.records[0].channels.shape[0]} channels x {d.records[0].channels.shape[1]} samples")
print("class histogram:", dict(zip(d.class_names, d.class_counts().tolist())))

r = d.records[0]
rms = np.sqrt(np.mean(r.channels**2, axis=1))
print(f"\nrecord {r.record_id} (class {d.class_names[r.label]}) channel RMS:")
for c, v in enumerate(rms):
    print(f"  ch{c}: {v:8.4f}   gain {spec.channel_gain[c]}")
print("\nThe last channels carry the same waveform at a fraction of the "
      "magnitude. Averaged into a model input as-is, they contribute "
      "almost nothing.")
