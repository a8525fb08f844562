"""Equalize one record's channels, then encode it as a fixed-size image.

The factors are a softmax over negated channel RMS, so they respond to
absolute magnitude differences. Around unit RMS that gives a gentle
inversion: quiet channels are boosted, loud ones damped. When channel
magnitudes differ by many units the softmax saturates and the correction
overshoots, which is why inputs are expected at roughly unit scale.
"""

import numpy as np

from ecgbalance import EncoderSpec, SynthSpec, cme_factors, featurize_records, generate_synthetic, window_record

spec = SynthSpec(
    length=3000,
    per_class_counts=(4, 4, 4),
    channel_gain=(1.0, 0.7, 0.4, 0.15, 0.05, 0.01),
    noise_sd=0.05,
    amplitude=1.0,
    seed=2,
)
r = generate_synthetic(spec).records[0]

# Same window the training encoder uses: drop the first second, keep five.
w = window_record(r, skip=500, take=2500)
factors = cme_factors(w)
# Mean factor rescaled to 1 so before/after RMS are comparable.
scaled = w.channels * (factors * len(factors))[:, None]

rms_before = np.sqrt(np.mean(w.channels**2, axis=1))
rms_after = np.sqrt(np.mean(scaled**2, axis=1))
print("channel   rms before   factor      rms after")
for c in range(w.channels.shape[0]):
    print(f"  ch{c}     {rms_before[c]:9.4f}   {factors[c]:.6f}   {rms_after[c]:9.4f}")
print(f"\nfactor sum: {factors.sum():.15f}")
print(f"loud/quiet RMS ratio: {rms_before.max() / rms_before.min():.1f}x before, "
      f"{rms_after.max() / rms_after.min():.1f}x after")

img = featurize_records([r], EncoderSpec(height=12, width=125, skip=500, take=2500))[0]
print(f"\nencoded image: {img.shape[0]} x {img.shape[1]}, "
      f"value range [{img.min():.3f}, {img.max():.3f}]")
