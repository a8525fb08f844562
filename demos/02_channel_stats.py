"""Diagnose the channel magnitude imbalance that motivates equalization.

Pooled RMS across a dataset shows how unevenly the channels contribute;
the per-class scale table shows the pattern is shared by every class,
so a single per-record correction is enough.
"""

from ecgbalance import SynthSpec, channel_stats, generate_synthetic

spec = SynthSpec(
    length=1000,
    per_class_counts=(30,) * 4,
    channel_gain=(1.0, 0.8, 0.4, 0.2, 0.05, 0.01),
    noise_sd=0.3,
    seed=1,
)
d = generate_synthetic(spec)
stats = channel_stats(d)

print("pooled channel RMS (all records):")
for c, v in enumerate(stats.per_channel_rms):
    bar = "#" * max(1, int(round(40 * v / stats.per_channel_rms.max())))
    print(f"  ch{c}: {v:8.4f} {bar}")

print("\nper-class scale (rows: classes, columns: channels):")
print("  " + " " * 10 + "".join(f"ch{c:<7d}" for c in range(d.num_channels)))
for m, name in enumerate(d.class_names):
    row = "".join(f"{v:<9.3f}" for v in stats.per_class_scale[m])
    print(f"  {name:<10s}{row}")

ratio = stats.per_channel_rms.max() / stats.per_channel_rms.min()
print(f"\nstrongest/weakest channel RMS ratio: {ratio:.0f}x")
