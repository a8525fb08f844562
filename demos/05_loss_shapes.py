"""Compare loss values and sample weights as the true-class probability moves.

The inverted-weight logarithmic loss multiplies the cross-entropy term
-log p by the weight (log(10 / (p + eps)))**beta. Near p = 1 that weight
falls toward (log 10)**beta, so easy samples count for less; near p = 0 it
grows, so hard samples dominate the gradient. beta tunes how aggressive the
reweighting is, and beta = 0 (weight 1) is plain cross-entropy.
"""

import numpy as np

from ecgbalance import (
    LOSS_KINDS,
    LossConfig,
    gradient_check,
    iwl_point_value,
    iwl_weight,
)

ps = np.array([0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])

print("sample weight (log(10 / (p + eps)))**beta by beta:")
print("  p      " + "".join(f"b={b:<8}" for b in (0.1, 0.3, 1.0, 3.0)))
for p in ps:
    row = "".join(f"{iwl_weight(p, LossConfig(beta=b)):<10.3f}" for b in (0.1, 0.3, 1.0, 3.0))
    print(f"  {p:<5}  {row}")

print("\nloss value at the same points (beta=0.3) vs plain cross-entropy:")
ce = -np.log(ps)
iwl = iwl_point_value(ps, LossConfig(beta=0.3))
for p, a, b in zip(ps, ce, iwl):
    print(f"  p={p:<5}  ce={a:7.4f}  iwl={b:7.4f}  ratio={b / a:5.2f}")

print("\nanalytical gradients vs central finite differences (100 trials each):")
for name in LOSS_KINDS:
    res = gradient_check(LossConfig(kind=name, beta=0.3), trials=100, seed=5)
    print(f"  {name:<15} max relative error {res.max_rel_error:.2e}  "
          f"{'pass' if res.passed else 'FAIL'}")
