"""The principal chain: every egalitarian solution is a staircase.

Users sharing one leaf of the split recursion end up with the same
rate-to-weight ratio; sorting the leaves by that ratio yields critical
values lam_1 < ... < lam_p with a nested chain of tight sets, from which
the whole solution can be rebuilt as r_i = lam_j * w_i.
"""

import numpy as np

from swfair import WeightVector, decompose, split
from swfair.experiment import ExperimentConfig, generate_instance

cfg = ExperimentConfig(seed=7)
source = generate_instance(8, cfg, rep_index=3)
ground = source.ground
rng = np.random.default_rng(7)
w = WeightVector(ground, rng.uniform(0.5, 4.0, ground.n))

rates, _ = split(source, w)
dec = decompose(source, w)  # certified: in the region, strictly increasing

print("users:  ", list(ground))
print("weights:", np.round(w.values, 3))
print("rates:  ", np.round(rates.rates, 4))
print("ratios: ", np.round(rates.ratios(w), 4))

print("\ncritical ratios and chain:")
prev = frozenset()
for lam, tier in zip(dec.critical_values, dec.chain):
    fresh = sorted(tier - prev)
    print("  lam = %-10.6f tier {%s} joins, chain now {%s}"
          % (lam, ",".join(fresh), ",".join(sorted(tier))))
    prev = tier

rebuilt = dec.reconstruct()
print("\nreconstruction r_i = lam_j * w_i is exact:",
      (rebuilt.rates == rates.rates).all())

print("\nThe smallest critical ratio is the egalitarian bottleneck: no "
      "feasible point can lift its tier's worst-off user any higher.")
