"""Three sensors share four independent random bits; who should send what?

User 1 observes bits (a, b, c), user 2 observes (c, d), user 3 observes
(b, d), with entropies a=1, b=c=1/2, d=1/10 bits.  Any lossless scheme must
move 2.1 bits per symbol in total to the sink; the question is how to divide
that load fairly.
"""

import numpy as np

from swfair import (
    BitPoolSource,
    GroundSet,
    WeightVector,
    build_report,
    conditional_entropy,
    shapley_exact,
    split,
    verify_membership,
)

ground = GroundSet(["1", "2", "3"])
source = BitPoolSource(
    ground,
    bits={"a": 1.0, "b": 0.5, "c": 0.5, "d": 0.1},
    observes={"1": ["a", "b", "c"], "2": ["c", "d"], "3": ["b", "d"]},
)

print("Joint entropies (bits/symbol):")
for subset in (["1"], ["2"], ["3"], ["2", "3"], ["1", "2", "3"]):
    print("  H({%s}) = %.3f" % (",".join(subset),
                                source.value(ground.mask_of(subset))))
print("Each user's private information, H(i | rest):")
for u in ground:
    print("  user %s: %.3f" % (u, conditional_entropy(source, [u])))

# The Shapley value charges each user its average marginal entropy.
shapley = shapley_exact(source)
print("\nShapley rates:     ", {u: round(r, 4) for u, r in shapley.as_dict().items()})

# The egalitarian solution spreads the load as evenly as the region allows.
w = WeightVector.ones(ground)
egal, _ = split(source, w)
print("Egalitarian rates: ", {u: round(r, 4) for u, r in egal.as_dict().items()})

# Both are achievable allocations, but their peak loads differ a lot.
for name, rates in (("shapley", shapley), ("egalitarian", egal)):
    rep = verify_membership(source, rates)
    print("%s: member=%s, tightest constraint at {%s}" % (
        name, rep.in_region, ",".join(sorted(rep.worst_constraint))))

report = build_report(source, w, {"shapley": shapley, "egalitarian": egal})
print("\n" + report.to_text())
print("\nIf battery drain is proportional to rate, the egalitarian point "
      "cuts the peak rate from %.2f to %.2f, stretching network lifetime "
      "by %.0f%%." % (shapley.rates.max(), egal.rates.max(),
                      100 * (shapley.rates.max() / egal.rates.max() - 1)))

# Weights skew the notion of "even": give users 1 and 3 triple capacity.
w313 = WeightVector(ground, [3.0, 1.0, 3.0])
egal_w, _ = split(source, w313)
print("\nWeighted egalitarian w=(3,1,3):",
      {u: round(r, 4) for u, r in egal_w.as_dict().items()})
print("Per-weight ratios are equalized where the region permits:",
      np.round(egal_w.ratios(w313), 4))
