"""Watch the recursive splitter work through the three-user model.

Every call scores its block at the uniform ratio lam = f(C)/w(C), asks an
SFM solver for the maximal minimizer of f - lam*w, and either stops (the
block is already balanced) or splits.  The complement branch receives an
early base assignment and continues on a contracted entropy function, so
the rate vector walks through the feasible polyhedron toward the optimum.
"""

import json

from swfair import (
    BitPoolSource,
    GroundSet,
    WeightVector,
    adaptation_path,
    recursion_metrics,
    split,
)

ground = GroundSet(["1", "2", "3"])
source = BitPoolSource(
    ground,
    bits={"a": 1.0, "b": 0.5, "c": 0.5, "d": 0.1},
    observes={"1": ["a", "b", "c"], "2": ["c", "d"], "3": ["b", "d"]},
)
w = WeightVector(ground, [3.0, 1.0, 3.0])

rates, tree = split(source, w)
print("final rates:", {u: round(r, 4) for u, r in rates.as_dict().items()})


def describe(node, indent="  "):
    users = ",".join(ground.users_of(node.subset_mask))
    print("%scall on {%s}: lam=%.4f, maximal minimizer {%s}%s" % (
        indent, users, node.lam,
        ",".join(sorted(node.sfm.maximal_minimizer)),
        "  -> leaf, rates = lam*w" if node.is_leaf else ""))
    if not node.is_leaf:
        block, rest = node.children
        print("%s  split: {%s} keeps f, {%s} gets base %.4f*w and the "
              "contracted oracle" % (
                  indent, ",".join(ground.users_of(block.subset_mask)),
                  ",".join(ground.users_of(rest.subset_mask)),
                  node.base_coeff))
        describe(block, indent + "    ")
        describe(rest, indent + "    ")


print("\nrecursion trace:")
describe(tree.root)

print("\nrate vector walk (one point per early base assignment):")
for vec in adaptation_path(tree):
    print("  ", [round(float(v), 4) for v in vec.rates])

# The two branches of a split are independent: max_size is the workload on
# the critical path if each pair ran at once, sum_size the serial workload.
print("\nmetrics:", recursion_metrics(tree))

print("\nsplit tree as JSON:")
print(json.dumps(tree.to_dict(), indent=2)[:600], "...")
