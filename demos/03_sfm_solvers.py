"""The SFM engine behind every split: min cut and exhaustive sweep.

Minimizing f(X) - lam*w(X) over subsets is the workhorse subproblem.
solve_sfm picks the solver by a fixed rule on the oracle: a bit-pool block
of any size is one project-selection min cut, read off a max-flow's
residual graph; any other block of at most 20 users (BRUTE_FORCE_LIMIT) is
swept exhaustively, and a larger one is refused before any subset is
tabled.  Each solver is shown here on a block the rule gives it, against
the other solver on the same values.
"""

import numpy as np

from swfair import (
    BRUTE_FORCE_LIMIT,
    GroundSetTooLargeError,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    egalitarian,
    solve_sfm,
)
from swfair.setfn import greedy_vertex_local
from swfair.experiment import ExperimentConfig, generate_instance


class Opaque(SetFunction):
    """A source's values behind an oracle the min cut cannot read."""

    def __init__(self, source):
        self.source = source
        self.ground, self.ground_mask = source.ground, source.ground_mask

    def value(self, mask):
        return self.source.value(mask)

    def prefix_values(self, order, base=0):
        return self.source.prefix_values(order, base)

    def all_values(self, elements, base=0):
        return self.source.all_values(elements, base)


def split_objective(f):
    """f - lam * 1 at split's ratio lam = f(V) / |V|."""
    n = f.ground.n
    return add_modular(f, f.value(f.ground_mask) / n * np.ones(n))


def show(res, ref):
    print("  %-15s min=%.6f  minimal={%s}  maximal={%s}  (%d oracle evals)"
          % (res.solver_used, res.min_value,
             ",".join(sorted(res.minimal_minimizer)),
             ",".join(sorted(res.maximal_minimizer)), res.oracle_evals))
    assert abs(res.min_value - ref.min_value) <= 1e-9
    assert res.minimal_minimizer == ref.minimal_minimizer
    assert res.maximal_minimizer == ref.maximal_minimizer


cfg = ExperimentConfig(seed=42)
source = generate_instance(14, cfg, rep_index=1)
n = source.ground.n
objective = split_objective(source)
print("instance: %d users, %d bits, H(V) = %.3f"
      % (n, len(source.bit_ids), source.value(source.ground_mask)))

# A bit pool of 14 users goes to the min cut; the same values as a table
# are swept.
min_cut = solve_sfm(objective)
table = TableSource(source.ground,
                    {m: source.value(m) for m in range(1, 1 << n)})
exhaustive = solve_sfm(split_objective(table))
assert (min_cut.solver_used, exhaustive.solver_used) == ("min_cut",
                                                        "exhaustive")
for res in (exhaustive, min_cut):
    show(res, exhaustive)

# Up to 20 users an oracle the min cut cannot read is still swept; one
# more user is refused, and the min cut takes the bit pool at any size.
big = generate_instance(BRUTE_FORCE_LIMIT, cfg, rep_index=1)
swept = solve_sfm(split_objective(Opaque(big)))
assert swept.solver_used == "exhaustive"
print("%d users:" % BRUTE_FORCE_LIMIT)
show(swept, solve_sfm(split_objective(big)))
bigger = generate_instance(BRUTE_FORCE_LIMIT + 1, cfg, rep_index=1)
try:
    solve_sfm(split_objective(Opaque(bigger)))
    raise AssertionError("an opaque oracle above the limit was solved")
except GroundSetTooLargeError as e:
    print("%d users: refused (%s)" % (BRUTE_FORCE_LIMIT + 1, e))

# The fractional min-norm point itself is the egalitarian point at unit
# weights: its negative coordinates mark the minimal minimizer, and its
# nonpositive ones the maximal minimizer.
x = egalitarian(objective, WeightVector.ones(source.ground)).rates
print("\nmin-norm point:", np.round(x, 4))
print("sum(x) = f(V) check: %.6f vs %.6f" % (x.sum(),
                                             objective.value(source.ground_mask)))
users = np.array(source.ground.users)
assert set(users[x < -1e-9]) == min_cut.minimal_minimizer
assert set(users[x <= 1e-9]) == min_cut.maximal_minimizer

# Greedy vertices are the extreme points of the base polyhedron.
print("\ntwo greedy vertices of the base polyhedron of H:")
for order in (np.arange(n), np.arange(n)[::-1]):
    v = greedy_vertex_local(source, np.arange(n), order)
    print("  order %s...: %s" % (order[:4].tolist(), np.round(v, 3)))
