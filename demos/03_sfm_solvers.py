"""The SFM engine behind every split: exhaustive sweep, min cut, min-norm point.

Minimizing f(X) - lam*w(X) over subsets is the workhorse subproblem.
solve_sfm picks the solver from the oracle: a bit-pool block above 12 users
is one project-selection min cut, read off a max-flow's residual graph;
any other block of at most 16 users is swept exhaustively, and larger ones
go through the Fujishige-Wolfe minimum-norm-point algorithm, whose
fractional output rounds to the same lattice-extreme minimizers.  On this
14-user model the default choice is the min cut, and ``method=`` asks for
the other two.
"""

import numpy as np

from swfair import (
    WeightVector,
    add_modular,
    greedy_vertex,
    min_norm_point,
    solve_sfm,
)
from swfair.experiment import ExperimentConfig, generate_instance

cfg = ExperimentConfig(seed=42)
source = generate_instance(14, cfg, rep_index=1)
n = source.ground.n
w = WeightVector.ones(source.ground)

lam = source.value(source.ground_mask) / n
objective = add_modular(source, lam * np.ones(n))
print("instance: %d users, %d bits, H(V) = %.3f, lam = %.4f"
      % (n, len(source.bit_ids), source.value(source.ground_mask), lam))

exhaustive = solve_sfm(objective, method="exhaustive")
# a bit-pool objective above 12 users goes to the min cut by default
min_cut = solve_sfm(objective)
assert min_cut.solver_used == "min_cut"
min_norm = solve_sfm(objective, method="min_norm_point")
for res in (exhaustive, min_cut, min_norm):
    print("%-15s min=%.6f  minimal={%s}  maximal={%s}  (%d oracle evals)" % (
        res.solver_used, res.min_value,
        ",".join(sorted(res.minimal_minimizer)),
        ",".join(sorted(res.maximal_minimizer)), res.oracle_evals))
    assert abs(res.min_value - exhaustive.min_value) <= 1e-9
    assert res.minimal_minimizer == exhaustive.minimal_minimizer
    assert res.maximal_minimizer == exhaustive.maximal_minimizer

# The fractional min-norm point itself: negative coordinates mark the
# minimal minimizer, nonpositive ones the maximal minimizer.
x = min_norm_point(objective)
print("\nmin-norm point:", np.round(x, 4))
print("sum(x) = f(V) check: %.6f vs %.6f" % (x.sum(),
                                             objective.value(source.ground_mask)))

# Greedy vertices are the extreme points the solvers move along.
print("\ntwo greedy vertices of the base polyhedron of H:")
for order in ([int(i) for i in range(n)], [int(i) for i in range(n - 1, -1, -1)]):
    v = greedy_vertex(source, order)
    print("  order %s...: %s" % (order[:4], np.round(v, 3)))
