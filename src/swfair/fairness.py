"""Fair allocations over the rate region and tools to compare them.

Implements the Shapley value and region-membership verification, each by
one exact route picked by the oracle: for a view of a bit pool, a closed
form over its incidence and one exact SFM of f - r, at any ground size;
for any other oracle, a sweep over every subset up to
``BRUTE_FORCE_LIMIT`` users.  The full permutation average stays as a
cross-check of the Shapley value.  Also here: an independent quadratic
solver for the weighted egalitarian point based on fully corrective
conditional gradients (Holloway 1974; Lacoste-Julien & Jaggi 2015 for the
analysis).  The conditional-gradient route shares no code with the
recursive splitting solver on purpose: it is the correctness oracle the
splitter is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .setfn import (
    BRUTE_FORCE_LIMIT,
    BitPoolSource,
    RateVector,
    SetFunction,
    WeightVector,
    _parts,
    add_modular,
    bit_indices,
    contract,
    coverage_cut,
    exhaustive_ground,
    global_mask,
    greedy_vertex_local,
    modular_sums,
)
from .sfm import solve_sfm

# egalitarian_oracle_fw stops once its duality gap is at most this, and
# gives up after this many steps; the production solver shares neither, so
# the oracle does not move with it.
ORACLE_GAP = 1e-9
ORACLE_MAX_STEPS = 200000


def shapley_exact(f: SetFunction) -> RateVector:
    """Expected marginal value of each user over random arrival orders.

    A bit-pool view (one :func:`swfair.setfn.coverage_cut` reads as one
    block) is a sum over bits of h_b [X meets O_b], O_b the observers of
    bit b, less a modular c(X).  By symmetry and linearity r_i is the sum
    of h_b / |O_b| over the bits i observes, less c_i: two bincounts, at
    any ground size and with no oracle call.  Any other oracle is swept
    over all 2^n subsets, r_i = sum over C not containing i of |C|!
    (n-|C|-1)! / n! * (f(C + i) - f(C)), and refused above
    ``BRUTE_FORCE_LIMIT`` elements.
    """
    elems = bit_indices(f.ground_mask)
    cut = coverage_cut(f, elems, [len(elems)], [0])
    rates = np.zeros(f.ground.n)
    if cut is not None:
        _, _, user, bit, h, coeffs = cut
        share = h / np.bincount(bit, minlength=len(h))
        rates[elems] = np.bincount(user, weights=share[bit],
                                   minlength=len(elems)) - coeffs
        return RateVector(f.ground, rates, f.ground_mask)
    elems = exhaustive_ground(f, BRUTE_FORCE_LIMIT, "exact Shapley")
    c = len(elems)
    vals = f.all_values(elems)
    submasks = np.arange(1 << c, dtype=np.uint32)
    sizes = np.bitwise_count(submasks).astype(np.intp)
    n_fact = math.factorial(c)
    w_by_size = np.array([math.factorial(s) * math.factorial(c - s - 1) / n_fact
                          for s in range(c)])
    for k, e in enumerate(elems):
        bit = np.uint32(1 << k)
        without = submasks[(submasks & bit) == 0]
        marginals = vals[without | bit] - vals[without]
        rates[e] = float(w_by_size[sizes[without]] @ marginals)
    return RateVector(f.ground, rates, f.ground_mask)


def shapley_permutation_average(f: SetFunction) -> RateVector:
    """Average of the greedy vertices over all n! permutations.

    Mathematically identical to :func:`shapley_exact`; kept as an
    independent cross-check route.  Refused above 10 elements.
    """
    elems = np.asarray(exhaustive_ground(f, 10, "permutation enumeration"),
                       dtype=np.intp)
    acc = np.zeros(f.ground.n)
    count = 0
    for perm in itertools.permutations(range(len(elems))):
        acc[elems] += greedy_vertex_local(f, elems, np.asarray(perm))
        count += 1
    return RateVector(f.ground, acc / count, f.ground_mask)


@dataclass
class MembershipReport:
    in_region: bool
    worst_constraint: frozenset
    slack: float
    sum_gap: float

    def to_dict(self) -> dict:
        return {
            "in_region": self.in_region,
            "worst_constraint": sorted(self.worst_constraint),
            "slack": self.slack,
            "sum_gap": self.sum_gap,
        }


def verify_membership(f: SetFunction, r,
                      tolerance: float | None = None) -> MembershipReport:
    """Check that r is an achievable allocation for f over its ground C.

    r is a member when |r(C) - f(C)| <= tolerance and every lower
    constraint r(X) >= f(C) - f(C - X), X nonempty, holds; the report
    names the most violated (or tightest) X and its slack.  As in
    :func:`swfair.sfm.solve_sfm`, the oracle picks the route:

    * a bit-pool view, at any size: one exact ``solve_sfm`` of f - r, with
      minimal minimizer Y.  The report names X = C - Y, whose slack is
      sum_gap + (f - r)(Y), sum_gap = r(C) - f(C), from one evaluation at
      Y; r is a member iff that slack is >= -tolerance and |sum_gap| <=
      tolerance.  That slack is the least one wherever that is at most 0,
      and else that of X empty, where only the sum can fail;
    * any other oracle: a sweep over every subset that also checks the
      upper form r(X) <= f(X), refused above ``BRUTE_FORCE_LIMIT`` users.

    The tolerance defaults to 1e-8 times f's scale.  Rates that are not
    one finite number per ground position, or a tolerance not finite and
    nonnegative, raise ValueError.
    """
    if tolerance is None:
        tolerance = 1e-8 * f.scale
    elif not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError("tolerance must be finite and >= 0, got %r"
                         % tolerance)
    rates = r.rates if isinstance(r, RateVector) else np.asarray(r, dtype=float)
    if rates.shape != (f.ground.n,) or not np.isfinite(rates).all():
        raise ValueError("rates must be %d finite numbers, one per user of "
                         "the ground set" % f.ground.n)
    if isinstance(_parts(f)[0], BitPoolSource):
        objective = add_modular(f, rates)
        minimal = solve_sfm(objective).minimal_mask
        sum_gap = (float(rates[bit_indices(f.ground_mask)].sum())
                   - f.value(f.ground_mask))
        slack = sum_gap + objective.value(minimal)
        return MembershipReport(
            slack >= -tolerance and abs(sum_gap) <= tolerance,
            frozenset(f.ground.users_of(f.ground_mask & ~minimal)), slack,
            sum_gap)
    elems = exhaustive_ground(f, BRUTE_FORCE_LIMIT, "membership verification")
    c = len(elems)
    vals = f.all_values(elems)
    full = (1 << c) - 1
    r_sub = modular_sums(rates[elems])
    sum_gap = float(r_sub[full] - vals[full])
    # vals[::-1][X] is the value of the complement full ^ X
    lower_slack = r_sub - (vals[full] - vals[::-1])
    lower_slack[0] = np.inf  # the empty set is vacuous
    upper_slack = vals - r_sub
    worst_local = int(np.argmin(lower_slack))
    min_slack = float(lower_slack[worst_local])
    in_region = (min_slack >= -tolerance
                 and float(upper_slack[1:].min(initial=np.inf)) >= -tolerance
                 and abs(sum_gap) <= tolerance)
    worst_mask = global_mask(worst_local, elems)
    return MembershipReport(in_region, frozenset(f.ground.users_of(worst_mask)),
                            min_slack, sum_gap)


def exchange_capacity(f: SetFunction, r, donor: str, receiver: str) -> float:
    """Largest rate transferable from donor to receiver while staying feasible.

    min of f(X) - r(X) over subsets X containing the receiver but not the
    donor; zero means the receiver's rate cannot be raised at the donor's
    expense.  For a bit-pool view, at any size, that is f({receiver}) -
    r_receiver plus the minimum of one ``solve_sfm``: f contracted at the
    receiver, less r, over the ground without receiver and donor.  Any
    other oracle is swept over every subset, refused above
    ``BRUTE_FORCE_LIMIT`` users.
    """
    rates = r.rates if isinstance(r, RateVector) else np.asarray(r, dtype=float)
    i, j = f.ground.index[receiver], f.ground.index[donor]
    if i == j or not f.ground_mask >> i & f.ground_mask >> j & 1:
        raise ValueError("donor and receiver must be two users of the "
                         "oracle's ground")
    if isinstance(_parts(f)[0], BitPoolSource):
        f_i = f.value(1 << i)
        rest = contract(f, 1 << i, f.ground_mask & ~(1 << i | 1 << j), f_i)
        return f_i - float(rates[i]) + solve_sfm(
            add_modular(rest, rates)).min_value
    elems = exhaustive_ground(f, BRUTE_FORCE_LIMIT, "exchange capacity")
    c = len(elems)
    pos = {e: k for k, e in enumerate(elems)}
    bit_r = np.uint32(1 << pos[i])
    bit_d = np.uint32(1 << pos[j])
    vals = f.all_values(elems)
    submasks = np.arange(1 << c, dtype=np.uint32)
    r_sub = modular_sums(rates[elems])
    sel = ((submasks & bit_r) != 0) & ((submasks & bit_d) == 0)
    return float((vals[sel] - r_sub[sel]).min())


class ConvergenceError(RuntimeError):
    """:func:`egalitarian_oracle_fw` stopped short of its gap; ``best``
    carries its last iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def egalitarian_oracle_fw(f: SetFunction, w: WeightVector) -> RateVector:
    """Weighted egalitarian point by fully corrective conditional gradients.

    Minimizes sum(r_i^2 / w_i) over the base polyhedron of f.  Each step
    adds the greedy vertex along the gradient (the linear-minimization
    oracle) to the active vertices, then re-weights them to their best
    convex combination: step toward the weighted least-norm point of their
    affine hull, dropping the first vertex whose weight reaches zero, until
    that point has all weights positive.  Plain and away-step conditional
    gradients converge at a rate set by the narrowest face of the
    polyhedron, which on nearly modular sources stalls them for more than
    200000 steps; the corrective step does not depend on it.  Terminates when
    the duality gap drops below ``ORACLE_GAP``; hitting the cap of
    ``ORACLE_MAX_STEPS`` steps, or a gap above it with no new vertex
    to add, raises :class:`ConvergenceError` carrying the best iterate.
    """
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    w_loc = w.values[elems]

    x = greedy_vertex_local(f, elems, np.arange(len(elems)))
    atoms = x.reshape(1, -1)
    lam = np.ones(1)
    gap = math.inf

    for _ in range(ORACLE_MAX_STEPS):
        grad = 2.0 * x / w_loc
        s = greedy_vertex_local(f, elems, np.argsort(grad, kind="stable"))
        gap = float(grad @ (x - s))
        if gap <= ORACLE_GAP:
            return _to_rate_vector(f, elems, x)
        if np.any(np.all(atoms == s, axis=1)):
            break
        atoms = np.vstack([atoms, s])
        lam = np.append(lam, 0.0)
        while True:
            coeff = _least_norm_weights(atoms, w_loc)
            if np.all(coeff > 0.0):
                lam = coeff
                break
            # move toward the affine minimizer until a weight reaches zero
            reach = np.divide(lam, lam - coeff, out=np.ones_like(lam),
                              where=coeff < lam)
            theta = min(1.0, float(reach.min()))
            lam = (1.0 - theta) * lam + theta * coeff
            keep = lam > 1e-14
            if keep.all():
                keep[int(np.argmin(lam))] = False
            atoms, lam = atoms[keep], lam[keep] / lam[keep].sum()
        x = lam @ atoms
    raise ConvergenceError(
        "conditional-gradient solver stopped at duality gap %.3g above %.3g"
        % (gap, ORACLE_GAP), best=_to_rate_vector(f, elems, x))


def _least_norm_weights(atoms, w_loc):
    """Affine weights (summing to 1) of the point of the rows' affine hull
    with least sum(x_i^2 / w_i), from the bordered normal equations."""
    m = atoms.shape[0]
    scaled = atoms / np.sqrt(w_loc)
    system = np.ones((m + 1, m + 1))
    system[0, 0] = 0.0
    system[1:, 1:] = scaled @ scaled.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0][1:]


def _to_rate_vector(f, elems, x) -> RateVector:
    rates = np.zeros(f.ground.n)
    rates[elems] = x
    return RateVector(f.ground, rates, f.ground_mask)


@dataclass
class FairnessReport:
    """Side-by-side comparison of allocation methods on one source."""

    methods: dict
    max_ratio: dict
    lifetime_proxy: dict
    sum_rate: dict
    in_region: dict
    min_slack: dict

    def to_dict(self) -> dict:
        return {
            name: {
                "rates": self.methods[name].as_dict(),
                "max_ratio": self.max_ratio[name],
                "lifetime_proxy": self.lifetime_proxy[name],
                "sum_rate": self.sum_rate[name],
                "in_region": self.in_region[name],
                "min_slack": self.min_slack[name],
            }
            for name in self.methods
        }

    def to_text(self) -> str:
        lines = ["%-14s %12s %12s %12s %9s" % (
            "method", "sum_rate", "max_ratio", "lifetime", "member")]
        for name in self.methods:
            lines.append("%-14s %12.6f %12.6f %12.6f %9s" % (
                name, self.sum_rate[name], self.max_ratio[name],
                self.lifetime_proxy[name],
                "yes" if self.in_region[name] else "NO"))
        return "\n".join(lines)


def build_report(f: SetFunction, w: WeightVector,
                 methods: dict) -> FairnessReport:
    """Assemble a :class:`FairnessReport` for named rate vectors."""
    max_ratio, lifetime, sum_rate, member, slack = {}, {}, {}, {}, {}
    for name, rv in methods.items():
        idx = bit_indices(rv.subset_mask)
        rates = rv.rates[idx]
        max_ratio[name] = float((rates / w.values[idx]).max())
        peak = float(rates.max())
        lifetime[name] = 1.0 / peak if peak > 0 else np.inf
        sum_rate[name] = rv.total()
        rep = verify_membership(f, rv)
        member[name] = rep.in_region
        slack[name] = rep.slack
    return FairnessReport(dict(methods), max_ratio, lifetime, sum_rate,
                          member, slack)
