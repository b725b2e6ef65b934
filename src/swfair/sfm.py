"""Submodular function minimization with lattice-extreme minimizers.

Three solver paths share one result type; :func:`solve_sfm` picks one by
the oracle and its ground size:

* an exact minimum cut for a view of a bit-pool source above
  ``MIN_CUT_ABOVE`` (12) users: the objective is a weighted coverage
  function minus a modular one, so its minimization is a project-selection
  problem (Rhys, "A selection problem of shared fixed costs and network
  flows", Mgmt. Sci. 1970; Picard, "Maximal closure of a graph and
  applications to combinatorial problems", Mgmt. Sci. 1976), solved by one
  max-flow in :mod:`swfair.flow`, in strongly polynomial time;
* otherwise, exhaustive enumeration up to ``EXHAUSTIVE_UP_TO`` (16) users,
  which recovers the exact minimum and the minimal/maximal minimizers as
  the intersection/union of all tied minimizing subsets (the minimizer
  family of a submodular function is a lattice, so those are its bottom
  and top);
* the Fujishige-Wolfe minimum-norm-point algorithm for larger grounds over
  any other oracle, driven by the greedy linear-minimization oracle over
  the base polyhedron.

References for the min-norm route: Wolfe, "Finding the nearest point in a
polytope" (Math. Prog. 1976); Fujishige, Hayashi, Isotani, "The minimum-norm-
point algorithm applied to submodular function minimization" (RIMS 2006);
Chakrabarty, Jain, Kothari (NeurIPS 2014) for the convergence analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import max_flow
from .setfn import (
    CountingFunction,
    GroundSet,
    SetFunction,
    bit_indices,
    coverage_cut,
    global_mask,
    greedy_vertex_local,
    mask_from_indices,
)


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best result found so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
        self.recursion_path = None


# Bit-pool views above this many users take the min cut.  On seed-0
# ``sweep`` sub-blocks the median solve took 0.38 / 0.62 / 4.00 ms by the
# sweep against 0.40 / 0.44 / 0.53 ms by the min cut at 12 / 13 / 16 users,
# and the median ``split`` of the 128 ``sweep`` models 0.0141 s with the
# cut above 16 users, 0.0122 s above 12 and 0.0149 s at every size.
MIN_CUT_ABOVE = 12

# Any other ground up to this many users is swept, which is exact where
# Wolfe stops at a gap: on bit-pool values behind an opaque oracle the
# median sweep took 0.78 / 3.7 / 16 ms at 14 / 16 / 18 users and Wolfe
# 1.7 / 2.3 / 2.4 ms (8 random models per size).  All times: perf_counter,
# 2 vCPUs.
EXHAUSTIVE_UP_TO = 16

# Values within this share of a solve's scale count as ties: the scale is
# the largest |f| the solve observed, or for the min cut the larger of the
# entropy it can cover and the sum of |coefficient| (at least 1 for both).
TIE_EPSILON = 1e-9

# Wolfe's relative gap: it has converged once |x|^2 - <x, q> is at most
# MNP_GAP * max(1, |x|^2), q the greedy vertex along x.
MNP_GAP = 1e-10

# Wolfe's cap on major cycles; read at each call.
MAX_ITERATIONS = 20000


@dataclass
class SfmResult:
    """Minimum value plus both lattice-extreme minimizers of one SFM solve.

    The minimizers are masks over ``ground``; ``minimal_minimizer`` and
    ``maximal_minimizer`` name their users.
    """

    ground: GroundSet = field(repr=False)
    min_value: float
    minimal_mask: int
    maximal_mask: int
    solver_used: str
    oracle_evals: int
    ground_size: int

    @property
    def minimal_minimizer(self) -> frozenset:
        return frozenset(self.ground.users_of(self.minimal_mask))

    @property
    def maximal_minimizer(self) -> frozenset:
        return frozenset(self.ground.users_of(self.maximal_mask))

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "minimal_minimizer": sorted(self.minimal_minimizer),
            "maximal_minimizer": sorted(self.maximal_minimizer),
            "solver_used": self.solver_used,
            "oracle_evals": self.oracle_evals,
            "ground_size": self.ground_size,
        }


def solve_sfm(f: SetFunction, method: str | None = None) -> SfmResult:
    """Minimize f over all subsets of its ground (empty set included).

    A view of a :class:`BitPoolSource` above ``MIN_CUT_ABOVE`` users goes
    to the min cut, any other ground of at most ``EXHAUSTIVE_UP_TO`` users
    to the exhaustive sweep, and anything larger to min-norm point;
    ``method`` ("exhaustive" or "min_norm_point") overrides that choice.
    The min-norm path assumes f is submodular; the other two do not need
    to.
    """
    elems = bit_indices(f.ground_mask)
    if not elems:
        return SfmResult(f.ground, 0.0, 0, 0, "exhaustive", 0, 0)
    if method is None:
        cut = coverage_cut(f, elems) if len(elems) > MIN_CUT_ABOVE else None
        if cut is not None:
            return _solve_min_cut(f, elems, cut)
        method = ("exhaustive" if len(elems) <= EXHAUSTIVE_UP_TO
                  else "min_norm_point")
    if method == "exhaustive":
        return _solve_exhaustive(f, elems)
    if method == "min_norm_point":
        return _solve_min_norm(f, elems)
    raise ValueError("unknown SFM method %r" % method)


def _solve_exhaustive(f, elems) -> SfmResult:
    c = len(elems)
    if c > 20:
        raise ValueError("exhaustive SFM refused above 20 elements (got %d)" % c)
    counting = CountingFunction(f)
    vals = counting.all_values(elems)
    scale = max(1.0, counting.max_abs)
    tol = TIE_EPSILON * scale
    vmin = float(vals.min())
    tied = np.nonzero(vals <= vmin + tol)[0]
    union = int(np.bitwise_or.reduce(tied.astype(np.int64)))
    inter = int(np.bitwise_and.reduce(tied.astype(np.int64)))
    # Lattice self-check: the union/intersection of tied minimizers must
    # themselves attain the minimum; fall back to extremal tied subsets if
    # the input was not submodular (or ties were an epsilon artifact).
    if vals[union] > vmin + tol or vals[inter] > vmin + tol:
        by_card = sorted((int(t) for t in tied),
                         key=lambda m: (m.bit_count(), m))
        inter, union = by_card[0], by_card[-1]
    minimal_mask = global_mask(inter, elems)
    maximal_mask = global_mask(union, elems)
    return SfmResult(
        ground=f.ground,
        min_value=vmin,
        solver_used="exhaustive",
        oracle_evals=counting.evals,
        ground_size=c,
        minimal_mask=minimal_mask,
        maximal_mask=maximal_mask,
    )


def _solve_min_cut(f, elems, cut) -> SfmResult:
    """Exact SFM of a bit-pool view by one maximum flow.

    ``cut`` is :func:`swfair.setfn.coverage_cut`'s data for f, which reads
    f(X) = offset + h(N(X) - N(P)) - c(X) with P the pivot, c the
    coefficients, N(X) the bits X observes and h(B) the entropy of the bits
    B.  The network runs source -> user i with capacity c_i where c_i > 0,
    user i -> sink with capacity -c_i where c_i < 0, user -> each bit it
    observes outside N(P) uncapped, and bit b -> sink with capacity h_b.  A
    cut with users X on the source side costs c+(V) - c(X) + h(N(X) - N(P)),
    so the maximum flow is c+(V) + min f - offset.  Users the source reaches
    in the residual graph form the minimal minimizer, and users that do not
    reach the sink the maximal one; residual capacities at or below
    TIE_EPSILON times the larger of 1, h(N(V) - N(P)) and sum |c_i| count
    as zero.  The source's incidence is read directly and no oracle is
    called, so ``oracle_evals`` is 0.
    """
    user, bit, h, coef, offset = cut
    c = len(elems)
    gain, loss = coef > 0.0, coef < 0.0
    # nodes: 0 the source, 1 the sink, 2..c+1 the users, then the bits
    user_node = np.arange(2, c + 2)
    bit_node = np.arange(c + 2, c + 2 + len(h))
    tails = np.concatenate([np.zeros(gain.sum(), dtype=np.intp),
                            user_node[loss], user + 2, bit_node])
    heads = np.concatenate([user_node[gain], np.ones(loss.sum(), dtype=np.intp),
                            bit + c + 2, np.ones(len(h), dtype=np.intp)])
    caps = np.concatenate([coef[gain], -coef[loss],
                           np.full(len(user), np.inf), h])
    scale = max(1.0, float(h.sum()), float(np.abs(coef).sum()))
    flow, from_source, to_sink = max_flow(
        c + 2 + len(h), tails.tolist(), heads.tolist(), caps.tolist(),
        0, 1, TIE_EPSILON * scale)
    minimal_mask = mask_from_indices(
        e for e, s in zip(elems, from_source[2:c + 2]) if s)
    maximal_mask = mask_from_indices(
        e for e, t in zip(elems, to_sink[2:c + 2]) if not t)
    return SfmResult(
        ground=f.ground,
        min_value=offset + flow - float(coef[gain].sum()),
        solver_used="min_cut",
        oracle_evals=0,
        ground_size=c,
        minimal_mask=minimal_mask,
        maximal_mask=maximal_mask,
    )


def _solve_min_norm(f, elems) -> SfmResult:
    counting = CountingFunction(f)
    x, stop = _wolfe(counting, elems, MNP_GAP)
    scale = max(1.0, counting.max_abs)
    tol = TIE_EPSILON * scale

    # Round the fractional point to sets.  Sorting x ascending makes both
    # lattice-extreme minimizers prefix sets of the order; evaluating every
    # prefix is cheap and guards against threshold misclassification.
    ordered = np.asarray(elems, dtype=np.intp)[np.argsort(x, kind="stable")]
    pv = counting.prefix_values(ordered)
    pmin = float(pv.min())
    tied_ks = np.nonzero(pv <= pmin + tol)[0]
    k_small, k_large = int(tied_ks[0]), int(tied_ks[-1])
    k_neg = int(np.sum(x < -tol))   # signed-threshold rule: {x < -eps}
    k_zero = int(np.sum(x <= tol))  # and {x <= +eps}
    if pv[k_neg] <= pmin + tol:
        k_small = k_neg
    if pv[k_zero] <= pmin + tol:
        k_large = k_zero
    ordered = ordered.tolist()
    minimal_mask = mask_from_indices(ordered[:k_small])
    maximal_mask = mask_from_indices(ordered[:k_large])
    result = SfmResult(
        ground=f.ground,
        min_value=pmin,
        solver_used="min_norm_point",
        oracle_evals=counting.evals,
        ground_size=len(elems),
        minimal_mask=minimal_mask,
        maximal_mask=maximal_mask,
    )
    if stop != CONVERGED:
        raise ConvergenceError(
            "min-norm-point solver %s on a ground of size %d"
            % (_stop_reason(stop), len(elems)),
            best=result,
        )
    return result


def min_norm_point(f: SetFunction) -> np.ndarray:
    """Minimum-norm point of the base polyhedron of f.

    Returns the point as an array over the elements of f's ground in
    ascending position order, with Wolfe gap certified below ``MNP_GAP``
    (relative to max(1, |x|^2)).
    """
    elems = bit_indices(f.ground_mask)
    if not elems:
        return np.zeros(0)
    x, stop = _wolfe(f, elems, MNP_GAP)
    if stop != CONVERGED:
        raise ConvergenceError(
            "min-norm-point solver %s" % _stop_reason(stop), best=x)
    return x


# How a Wolfe run ended: only CONVERGED has passed the gap test.
CONVERGED, STALLED, CAPPED = "converged", "stalled", "capped"


def _stop_reason(stop: str) -> str:
    """Words for a Wolfe run that did not converge, for error messages."""
    if stop == STALLED:
        return ("stalled before its gap test passed (the new vertex was "
                "already active)")
    return "hit the iteration cap (%d)" % MAX_ITERATIONS


def _wolfe(f, elems, gap, scale=None):
    """Wolfe's minimum-norm-point algorithm over the base polyhedron.

    Maintains x as a convex combination of greedy vertices (rows of S with
    coefficients lam).  Major cycles add the vertex minimizing <x, .>;
    minor cycles project onto the affine hull of the active vertices and
    prune until the projection is a proper convex combination.

    With ``scale`` s (positive, one entry per element) the iteration runs
    in the coordinates y = x / s, so it minimizes sum(x_i^2 / s_i^2): with
    s = sqrt(w) that is the weighted egalitarian objective (Fujishige 1980).
    Returns x in f's own coordinates and how the run ended: CONVERGED once
    |y|^2 - <y, q>, q the greedy vertex along y, is at most ``gap`` *
    max(1, |y|^2), STALLED when the best vertex is already active before
    it does, CAPPED at ``MAX_ITERATIONS`` major cycles.
    """
    elems_arr = np.asarray(elems, dtype=np.intp)
    c = len(elems)
    s = np.ones(c) if scale is None else scale

    def vertex(direction):
        order = np.argsort(direction / s, kind="stable")
        return greedy_vertex_local(f, elems_arr, order) / s

    x = vertex(np.zeros(c))
    S = x.reshape(1, c)
    lam = np.ones(1)

    for _ in range(MAX_ITERATIONS):
        q = vertex(x)
        xx = float(x @ x)
        if xx - float(x @ q) <= gap * max(1.0, xx):
            return x * s, CONVERGED
        if np.any(np.all(np.abs(S - q) <= 1e-12, axis=1)):
            return x * s, STALLED
        S = np.vstack([S, q])
        lam = np.append(lam, 0.0)

        while True:
            coeff, y = _affine_minimizer(S)
            if np.all(coeff > 1e-12):
                x, lam = y, coeff
                break
            # step toward y until the first coefficient hits zero, drop it
            shrink = lam - coeff
            active = shrink > 1e-14
            if not active.any():
                # projection matches the current coefficients to precision
                lam = np.maximum(coeff, 0.0)
                lam = lam / lam.sum()
                x = S.T @ lam
                break
            theta = float(np.min(lam[active] / shrink[active]))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * coeff
            keep = lam > 1e-12
            if keep.all():
                keep[int(np.argmin(lam))] = False
            S = S[keep]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = S.T @ lam
    return x * s, CAPPED


def _affine_minimizer(S):
    """Least-norm point of the affine hull of the rows of S.

    Solves the bordered normal equations; falls back to least squares when
    the Gram matrix is numerically singular.
    """
    m = S.shape[0]
    if m == 1:
        return np.ones(1), S[0].copy()
    M = np.empty((m + 1, m + 1))
    M[0, 0] = 0.0
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = S @ S.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    coeff = sol[1:]
    return coeff, S.T @ coeff
