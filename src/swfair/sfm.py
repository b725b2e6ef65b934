"""Submodular function minimization with lattice-extreme minimizers.

Three solvers share one result type, and a fixed rule on the oracle picks
one, with no override:

* an exact minimum cut for a view of a bit-pool source, of any size: the
  objective is a weighted coverage function minus a modular one, so its
  minimization is a project-selection problem (Rhys, "A selection problem
  of shared fixed costs and network flows", Mgmt. Sci. 1970; Picard,
  "Maximal closure of a graph and applications to combinatorial problems",
  Mgmt. Sci. 1976), solved by one max-flow in :mod:`swfair.flow`, in
  strongly polynomial time.  :func:`cut_results` solves any number of such
  networks with disjoint users and bits in that one flow, which is how
  :func:`swfair.split.split` settles every block of a depth at once;
* for any other oracle, exhaustive enumeration up to ``EXHAUSTIVE_UP_TO``
  (16) users, which recovers the exact minimum and the minimal/maximal
  minimizers as the intersection/union of all tied minimizing subsets (the
  minimizer family of a submodular function is a lattice, so those are its
  bottom and top);
* the Fujishige-Wolfe minimum-norm-point algorithm for larger grounds of
  any other oracle, driven by the greedy linear-minimization oracle over
  the base polyhedron.  Like Wolfe's own method it keeps a factor of its
  active set across cycles: the inverse of the bordered Gram matrix
  [[0, 1^T], [1, S S^T]] of the active vertices S, bordered by a Schur
  complement when a vertex is added and downdated by rank one when one is
  dropped, so a minor cycle costs O(m^2) for m active vertices.  The
  inverse is rebuilt from scratch, with a least-squares fallback, whenever
  a Schur complement is not clearly positive next to the vertex's squared
  norm or a step of iterative refinement moves the affine coefficients by
  more than ``REFINE_SLACK`` of their size, so nearly collinear vertices
  are as safe as with a new solve per cycle.

The minimum-norm point of the base polyhedron itself is not exposed here:
:func:`swfair.split.egalitarian` at unit weights returns it exactly.

References for the min-norm route: Wolfe, "Finding the nearest point in a
polytope" (Math. Prog. 1976); Fujishige, Hayashi, Isotani, "The minimum-norm-
point algorithm applied to submodular function minimization" (RIMS 2006);
Chakrabarty, Jain, Kothari (NeurIPS 2014) for the convergence analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import bipartite_flow
from .setfn import (
    TIE_EPSILON,
    GroundSet,
    SetFunction,
    bit_indices,
    coverage_cut,
    global_mask,
    greedy_vertex_local,
    mask_from_indices,
)


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best result found so far.

    ``recursion_path`` holds the labels of the blocks the refinement loop
    of ``split`` and ``decompose`` was solving when the solve failed,
    outermost first; ``str`` names them.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
        self.recursion_path = None

    def __str__(self) -> str:
        text = super().__str__()
        if self.recursion_path:
            text += " at " + " > ".join(self.recursion_path)
        return text


# Any other ground up to this many users is swept, which is exact where
# Wolfe stops at a gap: on bit-pool values behind an opaque oracle the
# median sweep took 0.78 / 3.7 / 16 ms at 14 / 16 / 18 users and Wolfe
# 1.7 / 2.3 / 2.4 ms (8 random models per size).  On a TableSource, whose
# sweep is one gather, it took 0.41-0.46 / 1.1-1.2 / 2.9-4.3 / 16-17 ms at
# 12 / 14 / 16 / 18 users and Wolfe 1.4-1.8 / 1.8-2.1 / 1.4-2.5 /
# 2.3-2.5 ms (8 random tables per size, three runs).  All times:
# perf_counter, 2 vCPUs.
EXHAUSTIVE_UP_TO = 16

# Wolfe's relative gap: it has converged once |x|^2 - <x, q> is at most
# MNP_GAP * |x|^2, q the greedy vertex along x, or once |x| is at most
# TIE_EPSILON |q|: both tests are relative, so the source's scale does not
# move them.
MNP_GAP = 1e-10

# Wolfe's cap on major cycles; read at each call.
MAX_ITERATIONS = 20000


@dataclass
class SfmResult:
    """Minimum value plus both lattice-extreme minimizers of one SFM solve.

    The minimizers are masks over ``ground``; ``minimal_minimizer`` and
    ``maximal_minimizer`` name their users.  ``flow_rounds`` counts a min
    cut's breadth-first rounds, and is 0 for the other solvers; a block
    settled in a flow shared with other blocks, as each depth of
    :func:`swfair.split.split` shares one, reports that flow's rounds.
    """

    ground: GroundSet = field(repr=False)
    min_value: float
    minimal_mask: int
    maximal_mask: int
    solver_used: str
    oracle_evals: int
    ground_size: int
    flow_rounds: int = 0

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
            "flow_rounds": self.flow_rounds,
            "ground_size": self.ground_size,
        }


def solve_sfm(f: SetFunction) -> SfmResult:
    """Minimize f over all subsets of its ground (empty set included).

    A view of a :class:`BitPoolSource` goes to the min cut, any other
    ground of at most ``EXHAUSTIVE_UP_TO`` users to the exhaustive sweep,
    and anything larger to min-norm point.  The rule has no override.  The
    min-norm path assumes f is submodular; the other two do not need to.
    """
    elems = bit_indices(f.ground_mask)
    if not elems:
        return SfmResult(f.ground, 0.0, 0, 0, "exhaustive", 0, 0)
    cut = coverage_cut(f, elems, [len(elems)], [0])
    if cut is not None:
        return cut_result(f.ground, cut,
                          cut_results(cut, TIE_EPSILON * f.scale), 0)
    if len(elems) <= EXHAUSTIVE_UP_TO:
        return _solve_exhaustive(f, elems)
    return _solve_min_norm(f, elems)


def _solve_exhaustive(f, elems) -> SfmResult:
    return sweep_results(f.ground, f.all_values(elems)[None],
                         np.asarray([elems]), TIE_EPSILON * f.scale)[0]


def sweep_results(ground, tables, elems, tol) -> list[SfmResult]:
    """Exact SFM results from a stack of same-size subset tables.

    Row t of ``tables`` holds a function's value at every subset of the
    positions elems[t], indexed by local submask.  Its result has the
    row's minimum and, as minimal and maximal minimizer, the intersection
    and the union of the subsets within ``tol`` of it.  A row whose union
    or intersection misses the minimum by more than ``tol`` (the function
    is not submodular, or the ties were an epsilon artifact) takes its
    smallest and largest tied subsets by cardinality instead.
    """
    m, size = tables.shape
    full = size - 1
    vmin = tables.min(axis=1)
    tied = tables <= (vmin + tol)[:, None]
    local = np.arange(size)
    union = np.bitwise_or.reduce(np.where(tied, local, 0), axis=1)
    inter = np.bitwise_and.reduce(np.where(tied, local, full), axis=1)
    rows = np.arange(m)
    # Lattice self-check: the union and intersection of tied minimizers
    # must attain the minimum themselves.
    lattice = ((tables[rows, union] <= vmin + tol)
               & (tables[rows, inter] <= vmin + tol))

    out = []
    for t, (lo, hi) in enumerate(zip(inter.tolist(), union.tolist())):
        if not lattice[t]:
            by_card = sorted(np.flatnonzero(tied[t]).tolist(),
                             key=lambda s: (s.bit_count(), s))
            lo, hi = by_card[0], by_card[-1]
        out.append(SfmResult(ground, float(vmin[t]),
                             global_mask(lo, elems[t]),
                             global_mask(hi, elems[t]), "exhaustive",
                             oracle_evals=size, ground_size=full.bit_length()))
    return out


def cut_results(cut, tol) -> tuple:
    """The maximum flow of bit-pool gains and its two sides, as lists.

    ``cut`` is :func:`swfair.setfn.coverage_cut`'s data for some blocks.
    Block t's function is g(X) = h(N(X)) - c(X) over its users, N(X) its
    bits that X observes, h(B) the entropy of the bits B and c its
    coefficients.  A cut with users X on the source side of the
    project-selection network (source -> user i with capacity c_i where
    c_i > 0, user i -> sink with capacity -c_i where c_i < 0, user -> each
    bit it observes uncapped, bit b -> sink with capacity h_b) costs c+(V)
    - c(X) + h(N(X)).  The blocks share no user and no bit, so one
    :func:`swfair.flow.bipartite_flow` runs on their union, contracted:

    * a bit only user i observes joins i's sink capacity s_i, since the
      uncapped edge to it puts it on i's side of every finite cut;
    * a user with source capacity a_i and sink capacity s_i keeps a_i - m_i
      and s_i - m_i, m_i = min(a_i, s_i), since every cut pays m_i for i
      on either side, so a user keeps a supply or a sink capacity.

    The flow's greedy start takes the observations of shared bits by their
    user's number of shared bits, then by their bit's number of observers,
    fewest first and otherwise in incidence order: that start is nearer a
    maximum flow, so fewer rounds remain.  Returns (from_source, to_sink,
    unused, rounds) as lists: per user of the cut, whether the source
    reaches it (those it reaches form the minimal minimizer) and whether it
    reaches the sink (those that do not, the maximal one), residual
    capacities at or below ``tol`` counting as zero; per block, the supply
    its users leave unused, which is minus its minimum; and the flow's
    breadth-first rounds, which :func:`cut_result` reports.
    """
    users, starts, user, bit, h, coef = cut
    c = len(users)
    observers = np.bincount(bit, minlength=len(h))
    private = observers[bit] == 1
    source_cap = np.maximum(coef, 0.0)
    sink_cap = np.bincount(user[private], weights=h[bit[private]],
                           minlength=c) - np.minimum(coef, 0.0)
    both = np.minimum(source_cap, sink_cap)
    source_cap -= both
    sink_cap -= both
    shared = observers > 1
    shared_user = user[~private]
    shared_bit = (np.cumsum(shared) - 1)[bit[~private]]
    # fewest choices first: a user with few shared bits, then a bit with
    # few observers, has the fewest other ways to route its flow
    first = np.lexsort((observers[shared][shared_bit],
                        np.bincount(shared_user, minlength=c)[shared_user]))
    unused, from_source, to_sink, rounds, _ = bipartite_flow(
        source_cap.tolist(), sink_cap.tolist(), h[shared].tolist(),
        shared_user[first].tolist(), shared_bit[first].tolist(), tol)
    return (from_source, to_sink,
            np.add.reduceat(unused, starts[:-1]).tolist(), rounds)


def cut_result(ground, cut, sides, t) -> SfmResult:
    """Block t's SFM result from ``cut`` and the ``sides`` that
    :func:`cut_results` found on it; ``oracle_evals`` is 0."""
    from_source, to_sink, unused, rounds = sides
    a, b = cut[1][t], cut[1][t + 1]
    here = cut[0][a:b].tolist()
    return SfmResult(
        ground, -unused[t],
        mask_from_indices(i for i, s in zip(here, from_source[a:b]) if s),
        mask_from_indices(i for i, s in zip(here, to_sink[a:b]) if not s),
        "min_cut", oracle_evals=0, ground_size=b - a, flow_rounds=rounds)


def _solve_min_norm(f, elems) -> SfmResult:
    x, stop = _wolfe(f, elems, MNP_GAP)
    tol = TIE_EPSILON * f.scale

    # Round the fractional point to sets.  Sorting x ascending makes both
    # lattice-extreme minimizers prefix sets of the order; evaluating every
    # prefix is cheap and guards against threshold misclassification.
    ordered = np.asarray(elems, dtype=np.intp)[np.argsort(x, kind="stable")]
    pv = f.prefix_values(ordered)
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
        # one prefix walk per greedy vertex, and one to round
        oracle_evals=(stop.vertices + 1) * len(pv),
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


# How a Wolfe run ended: only CONVERGED has passed the gap test.
CONVERGED, STALLED, CAPPED = "converged", "stalled", "capped"
OVERFLOWED = "overflowed"

# The bordered inverse of Wolfe's active set is rebuilt from scratch when a
# vertex it adds or drops has a Schur complement (its squared distance to
# the affine hull of the other active vertices) of at most SCHUR_FLOOR
# times its squared norm, or when one step of iterative refinement moves
# the affine coefficients by more than REFINE_SLACK * max(1, |coeff|).
SCHUR_FLOOR = 1e-10
REFINE_SLACK = 1e-6


class _Stop(str):
    """How a Wolfe run ended, equal to CONVERGED, STALLED, CAPPED or
    OVERFLOWED; ``gap`` is the relative gap its last major cycle reached,
    and ``vertices`` the number of greedy vertices it evaluated."""

    def __new__(cls, reason, gap, vertices):
        stop = super().__new__(cls, reason)
        stop.gap, stop.vertices = gap, vertices
        return stop


def _stop_reason(stop: _Stop) -> str:
    """Words for a Wolfe run that did not converge, for error messages."""
    if stop == STALLED:
        words = ("stalled before its gap test passed (the new vertex was "
                 "already active)")
    elif stop == OVERFLOWED:
        words = "overflowed (|x|^2 or <x, q> is not finite)"
    else:
        words = "hit the iteration cap (%d)" % MAX_ITERATIONS
    return "%s at relative gap %.3g" % (words, stop.gap)


# |x|^2 may overflow when values span the float range; the gap is then not
# finite and ends the run as OVERFLOWED, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _wolfe(f, elems, gap):
    """Wolfe's minimum-norm-point algorithm over the base polyhedron.

    Maintains x as a convex combination of greedy vertices (rows of S with
    coefficients lam).  Major cycles add the vertex minimizing <x, .>;
    minor cycles project onto the affine hull of the active vertices and
    prune until the projection is a proper convex combination.  As in
    Wolfe (1976) the active set keeps a factor of its normal equations
    across cycles, here the inverse of the bordered Gram matrix
    (:class:`_ActiveSet`), so a minor cycle (:func:`_affine_minimizer`)
    costs an O(m^2) update for m active vertices, not a new solve.  The
    inverse is rebuilt from scratch when the update is not safe: a vertex
    added or dropped lies all but in the affine hull of the others
    (``SCHUR_FLOOR``), or a step of iterative refinement moves the
    coefficients by more than ``REFINE_SLACK``.

    The iteration runs in the coordinates y = x / u, u the power of two at
    or below f's scale: it is the same, bit for bit, for a source times any
    power of two, and no scale of the source alone over- or underflows
    |y|^2.
    Returns x in f's own coordinates and how the run ended, a
    :class:`_Stop` that also carries the relative gap
    (|y|^2 - <y, q>) / |y|^2 of its last major cycle, q the greedy vertex
    along y: CONVERGED once that gap is at most ``gap``, or once |y| is at
    most TIE_EPSILON |q| (the minimum-norm point is 0 to the tie rule, as on
    a ground with one level, and rounding keeps the gap from falling),
    STALLED when the best vertex is already active before it is,
    OVERFLOWED when values near the float range overflow |y|^2, <y, q>
    or |q|^2 (no later cycle could pass the test, and the active set would
    grow without end), CAPPED at ``MAX_ITERATIONS`` major cycles.
    """
    elems_arr = np.asarray(elems, dtype=np.intp)
    c = len(elems)
    unit = math.ldexp(1.0, math.frexp(f.scale)[1] - 1)

    def vertex(direction):
        order = np.argsort(direction, kind="stable")
        return greedy_vertex_local(f, elems_arr, order) / unit

    active = _ActiveSet(vertex(np.zeros(c)))
    x = active.S[0].copy()
    lam = np.ones(1)
    reached = np.inf

    for cycle in range(MAX_ITERATIONS):
        q = vertex(x)
        xx, qq = x @ x, float(q @ q)
        slack = xx - x @ q
        reached = slack / xx
        if not (np.isfinite(slack) and np.isfinite(qq)):
            return x * unit, _Stop(OVERFLOWED, reached, cycle + 2)
        # a point at 0 (a ground with one level) rounds to |x| ~ 1e-16 |q|,
        # where the relative test cannot pass: it is 0 to the tie rule
        if slack <= gap * xx or xx <= TIE_EPSILON ** 2 * qq:
            return x * unit, _Stop(CONVERGED, reached, cycle + 2)
        Sq = active.S @ q
        if active.holds(q, Sq, qq):
            return x * unit, _Stop(STALLED, reached, cycle + 2)
        lam = np.append(lam, 0.0)
        coeff, y = _affine_minimizer(active, added=(q, Sq, qq))

        while True:
            if coeff.min() > 1e-12:
                x, lam = y, coeff
                break
            # step toward y until the first coefficient hits zero, drop it
            shrink = lam - coeff
            moving = shrink > 1e-14
            if not moving.any():
                # projection matches the current coefficients to precision
                lam = np.maximum(coeff, 0.0)
                lam = lam / lam.sum()
                x = active.S.T @ lam
                break
            theta = float(np.min(lam[moving] / shrink[moving]))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * coeff
            keep = lam > 1e-12
            if keep.all():
                keep[int(np.argmin(lam))] = False
            lam = lam[keep]
            lam = lam / lam.sum()
            coeff, y = _affine_minimizer(active, keep=keep)
    return x * unit, _Stop(CAPPED, reached, MAX_ITERATIONS + 1)


def _affine_minimizer(active, added=None, keep=None):
    """One minor cycle: edit the active set, then return the affine
    coefficients of the least-norm point of its affine hull, and the point.

    ``added`` is (q, S q, q.q) for the vertex a major cycle appends, and
    ``keep`` the mask of the rows a minor cycle keeps.  The coefficients
    are column 0 of the updated bordered inverse P below the border, after
    one step of iterative refinement on the bordered matrix M, so the cycle
    costs O(m^2) plus one S^T coeff product; a refinement step that moves
    them by more than ``REFINE_SLACK`` rebuilds the inverse instead.
    """
    if added is not None:
        active.add(*added)
    else:
        active.drop(keep)
    P = active.inv
    sol = P[:, 0]
    step = sol[1:] - P[1:] @ (active.M @ sol)
    coeff = sol[1:] + step
    if not step @ step <= REFINE_SLACK ** 2 * max(1.0, coeff @ coeff):
        active.rebuild()
        coeff = active.inv[1:, 0].copy()
    return coeff, active.S.T @ coeff


class _ActiveSet:
    """Wolfe's active vertices and the inverse of their bordered Gram matrix.

    The m vertices ``S`` and the bordered matrix ``M`` = [[0, 1^T],
    [1, S S^T]] are leading blocks of buffers that double when full, and
    ``inv`` is the inverse of M from the first vertex v on ([[-a, 1],
    [1, 0]] for a = v.v), so the affine minimizer's coefficients are
    ``inv[1:, 0]``.  Adding vertex q borders ``inv`` by the Schur complement
    q.q - b^T inv b, b = [1; S q], and dropping vertex j downdates it to
    P_rr - P_rj P_jr / P_jj before deleting row and column j: both O(m^2).
    Either falls back to :meth:`rebuild` when its Schur complement
    (1 / P_jj for a drop) is at most ``SCHUR_FLOOR`` times the vertex's
    squared norm, that is when the vertex is all but an affine combination
    of the others.
    """

    def __init__(self, v):
        self._rows = np.empty((32, len(v)))
        self._M = np.ones((33, 33))
        self._M[0, 0] = 0.0
        self._rows[0] = v
        self._M[1, 1] = self.scale = float(v @ v)
        self.m = 1
        self.inv = np.array([[-self.scale, 1.0], [1.0, 0.0]])

    @property
    def S(self) -> np.ndarray:
        return self._rows[:self.m]

    @property
    def M(self) -> np.ndarray:
        return self._M[:self.m + 1, :self.m + 1]

    def holds(self, q, Sq, qq) -> bool:
        """Whether an active row equals q to within 1e-12 per coordinate.

        Only rows whose |s_k - q|^2 = |s_k|^2 - 2 (S q)_k + q.q is within
        rounding of zero are compared coordinate by coordinate.
        """
        room = len(q) * (1e-24 + 1e-15 * (self.scale + qq)) - qq
        near = self.M.diagonal()[1:] - 2.0 * Sq <= room
        if not near.any():
            return False
        return bool(np.any(np.all(np.abs(self.S[near] - q) <= 1e-12, axis=1)))

    def add(self, q, Sq, qq):
        m = self.m
        if m == len(self._rows):
            self._rows = np.pad(self._rows, ((0, m), (0, 0)))
            self._M = np.pad(self._M, ((0, m), (0, m)), constant_values=1.0)
        self._rows[m] = q
        M = self._M
        M[m + 1, 1:m + 1] = M[1:m + 1, m + 1] = Sq
        M[m + 1, m + 1] = qq
        self.m = m + 1
        self.scale = max(self.scale, qq)
        b = M[m + 1, :m + 1]
        u = self.inv @ b
        schur = qq - float(b @ u)
        if schur > SCHUR_FLOOR * qq:
            w = u / schur
            self.inv = _border(self.inv + u[:, None] * w, -w, 1.0 / schur)
        else:
            self.rebuild()

    def drop(self, keep):
        M, P = self._M, self.inv
        for j in np.flatnonzero(~keep)[::-1] + 1:
            m = self.m
            if P is not None:
                pjj = P[j, j]
                if 0.0 < pjj and pjj * SCHUR_FLOOR * M[j, j] < 1.0:
                    P = _delete(P - P[:, j, None] * (P[j] / pjj), j)
                else:
                    P = None
            M[j:m, :m + 1] = M[j + 1:m + 1, :m + 1]
            M[:m, j:m] = M[:m, j + 1:m + 1]
            self._rows[j - 1:m - 1] = self._rows[j:m]
            self.m = m - 1
        if P is None:
            self.rebuild()
        else:
            self.inv = P

    def rebuild(self):
        """Invert the bordered matrix from scratch, by least squares when
        it is singular."""
        try:
            self.inv = np.linalg.inv(self.M)
        except np.linalg.LinAlgError:
            self.inv = np.linalg.lstsq(self.M, np.eye(self.m + 1),
                                       rcond=None)[0]


def _border(A, b, d):
    """The symmetric matrix [[A, b], [b^T, d]]."""
    n = len(A)
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = A
    out[n, :n] = out[:n, n] = b
    out[n, n] = d
    return out


def _delete(A, j):
    """A without its row and column j."""
    n = len(A) - 1
    out = np.empty((n, n))
    out[:j, :j] = A[:j, :j]
    out[:j, j:] = A[:j, j + 1:]
    out[j:, :j] = A[j + 1:, :j]
    out[j:, j:] = A[j + 1:, j + 1:]
    return out
