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
    BRUTE_FORCE_LIMIT,
    CountingFunction,
    GroundSet,
    SetFunction,
    bit_indices,
    coverage_cut,
    exhaustive_ground,
    global_mask,
    greedy_vertex_local,
    mask_from_indices,
)


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best result found so far.

    ``recursion_path`` holds the labels of the blocks ``split`` was solving
    when the solve failed, outermost first; ``str`` names them.
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


# Bit-pool views above this many users take the min cut.  On seed-0
# ``sweep`` sub-blocks (20 per size, best of 5 runs each) the median solve
# took 0.22 / 0.25 / 0.35 / 0.54 / 0.91 / 1.6 / 3.1 ms by the sweep against
# 0.22 / 0.21 / 0.22 / 0.24 / 0.25 / 0.30 / 0.25 ms by the min cut
# (contracted, warm-started) at 10 to 16 users (perf_counter, 2 vCPUs).
# The cut wins from 11 users on, but the ``sweep`` benchmark did not move
# with the constant at 10: op_s.p50 0.0120-0.0121 s against 0.0120-0.0122
# s at 12 (seed 7, three runs each, with the earlier blocking-flow kernel).
# With the uncontracted cold-start flow the median ``split`` of the 128
# ``sweep`` models took 0.0141 s with the cut above 16 users, 0.0122 s
# above 12 and 0.0149 s at every size.
MIN_CUT_ABOVE = 12

# Any other ground up to this many users is swept, which is exact where
# Wolfe stops at a gap: on bit-pool values behind an opaque oracle the
# median sweep took 0.78 / 3.7 / 16 ms at 14 / 16 / 18 users and Wolfe
# 1.7 / 2.3 / 2.4 ms (8 random models per size).  On a TableSource, whose
# sweep is one gather, it took 0.41-0.46 / 1.1-1.2 / 2.9-4.3 / 16-17 ms at
# 12 / 14 / 16 / 18 users and Wolfe 1.4-1.8 / 1.8-2.1 / 1.4-2.5 /
# 2.3-2.5 ms (8 random tables per size, three runs).  All times:
# perf_counter, 2 vCPUs.
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
    exhaustive_ground(f, BRUTE_FORCE_LIMIT, "subset-sweep SFM")
    c = len(elems)
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
    B.  A cut with users X on the source side of the project-selection
    network (source -> user i with capacity c_i where c_i > 0, user i ->
    sink with capacity -c_i where c_i < 0, user -> each bit it observes
    outside N(P) uncapped, bit b -> sink with capacity h_b) costs c+(V) -
    c(X) + h(N(X) - N(P)).  The flow runs on that network contracted:

    * a bit only user i observes joins i's sink capacity s_i, since the
      uncapped edge to it puts it on i's side of every finite cut;
    * a user with source capacity a_i and sink capacity s_i keeps a_i - m_i
      and s_i - m_i, m_i = min(a_i, s_i), since every cut pays m_i for i
      on either side;

    so only the bits two or more users observe remain nodes.  The flow
    starts from one greedy pass over their observations, each pushing as
    much of its user's remaining source capacity as its bit has room for.
    The maximum flow F of the contracted network is c+(V) + min f - offset
    - sum m_i, so ``min_value`` is offset + F + sum m_i - c+(V).  Users the
    source reaches in the residual graph form the minimal minimizer, and
    users that do not reach the sink the maximal one; residual capacities
    at or below TIE_EPSILON times the larger of 1, h(N(V) - N(P)) and
    sum |c_i| count as zero.  The source's incidence is read directly and
    no oracle is called, so ``oracle_evals`` is 0.
    """
    user, bit, h, coef, offset = cut
    c = len(elems)
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
    bit_cap = h[shared]
    # nodes: 0 the source, 1 the sink, 2..c+1 the users, then shared bits
    gain = np.flatnonzero(source_cap > 0.0)
    loss = np.flatnonzero(sink_cap > 0.0)
    bit_node = np.arange(c + 2, c + 2 + len(bit_cap))
    tails = np.concatenate([np.zeros(len(gain), dtype=np.intp), loss + 2,
                            shared_user + 2, bit_node])
    heads = np.concatenate([gain + 2, np.ones(len(loss), dtype=np.intp),
                            shared_bit + c + 2,
                            np.ones(len(bit_cap), dtype=np.intp)])
    caps = np.concatenate([source_cap[gain], sink_cap[loss],
                           np.full(len(shared_user), np.inf), bit_cap])
    # the greedy start, edge by edge in the order above; sent[i] and got[b]
    # add up what user i sent and bit b took
    supply, sent = source_cap.tolist(), [0.0] * c
    room, got = bit_cap.tolist(), [0.0] * len(bit_cap)
    pushed = []
    for i, b in zip(shared_user.tolist(), shared_bit.tolist()):
        # plain comparisons: min and max calls triple this loop's cost
        x = supply[i] - sent[i]
        free = room[b] - got[b]
        if free < x:
            x = free
        if x > 0.0:
            sent[i] += x
            got[b] += x
        else:
            x = 0.0
        pushed.append(x)
    start = [sent[i] for i in gain.tolist()] + [0.0] * len(loss) + pushed + got
    scale = max(1.0, float(h.sum()), float(np.abs(coef).sum()))
    flow, from_source, to_sink = max_flow(
        c + 2 + len(bit_cap), tails.tolist(), heads.tolist(), caps.tolist(),
        0, 1, TIE_EPSILON * scale, start)
    minimal_mask = mask_from_indices(
        e for e, s in zip(elems, from_source[2:c + 2]) if s)
    maximal_mask = mask_from_indices(
        e for e, t in zip(elems, to_sink[2:c + 2]) if not t)
    return SfmResult(
        ground=f.ground,
        min_value=(offset + flow + float(both.sum())
                   - float(coef[coef > 0.0].sum())),
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
    OVERFLOWED; ``gap`` is the relative gap its last major cycle reached."""

    def __new__(cls, reason, gap):
        stop = super().__new__(cls, reason)
        stop.gap = gap
        return stop


def _stop_reason(stop: _Stop) -> str:
    """Words for a Wolfe run that did not converge, for error messages."""
    if stop == STALLED:
        words = ("stalled before its gap test passed (the new vertex was "
                 "already active)")
    elif stop == OVERFLOWED:
        words = "overflowed (|x|^2 is not finite)"
    else:
        words = "hit the iteration cap (%d)" % MAX_ITERATIONS
    return "%s at relative gap %.3g" % (words, stop.gap)


# |x|^2 may overflow on finite values near the float range; the NaN gap
# that follows ends the run as OVERFLOWED, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def _wolfe(f, elems, gap, scale=None):
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

    With ``scale`` s (positive, one entry per element) the iteration runs
    in the coordinates y = x / s, so it minimizes sum(x_i^2 / s_i^2): with
    s = sqrt(w) that is the weighted egalitarian objective (Fujishige 1980).
    Returns x in f's own coordinates and how the run ended, a
    :class:`_Stop` that also carries the relative gap
    (|y|^2 - <y, q>) / max(1, |y|^2) of its last major cycle, q the greedy
    vertex along y: CONVERGED once that gap is at most ``gap``, STALLED
    when the best vertex is already active before it is, OVERFLOWED when
    the gap is NaN because |y|^2 overflowed (no later cycle could pass the
    test, and the active set would grow without end), CAPPED at
    ``MAX_ITERATIONS`` major cycles.
    """
    elems_arr = np.asarray(elems, dtype=np.intp)
    c = len(elems)
    s = np.ones(c) if scale is None else scale

    def vertex(direction):
        order = np.argsort(direction / s, kind="stable")
        return greedy_vertex_local(f, elems_arr, order) / s

    active = _ActiveSet(vertex(np.zeros(c)))
    x = active.S[0].copy()
    lam = np.ones(1)
    reached = np.inf

    for _ in range(MAX_ITERATIONS):
        q = vertex(x)
        xx = float(x @ x)
        xq = float(x @ q)
        reached = (xx - xq) / max(1.0, xx)
        if xx - xq <= gap * max(1.0, xx):
            return x * s, _Stop(CONVERGED, reached)
        if reached != reached:
            return x * s, _Stop(OVERFLOWED, reached)
        Sq, qq = active.S @ q, float(q @ q)
        if active.holds(q, Sq, qq):
            return x * s, _Stop(STALLED, reached)
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
    return x * s, _Stop(CAPPED, reached)


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
