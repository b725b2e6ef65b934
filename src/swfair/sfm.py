"""Submodular function minimization with lattice-extreme minimizers.

:func:`solve_blocks` is the one routine that minimizes: it takes the
blocks of an ordered partition, each minimized on its minor after the
blocks before it, and every SFM of the library goes through it
(:func:`solve_sfm`, each depth of :func:`swfair.split.split`, and the
bit-pool routes of :func:`swfair.fairness.verify_membership` and
:func:`swfair.fairness.exchange_capacity`).  Two exact solvers share one
result type, and a fixed rule on the oracle picks one, with no override
and no fallback:

* an exact minimum cut for a view of a bit-pool source, of any size: the
  objective is a weighted coverage function minus a modular one, so its
  minimization is a project-selection problem (Rhys, "A selection problem
  of shared fixed costs and network flows", Mgmt. Sci. 1970; Picard,
  "Maximal closure of a graph and applications to combinatorial problems",
  Mgmt. Sci. 1976), solved by one max-flow in :mod:`swfair.flow`, in
  strongly polynomial time.  The blocks' networks share no user and no
  bit, so :func:`cut_results` solves them all in that one flow;
* for any other oracle, exhaustive enumeration up to ``BRUTE_FORCE_LIMIT``
  (20) users, which recovers the exact minimum and the minimal/maximal
  minimizers as the intersection/union of all tied minimizing subsets (the
  minimizer family of a submodular function is a lattice, so those are its
  bottom and top).  A larger ground of such an oracle is refused with
  :class:`swfair.setfn.GroundSetTooLargeError` before any subset is
  tabled.

The minimum-norm point of the base polyhedron itself is not exposed here:
:func:`swfair.split.egalitarian` at unit weights returns it exactly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .flow import bipartite_flow
from .setfn import (
    BRUTE_FORCE_LIMIT,
    TIE_EPSILON,
    GroundSet,
    SetFunction,
    _parts,
    bit_indices,
    coverage_cut,
    exhaustive_ground,
    global_mask,
    mask_from_indices,
    modular_sums,
)

# The operation a refused sweep names in its GroundSetTooLargeError.
SWEEP_NAME = "SFM of an oracle other than a bit pool"


@dataclass
class SfmResult:
    """Minimum value plus both lattice-extreme minimizers of one SFM solve.

    The minimizers are masks over ``ground``; ``minimal_minimizer`` and
    ``maximal_minimizer`` name their users.  ``flow_rounds`` counts a min
    cut's breadth-first rounds, and is 0 for the sweep; a block
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
    """Minimize f over all subsets of its ground (empty set included): one
    :func:`solve_blocks` of the ground as one block.

    A view of a :class:`BitPoolSource` goes to the min cut, any other
    ground of at most ``BRUTE_FORCE_LIMIT`` users to the exhaustive sweep,
    and anything larger raises :class:`GroundSetTooLargeError`.  The rule
    has no override, and neither solver needs f to be submodular.
    """
    elems = bit_indices(f.ground_mask)
    if not elems:
        return SfmResult(f.ground, 0.0, 0, 0, "exhaustive", 0, 0)
    return solve_blocks(f, elems, [len(elems)], [0])[2](0)


def solve_blocks(f: SetFunction, order, sizes, tests,
                 coeffs: np.ndarray | None = None) -> tuple:
    """Minimize f's gains over the blocks ``tests`` of an ordered partition.

    Block j is the run of ``sizes[j]`` global positions of ``order`` after
    the runs of the blocks before it, and S_j is their union.  Block j's
    function is its gains f(S_j | X) - f(S_j) - c(X) over its subsets X:
    f's minor after S_j up to its contraction's carry, which cancels in
    every tie, less the modular function c with the per-user ``coeffs``
    (0 if None).  A block outside ``tests`` only enters the S_j, so it may
    be of any size; a tested block has at least one user.  Returns
    (outside, gains, result): per position of ``order``, 1 if it lies
    outside its tested block's maximal minimizer, else 0; per tested block
    D_j, in the order of ``tests``, f's gains over that minimizer M and
    over the rest R, (f(S_j | M) - f(S_j), f(S_j | D_j) - f(S_j | M));
    and result(t), the :class:`SfmResult` of block tests[t] (None if
    ``tests`` is empty), which only :func:`swfair.split.split`'s tree and
    single solves build.  The gains leave c out: its minimum f(S_j | M) -
    f(S_j) - c(M) holds the same in exact arithmetic, but a min cut finds
    it only within the tie tolerance, and c(M) can dwarf the gain.

    The rule is :func:`solve_sfm`'s.  On a bit-pool view one
    :func:`swfair.setfn.coverage_cut` builds the blocks' networks, one
    flow solves them (:func:`cut_results`), :func:`cut_gains` sums each
    block's bits by whether M observes them, and result reads the flow's
    sides (:func:`cut_result`).  Otherwise a ground above
    ``BRUTE_FORCE_LIMIT`` users raises :class:`GroundSetTooLargeError`,
    and each tested block's gains are tabled by one ``f.all_values`` over
    it at S_j, less the table's entry at 0, read at M and at the block, and
    swept less c's :func:`swfair.setfn.modular_sums` (:func:`sweep_result`).
    """
    order = np.asarray(order, dtype=np.intp)
    outside = np.zeros(len(order), dtype=np.intp)
    if not tests:
        return outside, [], None
    tol = TIE_EPSILON * f.scale
    cut = coverage_cut(f, order, sizes, tests, coeffs)
    if cut is not None:
        sides = cut_results(cut, tol)
        tested = np.zeros(len(sizes), dtype=bool)
        tested[tests] = True
        outside[np.repeat(tested, sizes)] = sides[1]
        return (outside, cut_gains(cut, sides[1], _parts(f)[3]),
                functools.partial(cut_result, f.ground, cut, sides))
    exhaustive_ground(f, BRUTE_FORCE_LIMIT, SWEEP_NAME)
    starts = [0, *itertools.accumulate(sizes)]
    positions = order.tolist()
    found, gains = [], []
    for j in tests:
        a, b = starts[j], starts[j + 1]
        table = f.all_values(positions[a:b], mask_from_indices(positions[:a]))
        table = table - table[0]
        found.append(sweep_result(f.ground, table if coeffs is None else (
            table - modular_sums(coeffs[order[a:b]])), positions[a:b], tol))
        inside = [found[-1].maximal_mask >> i & 1 for i in positions[a:b]]
        outside[a:b] = [not x for x in inside]
        gain = float(table[mask_from_indices(
            itertools.compress(range(b - a), inside))])
        gains.append((gain, float(table[-1]) - gain))
    return outside, gains, found.__getitem__


def _solve_exhaustive(f, elems) -> SfmResult:
    """The sweep of f over the positions ``elems``, with no size check: the
    reference the min cut is tested against."""
    return sweep_result(f.ground, f.all_values(elems), elems,
                        TIE_EPSILON * f.scale)


def sweep_result(ground, table, elems, tol) -> SfmResult:
    """Exact SFM result from a subset table.

    ``table`` holds a function's value at every subset of the positions
    ``elems``, indexed by local submask.  The result has its minimum and,
    as minimal and maximal minimizer, the intersection and the union of
    the subsets within ``tol`` of it.  If the union or intersection misses
    the minimum by more than ``tol`` (the function is not submodular, or
    the ties were an epsilon artifact), the smallest and largest tied
    subsets by cardinality are taken instead.
    """
    full = len(table) - 1
    vmin = float(table.min())
    tied = np.flatnonzero(table <= vmin + tol)
    lo = int(np.bitwise_and.reduce(tied, initial=full))
    hi = int(np.bitwise_or.reduce(tied))
    # Lattice self-check: the union and intersection of tied minimizers
    # must attain the minimum themselves.
    if not (table[lo] <= vmin + tol and table[hi] <= vmin + tol):
        by_card = sorted(tied.tolist(), key=lambda s: (s.bit_count(), s))
        lo, hi = by_card[0], by_card[-1]
    return SfmResult(ground, vmin, global_mask(lo, elems),
                     global_mask(hi, elems), "exhaustive",
                     oracle_evals=len(table), ground_size=full.bit_length())


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
    seen_by = observers[bit]
    private = seen_by == 1
    source_cap = np.maximum(coef, 0.0)
    sink_cap = np.bincount(user[private], weights=h[bit[private]],
                           minlength=c) - np.minimum(coef, 0.0)
    both = np.minimum(source_cap, sink_cap)
    source_cap -= both
    sink_cap -= both
    shared = observers > 1
    on_shared = ~private
    shared_user = user[on_shared]
    shared_bit = (np.cumsum(shared) - 1)[bit[on_shared]]
    # fewest choices first: a user with few shared bits, then a bit with
    # few observers, has the fewest other ways to route its flow
    first = np.lexsort((seen_by[on_shared],
                        np.bincount(shared_user, minlength=c)[shared_user]))
    unused, from_source, to_sink, rounds, _ = bipartite_flow(
        source_cap.tolist(), sink_cap.tolist(), h[shared].tolist(),
        shared_user[first].tolist(), shared_bit[first].tolist(), tol)
    return (from_source, to_sink,
            np.add.reduceat(unused, starts[:-1]).tolist(), rounds)


def cut_gains(cut, to_sink, own) -> list:
    """Per block of ``cut``, its view's gains over the block's maximal
    minimizer M and over the rest R, as pairs.

    ``cut`` is :func:`swfair.setfn.coverage_cut`'s data, ``to_sink`` the
    flow's per-user side from :func:`cut_results` (M is the users that do
    not reach the sink), and ``own`` the view's own coefficients over its
    ground, or None.  Every bit of a block is new to it, so f(S | M) - f(S)
    is the entropy of the block's bits that M observes less own(M), and
    f(S | D) - f(S | M) that of its other bits less own(R).
    """
    users, starts, user, bit, h, _ = cut
    k = len(starts) - 1
    rest = np.array(to_sink)
    block = np.repeat(np.arange(k), np.diff(starts))
    # bin t for the bits of block t that M observes, bin k + t for the rest
    bins = np.empty(len(h), dtype=np.intp)
    bins[bit] = block[user] + k
    bins[bit[~rest[user]]] -= k
    gains = np.zeros(2 * k)
    gains += np.bincount(bins, weights=h, minlength=2 * k)
    if own is not None:
        gains -= np.bincount(block + k * rest, weights=own[users],
                             minlength=2 * k)
    return list(zip(gains[:k].tolist(), gains[k:].tolist()))


def cut_result(ground, cut, sides, t) -> SfmResult:
    """Block t's SFM result from ``cut`` and the ``sides`` that
    :func:`cut_results` found on it; ``oracle_evals`` is 0.  The maximal
    minimizer is the block less the users that reach the sink."""
    from_source, to_sink, unused, rounds = sides
    a, b = cut[1][t], cut[1][t + 1]
    here = cut[0][a:b].tolist()
    return SfmResult(
        ground, -unused[t],
        mask_from_indices(itertools.compress(here, from_source[a:b])),
        mask_from_indices(here)
        ^ mask_from_indices(itertools.compress(here, to_sink[a:b])),
        "min_cut", oracle_evals=0, ground_size=b - a, flow_rounds=rounds)
