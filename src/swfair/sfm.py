"""Submodular function minimization with lattice-extreme minimizers.

Two exact solvers share one result type, and a fixed rule on the oracle
picks one, with no override and no fallback:

* an exact minimum cut for a view of a bit-pool source, of any size: the
  objective is a weighted coverage function minus a modular one, so its
  minimization is a project-selection problem (Rhys, "A selection problem
  of shared fixed costs and network flows", Mgmt. Sci. 1970; Picard,
  "Maximal closure of a graph and applications to combinatorial problems",
  Mgmt. Sci. 1976), solved by one max-flow in :mod:`swfair.flow`, in
  strongly polynomial time.  :func:`cut_results` solves any number of such
  networks with disjoint users and bits in that one flow, which is how
  :func:`swfair.split.split` settles every block of a depth at once;
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

from dataclasses import dataclass, field

import numpy as np

from .flow import bipartite_flow
from .setfn import (
    BRUTE_FORCE_LIMIT,
    TIE_EPSILON,
    GroundSet,
    SetFunction,
    bit_indices,
    coverage_cut,
    exhaustive_ground,
    global_mask,
    mask_from_indices,
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
    """Minimize f over all subsets of its ground (empty set included).

    A view of a :class:`BitPoolSource` goes to the min cut, any other
    ground of at most ``BRUTE_FORCE_LIMIT`` users to the exhaustive sweep,
    and anything larger raises :class:`GroundSetTooLargeError`.  The rule
    has no override, and neither solver needs f to be submodular.
    """
    elems = bit_indices(f.ground_mask)
    if not elems:
        return SfmResult(f.ground, 0.0, 0, 0, "exhaustive", 0, 0)
    cut = coverage_cut(f, elems, [len(elems)], [0])
    if cut is not None:
        return cut_result(f.ground, cut,
                          cut_results(cut, TIE_EPSILON * f.scale), 0)
    exhaustive_ground(f, BRUTE_FORCE_LIMIT, SWEEP_NAME)
    return _solve_exhaustive(f, elems)


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
