"""Weighted egalitarian rates over a submodular rate region.

The weighted egalitarian allocation is the minimizer of sum(r_i^2 / w_i)
over the base polyhedron of the entropy oracle.  Two routes compute it.

:func:`split` is the paper's divide-and-conquer scheme: score the whole
block at the uniform ratio lam = f(C)/w(C), find the maximal minimizer of
f - lam*w, and either stop (the block is uniform, r = lam*w) or split into
that minimizer and its complement, the complement continuing on the
contracted oracle after an early base assignment of f(block)/w(block) * w.
Every recursion is recorded in a :class:`SplitTree`: per-node subsets,
ratios, SFM results, and the ordered base-assignment events that trace the
rate vector's walk through the polyhedron.  The two subcalls of a split are
independent, so with both run at once the critical path is the larger of
each pair; :func:`recursion_metrics` reports that workload as ``max_size``.

:func:`decompose` is the engine, and :func:`egalitarian` returns the rates
of its chain.  The egalitarian point is also the minimum-norm base in
coordinates scaled by sqrt(w) (Fujishige 1980), so one Wolfe solve proposes
an ordered partition of the users: sort its point by r/w and cut wherever a
prefix is tight.  That solve stops at the loose gap ``PROPOSAL_GAP``, so
the point is only approximate, and each block D_j is confirmed exactly.
The prefix walk that cut the blocks gives every block's ratio rho_j =
(f(S_j) - f(S_{j-1})) / w(D_j), S_j the union of the first j blocks, and a
one-user block is a leaf at it with no solve.  The blocks of 2 to
``MIN_CUT_ABOVE`` (12) users are tested together: one
``f.block_values`` call gives each of them the gains f(S_{j-1} | X) -
f(S_{j-1}) of all its subsets X (for a bit pool, one pass over the
incidence for every block), and D_j is one leaf at rho_j if it minimizes
gains - rho_j * w within ``TIE_EPSILON`` times f's scale.  That is split's
leaf test on the block's minor, whose contraction carry cancels in the
difference.  A larger block, or one that fails the test, goes through
split's recursion on its minor.  If the leaf ratios do not increase along
the blocks, the engine logs it on ``swfair.split`` and runs :func:`split`
instead, merging its leaves by the same rule, so every answer meets the
leaf criterion that split meets.

One certificate guards every answer: every chain set is tight by
construction, the critical values must increase strictly
(:class:`InternalConsistencyError` otherwise), and up to
``BRUTE_FORCE_LIMIT`` (20) users :func:`certify` runs ``swfair verify``'s
region check (:class:`CertificationError` otherwise, a non-submodular
source).  Together these make each chain set the maximal minimizer at its
critical value, so no chain set is solved again.  The split tree, the
adaptation path and the size sweep still run :func:`split`.  Two adjacent
ratios tie within ``TIE_EPSILON`` times the larger of the two, and every
modular shift lam * w is formed over its block's users only, so weights
scaled by one factor give the same chain and the same rates, and weights
from 1e-200 to 1e200 neither merge distinct levels nor overflow.

Both routes turn their ordered levels into rates the same way: lam_j =
(f(S_j) - f(S_{j-1})) / w(D_j) from one prefix walk over the chain, and
r_i = lam_j * w_i on level D_j.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .fairness import verify_membership
from .setfn import (
    BRUTE_FORCE_LIMIT,
    TIE_EPSILON,
    GroundSet,
    RateVector,
    SetFunction,
    WeightVector,
    add_modular,
    bit_indices,
    contract,
    mask_array,
    mask_from_indices,
    minor,
    modular_sums,
    restrict,
)
from .sfm import (
    CAPPED,
    MIN_CUT_ABOVE,
    ConvergenceError,
    SfmResult,
    _stop_reason,
    _wolfe,
    solve_sfm,
)

logger = logging.getLogger(__name__)

# adaptation_path materializes one rate vector per base assignment, so it
# refuses larger grounds, and the JSON tree leaves it out.
PATH_USER_LIMIT = 64

# Relative Wolfe gap at which the engine's proposal stops.  The proposal
# only places the level cuts, and every block is confirmed exactly
# afterwards, so it need not be accurate.
# Wolfe's last digits are its dearest and vary the most between sources:
# on 256-user bit pools the proposal took 160 to 2000 major cycles to reach
# a gap of 1e-10 but 90 to 180 to reach 1e-5, and the few blocks a 1e-5
# point leaves unresolved cost far less to confirm than the cycles saved.
PROPOSAL_GAP = 1e-5


class InternalConsistencyError(RuntimeError):
    """A structural self-check failed (usually a solver-tolerance issue)."""


class CertificationError(RuntimeError):
    """A computed allocation failed its certificate and is refused.

    Raised when the rates are outside the rate region of the source, which
    for a submodular source cannot happen; the source is then most likely
    not submodular.
    """


@dataclass
class SplitNode:
    """One recursive call: its subset, ratio, SFM outcome, and children."""

    subset_mask: int
    lam: float
    sfm: SfmResult
    base_coeff: float | None            # f(block)/w(block), None at leaves
    children: tuple | None              # (block child, complement child)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def to_dict(self, ground: GroundSet) -> dict:
        doc = {
            "subset": sorted(ground.users_of(self.subset_mask)),
            "lam": self.lam,
            "sfm": self.sfm.to_dict(),
            "is_leaf": self.is_leaf,
        }
        if not self.is_leaf:
            doc["base_coeff"] = self.base_coeff
            doc["children"] = [c.to_dict(ground) for c in self.children]
        return doc


@dataclass
class SplitTree:
    """Complete recursion record of one egalitarian solve."""

    ground: GroundSet
    root: SplitNode
    subset_mask: int
    weights: WeightVector
    events: list                        # ordered (mask, coeff) base assignments
    leaves: list                        # (mask, absolute ratio) per leaf
    rates: RateVector

    def to_dict(self) -> dict:
        """JSON form of the tree.

        The adaptation path is left out above ``PATH_USER_LIMIT`` users,
        where :func:`adaptation_path` refuses to materialize it.
        """
        doc = {
            "subset": sorted(self.ground.users_of(self.subset_mask)),
            "rates": self.rates.as_dict(),
            "metrics": recursion_metrics(self),
            "root": self.root.to_dict(self.ground),
        }
        if self.ground.n <= PATH_USER_LIMIT:
            doc["adaptation_path"] = [v.as_dict() for v in adaptation_path(self)]
        return doc


def split(f: SetFunction, w: WeightVector) -> tuple[RateVector, SplitTree]:
    """Weighted egalitarian allocation over the rate region of f.

    Returns the optimal rates together with the full recursion tree,
    including the base-assignment events behind :func:`adaptation_path`.
    The users are f's ground; view a sub-ground with :func:`restrict`.
    """
    cmask = _nonempty_ground(f)
    node, events, leaves = _split_block(f, w, cmask, 0.0, (),
                                        mask_array(cmask, f.ground.n))
    rv = _chain(f, w, [mask for mask, _ in leaves]).reconstruct()
    return rv, SplitTree(f.ground, node, cmask, w, events, leaves, rv)


def _nonempty_ground(f: SetFunction) -> int:
    if f.ground_mask == 0:
        raise ValueError("cannot split an empty ground")
    return f.ground_mask


def _split_block(f, w, cmask, carry, path, in_block):
    """Recursive worker; f's ground is exactly cmask.

    ``carry`` is the accumulated ratio offset of the contractions above this
    block, so a leaf's absolute ratio is carry + f(C)/w(C), and ``in_block``
    is cmask as a boolean array over the ground, which sums w(C) and bounds
    every modular shift to the block's users.  Returns the node plus the
    ordered base-assignment events and leaf assignments beneath it.
    A one-user block is a leaf without a solve: at lam both of its subsets
    are worth 0, so its result is the one an exhaustive sweep would return.
    """
    lam = f.value(cmask) / float(w.values[in_block].sum())
    if cmask.bit_count() == 1:
        res = SfmResult(f.ground, 0.0, 0, cmask, "exhaustive",
                        oracle_evals=0, ground_size=1)
        return SplitNode(cmask, lam, res, None, None), [], [(cmask, carry + lam)]
    objective = add_modular(f, w.times(lam, in_block))
    try:
        res = solve_sfm(objective)
    except ConvergenceError as e:
        e.recursion_path = path + (subset_label(f.ground, cmask),)
        raise
    block = res.maximal_mask
    if block == cmask:
        node = SplitNode(cmask, lam, res, None, None)
        return node, [], [(cmask, carry + lam)]
    if block == 0:
        raise InternalConsistencyError(
            "SFM returned an empty maximal minimizer at %s"
            % (subset_label(f.ground, cmask),))

    rest = cmask & ~block
    in_part = mask_array(block, f.ground.n)
    in_rest = in_block & ~in_part
    h_block = f.value(block)
    base_coeff = h_block / float(w.values[in_part].sum())
    here = path + (subset_label(f.ground, cmask),)
    block_node, block_events, block_leaves = _split_block(
        restrict(f, block), w, block, carry, here, in_part)
    # the minor of block over rest (swfair.setfn.minor), on masks in hand
    rest_view = add_modular(contract(f, block, rest, h_block),
                            w.times(base_coeff, in_rest))
    rest_node, rest_events, rest_leaves = _split_block(
        rest_view, w, rest, carry + base_coeff, here, in_rest)
    node = SplitNode(cmask, lam, res, base_coeff, (block_node, rest_node))
    events = block_events + [(rest, base_coeff)] + rest_events
    leaves = block_leaves + rest_leaves
    return node, events, leaves


def egalitarian(f: SetFunction, w: WeightVector) -> RateVector:
    """Weighted egalitarian allocation from one weighted min-norm solve.

    Returns the same rates as :func:`split`, without its recursion tree:
    the rates of the certified chain that :func:`decompose` returns, which
    raises the same errors.
    """
    return decompose(f, w).reconstruct()


def _propose(f, w) -> tuple[list[int], np.ndarray]:
    """Ordered partition of f's ground from one weighted min-norm solve.

    The Wolfe point in coordinates scaled by sqrt(w), run to the relative
    gap ``PROPOSAL_GAP``, is sorted by x/w and cut after every prefix that
    is tight to within TIE_EPSILON times f's scale.  Returns the blocks
    D_1, ..., D_k and f(S_0), ..., f(S_k), S_j = D_1 | ... | D_j, from the
    prefix walk that found the cuts.  A point that stalled or overflowed
    before its gap test is still a proposal, which the exact confirm step
    checks; the iteration cap raises :class:`ConvergenceError`.
    """
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    w_loc = w.values[elems]
    x, stop = _wolfe(f, elems, PROPOSAL_GAP, scale=np.sqrt(w_loc))
    if stop == CAPPED:
        best = np.zeros(f.ground.n)
        best[elems] = x
        raise ConvergenceError(
            "egalitarian proposal %s on %d users"
            % (_stop_reason(stop), len(elems)),
            best=RateVector(f.ground, best, f.ground_mask))
    rank = np.argsort(x / w_loc, kind="stable")
    order = elems[rank]
    pv = f.prefix_values(order)
    slack = pv[1:] - np.cumsum(x[rank])
    tol = TIE_EPSILON * f.scale
    cuts = [0, *(np.flatnonzero(slack[:-1] <= tol) + 1).tolist(), len(order)]
    order = order.tolist()
    return ([mask_from_indices(order[a:b]) for a, b in zip(cuts, cuts[1:])],
            pv[cuts])


def _confirm(f, w, blocks, walk) -> Decomposition:
    """Chain of f's egalitarian levels, given a proposed ordered partition.

    ``walk`` holds f(S_0), ..., f(S_k), S_j = D_1 | ... | D_j, as
    :func:`_propose` returns them, so each block's ratio rho_j = (f(S_j) -
    f(S_{j-1})) / w(D_j) takes no oracle call.  A one-user block is a leaf
    at that ratio, with no solve.  Every block of 2 to ``MIN_CUT_ABOVE``
    users takes its leaf test from one batched ``f.block_values`` call,
    which gives the gains f(S_{j-1} | X) - f(S_{j-1}) over the block's
    subsets X: the block is a leaf at rho_j if it is the maximal minimizer
    of gains - rho_j * w within the tie tolerance (:func:`_uniform`), as
    split's exhaustive sweep would find on its minor.  A larger block, or
    one that fails the test, runs split's recursion on its minor: D_j after
    S_{j-1} is contracted at carry f(S_{j-1})/w(S_{j-1}), built from the
    walk (:func:`swfair.setfn.minor`).  Adjacent leaves whose ratios agree
    to within the tie tolerance are one level.  If the leaf ratios then do
    not increase, the proposal was not the egalitarian chain, and
    :func:`split` on all of f decides instead, its leaves merged into
    levels by the same rule.
    """
    order = [i for b in blocks for i in bit_indices(b)]
    pv = walk.tolist()
    w_order = w.values[order].tolist()
    w_prefix = [0.0, *np.cumsum(w_order).tolist()]
    sizes = [b.bit_count() for b in blocks]
    starts = [0, *itertools.accumulate(sizes)]
    w_blocks = [w_order[a:b] for a, b in zip(starts, starts[1:])]
    ratios = [(b - a) / sum(w_block)
              for a, b, w_block in zip(pv, pv[1:], w_blocks)]
    small = [j for j, c in enumerate(sizes) if 1 < c <= MIN_CUT_ABOVE]
    uniform = _uniform(small, f.block_values(blocks, small), ratios,
                       w_blocks, TIE_EPSILON * f.scale)
    leaves = []
    done = 0
    for j, block in enumerate(blocks):
        if sizes[j] == 1 or j in uniform:
            leaves.append((block, ratios[j]))
        else:
            if done:
                w_done = w_prefix[starts[j]]
                sub = minor(f, done, block, pv[j], w_done, w)
                carry = pv[j] / w_done
            else:
                sub, carry = restrict(f, block), 0.0
            leaves += _split_block(sub, w, block, carry, (),
                                   mask_array(block, f.ground.n))[2]
        done |= block
    levels = _levels(leaves)
    if levels is None:
        logger.info("proposed leaf ratios decrease on %s; running split",
                    subset_label(f.ground, f.ground_mask))
        _, tree = split(f, w)
        levels = _levels(tree.leaves)
        if levels is None:
            raise InternalConsistencyError(
                "split's leaf ratios decrease on %s"
                % subset_label(f.ground, f.ground_mask))
    return _chain(f, w, levels)


def _uniform(small, tables, ratios, w_blocks, tol) -> set[int]:
    """The blocks among ``small`` that are one level at their ratio.

    tables[t] holds the gains f(S | X) - f(S) of every subset X of block
    small[t] over the blocks S before it.  A block is one level when the
    whole block minimizes gains - ratio * w within ``tol``: the
    contraction's carry cancels in that difference, and the whole block is
    then the maximal minimizer that split's exhaustive sweep returns on its
    minor.  The blocks of one size are tested together.
    """
    by_size = {}
    for j, gains in zip(small, tables):
        by_size.setdefault(len(gains), []).append((j, gains))
    uniform = set()
    for group in by_size.values():
        js = [j for j, _ in group]
        excess = (np.stack([gains for _, gains in group])
                  - np.array([ratios[j] for j in js])[:, None]
                  * modular_sums(np.array([w_blocks[j] for j in js])))
        leaf = excess[:, -1] - excess.min(axis=1) <= tol
        uniform.update(itertools.compress(js, leaf))
    return uniform


def _levels(leaves) -> list[int] | None:
    """Leaf masks merged into levels, or None if their ratios decrease.

    Adjacent ratios tie within TIE_EPSILON times the larger of the two.
    """
    levels = [leaves[0][0]]
    last = leaves[0][1]
    for mask, lam in leaves[1:]:
        tol = TIE_EPSILON * max(abs(last), abs(lam))
        if lam < last - tol:
            return None
        if lam <= last + tol:
            levels[-1] |= mask
        else:
            levels.append(mask)
        last = lam
    return levels


def _chain(f, w, levels) -> Decomposition:
    """Critical ratios of ordered levels D_1, ..., D_k of f's ground.

    lam_j = (f(S_j) - f(S_{j-1})) / w(D_j) with S_j = D_1 | ... | D_j, all
    values from one prefix walk that visits the levels in turn, each in
    ascending position, and w(D_j) summed over the same positions of that
    walk.  Every egalitarian result is built here, so equal chains give
    bit-identical rates.
    """
    order = np.asarray([i for level in levels for i in bit_indices(level)],
                       dtype=np.intp)
    pv = f.prefix_values(order)
    w_order = w.values[order]
    crit, masks = [], []
    start, acc = 0, 0
    for level in levels:
        end = start + level.bit_count()
        crit.append(float(pv[end] - pv[start])
                    / float(w_order[start:end].sum()))
        acc |= level
        masks.append(acc)
        start = end
    return Decomposition(f.ground, tuple(crit), tuple(masks), w)


def certify(f: SetFunction, rates: RateVector) -> None:
    """Refuse egalitarian rates outside the region of f on their subset C.

    The check is ``swfair verify``'s (:func:`verify_membership`) at its
    default tolerance, 1e-8 times f's scale, whichever solver produced the
    rates: a min cut for a bit pool above ``MIN_CUT_ABOVE`` users, a subset
    sweep otherwise.  It runs only up to ``BRUTE_FORCE_LIMIT`` users, and
    above that it does nothing, although a bit pool could be checked at any
    size: one more flow per answer cost 35-40% of the engine's time on
    256-user bit pools.  A failure raises :class:`CertificationError`.
    """
    cmask = rates.subset_mask
    if cmask.bit_count() > BRUTE_FORCE_LIMIT:
        return
    report = verify_membership(restrict(f, cmask), rates)
    if not report.in_region:
        raise CertificationError(
            "rates for %s are outside the rate region (min slack %.3g at "
            "{%s}, sum gap %.3g); is the source submodular?"
            % (subset_label(f.ground, cmask), report.slack,
               ",".join(sorted(report.worst_constraint)), report.sum_gap))


def subset_label(ground: GroundSet, mask: int) -> str:
    return "{" + ",".join(ground.users_of(mask)) + "}"


def adaptation_path(tree: SplitTree) -> list[RateVector]:
    """Cumulative rate vectors after each early base assignment.

    Starts at zero and ends at the final egalitarian rates; every vector in
    between stays inside the polyhedron of the oracle (each is dominated by
    the final rates coordinatewise).  Refuses grounds above
    ``PATH_USER_LIMIT`` users, to bound materialized memory.
    """
    if tree.ground.n > PATH_USER_LIMIT:
        raise ValueError("ground set above %d users; the adaptation path is "
                         "not materialized" % PATH_USER_LIMIT)
    w = tree.weights
    path = [RateVector.zeros(tree.ground, tree.subset_mask)]
    acc = np.zeros(tree.ground.n)
    for mask, coeff in tree.events:
        idx = bit_indices(mask)
        acc = acc.copy()
        acc[idx] += coeff * w.values[idx]
        path.append(RateVector(tree.ground, acc, tree.subset_mask))
    path.append(tree.rates)
    return path


def recursion_metrics(tree: SplitTree) -> dict:
    """Aggregate split sizes over the recursion.

    sum_size adds |block| + |complement| over every internal node (the
    serial SFM workload); max_size adds max(|block|, |complement|) (the
    critical-path workload if the two branches of each split ran at once).
    """
    sum_size = 0
    max_size = 0
    node_count = 0
    depth = 0
    stack = [(tree.root, 1)]
    while stack:
        node, d = stack.pop()
        node_count += 1
        depth = max(depth, d)
        if not node.is_leaf:
            block, rest = node.children
            a = block.subset_mask.bit_count()
            b = rest.subset_mask.bit_count()
            sum_size += a + b
            max_size += max(a, b)
            stack.append((block, d + 1))
            stack.append((rest, d + 1))
    return {"sum_size": sum_size, "max_size": max_size,
            "node_count": node_count, "depth": depth}


@dataclass
class Decomposition:
    """Critical ratios with their nested tight-set chain.

    chain[j] collects every user whose final ratio is at most
    critical_values[j]; the last chain entry is the whole subset.  Rates are
    rebuilt exactly as critical_values[j] * w over each chain increment.
    """

    ground: GroundSet
    critical_values: tuple
    chain_masks: tuple
    weights: WeightVector

    @property
    def chain(self) -> tuple:
        return tuple(frozenset(self.ground.users_of(m)) for m in self.chain_masks)

    def reconstruct(self) -> RateVector:
        rates = np.zeros(self.ground.n)
        prev = 0
        for lam, mask in zip(self.critical_values, self.chain_masks):
            idx = bit_indices(mask & ~prev)
            rates[idx] = lam * self.weights.values[idx]
            prev = mask
        return RateVector(self.ground, rates, self.chain_masks[-1])

    def to_dict(self) -> dict:
        return {
            "critical_values": list(self.critical_values),
            "chain": [sorted(self.ground.users_of(m)) for m in self.chain_masks],
        }


def decompose(f: SetFunction, w: WeightVector) -> Decomposition:
    """Principal chain of critical ratios behind the egalitarian solution.

    The egalitarian engine's levels (see the module docstring), certified
    once: critical values that do not increase strictly raise
    :class:`InternalConsistencyError`, and rates outside the region raise
    :class:`CertificationError` (see :func:`certify`).
    """
    _nonempty_ground(f)
    dec = _confirm(f, w, *_propose(f, w))
    crit = dec.critical_values
    for a, b in zip(crit, crit[1:]):
        if b - a <= TIE_EPSILON * max(abs(a), abs(b)):
            raise InternalConsistencyError(
                "critical values not strictly increasing: %r vs %r" % (a, b))
    certify(f, dec.reconstruct())
    return dec
