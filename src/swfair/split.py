"""Weighted egalitarian rates over a submodular rate region.

The weighted egalitarian allocation is the minimizer of sum(r_i^2 / w_i)
over the base polyhedron of the entropy oracle.  One loop computes it,
refining an ordered partition of the users.

:func:`split` is the paper's divide-and-conquer scheme: score a block at
its uniform ratio lam = f(C)/w(C), find the maximal minimizer of f -
lam*w, and either stop (the block is uniform, r = lam*w) or split into
that minimizer and the rest, the rest continuing on the contracted oracle
after an early base assignment of the minimizer's ratio times w.  The two
subcalls of a split are independent (:func:`recursion_metrics` reports
the critical path as ``max_size``), so :func:`_refine` runs each depth as
one pass over its blocks: one prefix walk gives every block its ratio,
and the blocks of 2 or more users are tested by the rule of
:func:`swfair.sfm.solve_sfm`.  On a bit pool their project-selection
networks share no user and no bit, so one pass over the incidence builds
them all and one maximum flow settles them all.  On any other oracle one
``f.block_values`` call tables every block of 2 to ``EXHAUSTIVE_UP_TO``
(16) users less its ratio times w, and each larger block gets one Wolfe
solve.  A :class:`SplitTree` records per-node subsets, ratios, SFM
results, and the ordered base-assignment events that trace the rate
vector's walk through the polyhedron.

:func:`decompose` is the engine, and :func:`egalitarian` returns the rates
of its chain.  It runs the same loop from the ground, builds no tree, and
merges adjacent leaves whose ratios tie into one level.

One certificate guards every answer: every chain set is tight by
construction, the critical values must increase strictly
(:class:`InternalConsistencyError` otherwise), and up to
``BRUTE_FORCE_LIMIT`` (20) users :func:`certify` runs ``swfair verify``'s
region check (:class:`CertificationError` otherwise, a non-submodular
source).  Together these make each chain set the maximal minimizer at its
critical value, so no chain set is solved again.  Two adjacent ratios tie
within ``TIE_EPSILON`` times the larger of the two, and every modular
shift lam * w is formed over its block's users only, so weights scaled by
one factor give the same chain and the same rates, and weights from
1e-200 to 1e200 neither merge distinct levels nor overflow.

:func:`split` and :func:`decompose` turn their ordered leaves or levels
into rates the same way: lam_j = (f(S_j) - f(S_{j-1})) / w(D_j) from one
prefix walk over them, and r_i = lam_j * w_i on D_j.
"""

from __future__ import annotations

import itertools
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
    coverage_cut,
    mask_array,
    mask_from_indices,
    restrict,
)
from .sfm import (
    EXHAUSTIVE_UP_TO,
    ConvergenceError,
    SfmResult,
    cut_results,
    solve_sfm,
    sweep_results,
)

# adaptation_path materializes one rate vector per base assignment, so it
# refuses larger grounds, and the JSON tree leaves it out.
PATH_USER_LIMIT = 64

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
    return _split(f, w, _refine(f, w))


def _split(f, w, refined):
    order, sizes, _, tested = refined
    root, events, leaves = _tree(f.ground, tested)
    rv = _chain(f, w, order, sizes).reconstruct()
    return rv, SplitTree(f.ground, root, f.ground_mask, w, events, leaves, rv)


def _refine(f, w):
    """Refine f's ground into split's leaves, one depth of its recursion
    per pass.

    The partition is ordered: block j is the run of its size's positions
    of one order array, ascending within the block, after the runs before
    it, and the first pass has one block, the ground.  Each pass gives
    every open block D_j its ratio rho_j = (f(S_j) - f(S_{j-1})) / w(D_j),
    S_j the union of the first j blocks, from one prefix walk, and tests it
    on f's minor after S_{j-1} at rho_j: a one-user block is a leaf with no
    oracle call, and the blocks of 2 or more users are tested together
    (:func:`_sweeps`) but for those above ``EXHAUSTIVE_UP_TO`` users of an
    oracle other than a bit pool, which get ``solve_sfm`` one by one.  A
    block that is not its own maximal minimizer is replaced in place by
    that minimizer and the rest.  Returns the leaves as (order, sizes,
    ratios) and, per depth, each tested block's (mask, rho_j, result or
    None if one user).
    A :class:`ConvergenceError` names the blocks enclosing the failed one.
    """
    if f.ground_mask == 0:
        raise ValueError("cannot split an empty ground")
    n = f.ground.n
    order = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    starts = [0, len(order)]
    parts = [(f.ground_mask, len(order), None, ())]
    tested = []
    while True:
        masks, sizes, ratios, _ = zip(*parts)
        walk = f.prefix_values(order)[starts]
        pv = walk.tolist()
        rho = (np.diff(walk)
               / np.add.reduceat(w.values[order], starts[:-1])).tolist()
        swept = _sweeps(f, w, order, sizes, starts, masks, [
            j for j, c in enumerate(sizes) if ratios[j] is None and c > 1],
            rho)
        depth, last, parts, pivot = [], parts, [], 0
        for j, (mask, c, ratio, path) in enumerate(last):
            res = swept.get(j)
            if res is None and ratio is None and c > 1:
                objective = add_modular(contract(f, pivot, mask, pv[j]),
                                        w.times(rho[j], mask_array(mask, n)))
                try:
                    res = solve_sfm(objective)
                except ConvergenceError as e:
                    e.recursion_path = tuple(subset_label(f.ground, m)
                                             for m in (*path, mask))
                    raise
            pivot |= mask
            if ratio is None:
                depth.append((mask, rho[j], res))
                ratio = rho[j]
            if res is None or res.maximal_mask == mask:
                parts.append((mask, c, ratio, path))
                continue
            block = res.maximal_mask
            if block == 0:
                raise InternalConsistencyError(
                    "SFM returned an empty maximal minimizer at %s"
                    % (subset_label(f.ground, mask),))
            seg = order[starts[j]:starts[j + 1]]
            inside = mask_array(block, n)[seg]
            seg[:] = np.concatenate((seg[inside], seg[~inside]))
            k, path = int(inside.sum()), (*path, mask)
            parts += [(block, k, None, path),
                      (mask & ~block, c - k, None, path)]
        tested.append(depth)
        if len(parts) == len(last):
            _, sizes, ratios, _ = zip(*parts)
            return order, sizes, ratios, tested
        starts = [0, *itertools.accumulate(part[1] for part in parts)]


def _sweeps(f, w, order, sizes, starts, masks, tests, rho) -> dict:
    """SFM results of blocks ``tests`` on their minors at their ratios, all
    of them on a bit pool and those of at most ``EXHAUSTIVE_UP_TO`` users
    otherwise.

    Block j's function is its gains f(S_{j-1} | X) - f(S_{j-1}) - rho_j *
    w(X) over its subsets X: the minor's objective up to its contraction's
    carry, which cancels in every tie.  On a bit pool one
    :func:`coverage_cut` builds the blocks' networks and one flow solves
    them (:func:`cut_results`); otherwise one ``f.block_values`` call
    tables the gains and :func:`sweep_results` reads them.  The shift is
    formed per user, and |rho_j * w_i| <= |f(S_j) - f(S_{j-1})| for i in
    block j, so no weight overflows it.
    """
    if not tests:
        return {}
    lam = np.zeros(f.ground.n)
    lam[order] = np.repeat(rho, sizes)
    shift = w.times(lam, mask_array(f.ground_mask, f.ground.n))
    tol = TIE_EPSILON * f.scale
    cut = coverage_cut(f, order, sizes, tests, shift)
    if cut is not None:
        return dict(zip(tests, cut_results(f.ground, cut,
                                           [masks[j] for j in tests], tol)))
    small = [j for j in tests if sizes[j] <= EXHAUSTIVE_UP_TO]
    by_size = {}
    for j, excess in zip(small, f.block_values(order, sizes, small,
                                               coeffs=shift)):
        by_size.setdefault(sizes[j], []).append((j, excess))
    out = {}
    for c, group in by_size.items():
        js = [j for j, _ in group]
        elems = order[np.add.outer([starts[j] for j in js], np.arange(c))]
        out.update(zip(js, sweep_results(f.ground,
                                         np.stack([e for _, e in group]),
                                         elems, [masks[j] for j in js], tol)))
    return out


def _tree(ground, tested):
    """split's root, base-assignment events and leaves from the blocks
    :func:`_refine` tested, in one depth-first pass, which meets each
    depth's blocks in their order.  A node's lam is its ratio less the
    carry of the contractions above it, which its rest child raises by its
    base_coeff.  A one-user block gets an exhaustive sweep's result: at
    lam both of its subsets are worth 0.
    """
    blocks = [iter(depth) for depth in tested]
    events, leaves = [], []

    def node(d, carry):
        mask, ratio, res = next(blocks[d])
        lam = ratio - carry
        if res is None:
            res = SfmResult(ground, 0.0, 0, mask, "exhaustive",
                            oracle_evals=0, ground_size=1)
        if res.maximal_mask == mask:
            leaves.append((mask, ratio))
            return SplitNode(mask, lam, res, None, None)
        block = node(d + 1, carry)
        events.append((mask & ~res.maximal_mask, block.lam))
        rest = node(d + 1, carry + block.lam)
        return SplitNode(mask, lam, res, block.lam, (block, rest))

    return node(0, 0.0), events, leaves


def egalitarian(f: SetFunction, w: WeightVector) -> RateVector:
    """Weighted egalitarian allocation: the rates of the certified chain
    that :func:`decompose` returns, which raises the same errors.

    They are :func:`split`'s rates, without its recursion tree.
    """
    return _rates(f, w, _refine(f, w))


def traced_egalitarian(f: SetFunction, w: WeightVector) -> tuple:
    """:func:`egalitarian`'s rates and :func:`split`'s tree, from one run
    of their refinement loop."""
    refined = _refine(f, w)
    return _rates(f, w, refined), _split(f, w, refined)[1]


def _rates(f, w, refined):
    rates = _decompose(f, w, refined).reconstruct()
    certify(f, rates)
    return rates


def _levels(order, sizes, ratios):
    """Leaves merged into levels, as (order, sizes) with each level's
    positions ascending, or None if their ratios decrease.  Adjacent ratios
    tie within TIE_EPSILON times the larger of the two."""
    levels = [sizes[0]]
    last = ratios[0]
    for size, lam in zip(sizes[1:], ratios[1:]):
        tol = TIE_EPSILON * max(abs(last), abs(lam))
        if lam < last - tol:
            return None
        if lam <= last + tol:
            levels[-1] += size
        else:
            levels.append(size)
        last = lam
    if len(levels) < len(sizes):
        level = np.repeat(np.arange(len(levels)), levels)
        order = order[np.lexsort((order, level))]
    return order, levels


def _chain(f, w, order, sizes) -> Decomposition:
    """Critical ratios of ordered levels D_1, ..., D_k of f's ground.

    Level j is the run of ``sizes[j]`` positions of ``order``, ascending
    within the level, after the runs before it.  lam_j = (f(S_j) -
    f(S_{j-1})) / w(D_j) with S_j = D_1 | ... | D_j, all values from one
    prefix walk along ``order``, and w(D_j) summed over the same positions
    of that walk.  Every egalitarian result is built here, so equal chains
    give bit-identical rates.
    """
    pv = f.prefix_values(order)
    w_order = w.values[order]
    positions = order.tolist()
    crit, masks = [], []
    start, acc = 0, 0
    for size in sizes:
        end = start + size
        crit.append(float(pv[end] - pv[start])
                    / float(w_order[start:end].sum()))
        acc |= mask_from_indices(positions[start:end])
        masks.append(acc)
        start = end
    return Decomposition(f.ground, tuple(crit), tuple(masks), w)


def certify(f: SetFunction, rates: RateVector) -> None:
    """Refuse egalitarian rates outside the region of f on their subset C.

    The check is ``swfair verify``'s (:func:`verify_membership`) at its
    default tolerance, 1e-8 times f's scale, whichever solver produced the
    rates: a min cut for a bit pool, a subset sweep otherwise.  It runs
    only up to ``BRUTE_FORCE_LIMIT`` users, and above that it does nothing,
    although a bit pool could be checked at any size: on 256-user bit
    pools one more flow per answer cost 8-40% of the engine's time.  A
    failure raises :class:`CertificationError`.
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
    splits, node_count, depth = [], 0, 0
    stack = [(tree.root, 1)]
    while stack:
        node, d = stack.pop()
        node_count, depth = node_count + 1, max(depth, d)
        if not node.is_leaf:
            splits.append([c.subset_mask.bit_count() for c in node.children])
            stack += [(c, d + 1) for c in node.children]
    return {"sum_size": sum(map(sum, splits)),
            "max_size": sum(map(max, splits)),
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

    :func:`split`'s leaves, from the same loop, with adjacent leaves whose
    ratios tie merged into one level (:func:`_levels`), certified once:
    leaf ratios that decrease or critical values that do not increase
    strictly raise :class:`InternalConsistencyError`, and rates outside the
    region raise :class:`CertificationError` (see :func:`certify`).
    """
    dec = _decompose(f, w, _refine(f, w))
    if dec.chain_masks[-1].bit_count() <= BRUTE_FORCE_LIMIT:
        certify(f, dec.reconstruct())
    return dec


def _decompose(f, w, refined) -> Decomposition:
    """The chain of :func:`_refine`'s leaves, checked but not certified."""
    levels = _levels(*refined[:3])
    if levels is None:
        raise InternalConsistencyError(
            "split's leaf ratios decrease on %s"
            % subset_label(f.ground, f.ground_mask))
    dec = _chain(f, w, *levels)
    crit = dec.critical_values
    for a, b in zip(crit, crit[1:]):
        if b - a <= TIE_EPSILON * max(abs(a), abs(b)):
            raise InternalConsistencyError(
                "critical values not strictly increasing: %r vs %r" % (a, b))
    return dec
