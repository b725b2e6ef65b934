"""Recursive egalitarian rate splitting over a submodular rate region.

The solver computes the weighted egalitarian allocation, the minimizer of
sum(r_i^2 / w_i) over the base polyhedron of the entropy oracle, by the
divide-and-conquer scheme: score the whole block at the uniform ratio
lam = f(C)/w(C), find the maximal minimizer of f - lam*w, and either stop
(the block is uniform, r = lam*w) or split into that minimizer and its
complement, the complement continuing on the contracted oracle after an
early base assignment of f(block)/w(block) * w.

Every recursion is recorded in a :class:`SplitTree`: per-node subsets,
ratios, SFM results, and the ordered base-assignment events that trace the
rate vector's walk through the polyhedron.  The two subcalls of a split are
independent, so ``mode="parallel"`` runs them fork-join style; both modes
produce bit-identical trees and rates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .setfn import (
    GroundSet,
    SetFunction,
    WeightVector,
    add_modular,
    bit_indices,
    reduce,
    restrict,
)
from .sfm import DEFAULT_CONFIG, ConvergenceError, SfmResult, SolverConfig, solve_sfm


# adaptation_path materializes one rate vector per base assignment, so it
# refuses larger grounds unless forced, and the JSON tree leaves it out.
PATH_USER_LIMIT = 64


class InternalConsistencyError(RuntimeError):
    """A structural self-check failed (usually a solver-tolerance issue)."""


@dataclass
class RateVector:
    """Per-user rates (bits per symbol) over a ground set or a subset of it."""

    ground: GroundSet
    rates: np.ndarray
    subset_mask: int = -1

    def __post_init__(self):
        if self.subset_mask == -1:
            self.subset_mask = self.ground.full_mask
        self.rates = np.asarray(self.rates, dtype=float)

    def as_dict(self) -> dict[str, float]:
        return {self.ground.users[i]: float(self.rates[i])
                for i in bit_indices(self.subset_mask)}

    def total(self) -> float:
        return float(self.rates[bit_indices(self.subset_mask)].sum())

    def ratios(self, w: WeightVector) -> np.ndarray:
        return self.rates / w.values

    def to_csv(self) -> str:
        idx = bit_indices(self.subset_mask)
        header = ",".join(self.ground.users[i] for i in idx)
        row = ",".join(repr(float(self.rates[i])) for i in idx)
        return header + "\n" + row + "\n"

    @classmethod
    def zeros(cls, ground: GroundSet, subset_mask: int = -1) -> "RateVector":
        return cls(ground, np.zeros(ground.n), subset_mask)


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
    events: list | None                 # ordered (mask, coeff) base assignments
    leaves: list                        # (mask, absolute ratio) per leaf
    rates: RateVector
    mode: str

    def to_dict(self, include_path: bool = True) -> dict:
        """JSON form of the tree.

        The adaptation path is included when requested and recorded, and
        left out above ``PATH_USER_LIMIT`` users, where
        :func:`adaptation_path` refuses to materialize it by default.
        """
        doc = {
            "mode": self.mode,
            "subset": sorted(self.ground.users_of(self.subset_mask)),
            "rates": self.rates.as_dict(),
            "metrics": recursion_metrics(self),
            "root": self.root.to_dict(self.ground),
        }
        if include_path and self.events is not None and self.ground.n <= PATH_USER_LIMIT:
            doc["adaptation_path"] = [v.as_dict() for v in adaptation_path(self)]
        return doc


def split(f: SetFunction, w: WeightVector, subset=None,
          config: SolverConfig | None = None, mode: str = "sequential",
          trace: bool = True) -> tuple[RateVector, SplitTree]:
    """Weighted egalitarian allocation over the rate region of f.

    Returns the optimal rates together with the full recursion tree.  With
    ``mode="parallel"`` the two branches of every split run as independent
    tasks; results are assembled at join in block-first order, so the output
    is identical to the sequential mode.  ``trace=False`` skips recording
    the base-assignment events (rates and metrics are unaffected).
    """
    if mode not in ("sequential", "parallel"):
        raise ValueError("mode must be 'sequential' or 'parallel'")
    config = config or DEFAULT_CONFIG
    cmask = f.ground.as_mask(subset) if subset is not None else f.ground_mask
    if cmask == 0:
        raise ValueError("cannot split an empty user subset")
    if cmask & ~f.ground_mask:
        raise ValueError("subset is not contained in the oracle's ground")
    root_f = restrict(f, cmask)
    node, events, leaves = _split_block(root_f, w, cmask, 0.0, config, mode, ())

    rates = np.zeros(f.ground.n)
    for mask, lam_abs in leaves:
        idx = bit_indices(mask)
        rates[idx] = lam_abs * w.values[idx]
    rv = RateVector(f.ground, rates, cmask)
    tree = SplitTree(f.ground, node, cmask, w, events if trace else None,
                     leaves, rv, mode)
    return rv, tree


def _split_block(f, w, cmask, carry, config, mode, path):
    """Recursive worker; f's ground is exactly cmask.

    ``carry`` is the accumulated ratio offset of the contractions above this
    block, so a leaf's absolute ratio is carry + f(C)/w(C).  Returns the node
    plus the ordered base-assignment events and leaf assignments beneath it.
    """
    lam = f.value(cmask) / w.of_mask(cmask)
    objective = add_modular(f, lam * w.values)
    try:
        res = solve_sfm(objective, config)
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
    base_coeff = f.value(block) / w.of_mask(block)
    f_block = restrict(f, block)
    f_rest = reduce(f, block, w)
    here = path + (subset_label(f.ground, cmask),)

    if mode == "parallel":
        slot = {}

        def run_block():
            try:
                slot["ok"] = _split_block(f_block, w, block, carry, config,
                                          mode, here)
            except BaseException as exc:
                slot["err"] = exc

        t = threading.Thread(target=run_block)
        t.start()
        try:
            rest_out = _split_block(f_rest, w, rest, carry + base_coeff,
                                    config, mode, here)
        finally:
            t.join()
        if "err" in slot:
            raise slot["err"]
        block_out = slot["ok"]
    else:
        block_out = _split_block(f_block, w, block, carry, config, mode, here)
        rest_out = _split_block(f_rest, w, rest, carry + base_coeff, config,
                                mode, here)

    block_node, block_events, block_leaves = block_out
    rest_node, rest_events, rest_leaves = rest_out
    node = SplitNode(cmask, lam, res, base_coeff, (block_node, rest_node))
    events = block_events + [(rest, base_coeff)] + rest_events
    leaves = block_leaves + rest_leaves
    return node, events, leaves


def subset_label(ground: GroundSet, mask: int) -> str:
    return "{" + ",".join(ground.users_of(mask)) + "}"


def adaptation_path(tree: SplitTree, force: bool = False) -> list[RateVector]:
    """Cumulative rate vectors after each early base assignment.

    Starts at zero and ends at the final egalitarian rates; every vector in
    between stays inside the polyhedron of the oracle (each is dominated by
    the final rates coordinatewise).  Refuses grounds above
    ``PATH_USER_LIMIT`` users unless ``force`` is set, to bound materialized
    memory.
    """
    if tree.events is None:
        raise ValueError("split was run with trace=False; no events recorded")
    if tree.ground.n > PATH_USER_LIMIT and not force:
        raise ValueError("ground set above %d users; pass force=True to "
                         "materialize the path anyway" % PATH_USER_LIMIT)
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
    critical-path workload when branches run in parallel).
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


def decompose(f: SetFunction, w: WeightVector, subset=None,
              config: SolverConfig | None = None,
              verify: bool | None = None) -> Decomposition:
    """Principal chain of critical ratios behind the egalitarian solution.

    Runs the split recursion and reads off the distinct leaf ratios in
    increasing order together with their cumulative user sets.  When the
    ground is small enough (or ``verify=True``), each chain set is re-checked
    by exhaustive SFM to be the maximal minimizer at its critical value;
    failures raise :class:`InternalConsistencyError`, as does a chain whose
    critical values are not strictly increasing.
    """
    config = config or DEFAULT_CONFIG
    rv, tree = split(f, w, subset, config, "sequential", trace=True)
    leaves = sorted(tree.leaves, key=lambda t: t[1])
    lam_scale = max(1.0, max(abs(l[1]) for l in leaves))
    tol = config.tie_epsilon * lam_scale
    for (_, a), (_, b) in zip(leaves, leaves[1:]):
        if b - a <= tol:
            raise InternalConsistencyError(
                "critical values not strictly increasing: %r vs %r" % (a, b))

    crit = []
    masks = []
    acc = 0
    for mask, lam_abs in leaves:
        acc |= mask
        crit.append(lam_abs)
        masks.append(acc)
    if masks[-1] != tree.subset_mask:
        raise InternalConsistencyError("chain does not cover the user subset")

    n = tree.subset_mask.bit_count()
    if verify is None:
        verify = n <= config.exhaustive_threshold
    if verify:
        f_sub = restrict(f, tree.subset_mask)
        for lam_j, s_j in zip(crit, masks):
            objective = add_modular(f_sub, lam_j * w.values)
            res = solve_sfm(objective, config, method="exhaustive")
            if res.maximal_mask != s_j:
                raise InternalConsistencyError(
                    "chain set %s is not the maximal minimizer at ratio %r "
                    "(solver found %s)"
                    % (subset_label(f.ground, s_j), lam_j,
                       subset_label(f.ground, res.maximal_mask)))
    return Decomposition(f.ground, tuple(crit), tuple(masks), w)
