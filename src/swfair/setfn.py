"""Ground sets and set-function oracles.

Subsets of the ground set are encoded as integer bitmasks (bit k set means
user at position k is in the subset), which Python ints support at any
ground-set size.  All oracles are normalized, f(empty) = 0, and immutable
after construction, so they can be shared freely across concurrent solves.

Two concrete source models are provided:

* :class:`BitPoolSource` - each user observes a subset of independent random
  bits; the joint entropy of a user subset is the total entropy of the bits
  covered by it (a weighted coverage function, hence submodular and monotone).
  It evaluates over its (user, bit) incidence, so with nnz observations
  ``value`` and ``prefix_values`` cost O(nnz + n), ``all_values`` over c
  elements costs O(nnz + c * 2^c), and :func:`coverage_cut` builds the
  min-cut networks of any blocks of an ordered partition in one O(nnz + n)
  pass.
* :class:`TableSource` - an explicit, complete table of values for every
  nonempty subset, used for arbitrary test fixtures.  It is one read-only
  float array indexed by mask, 8 * 2^n bytes, so ``value`` is O(1) and
  ``all_values`` over c elements one O(2^c) gather.

Derived oracles (:func:`restrict`, :func:`contract`, modular shifts) are
one affine wrapper, so chains of them stay O(1) per evaluation and keep the
fast vectorized paths of the underlying source.  :func:`minor` is a
contraction shifted by the pivot's ratio.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np


class InvalidSubsetError(ValueError):
    """A subset argument mentions users outside the ground set."""


class IncompleteTableError(ValueError):
    """An explicit table source is missing entries."""


class ModelLoadError(ValueError):
    """A source-model file could not be parsed."""


class GroundSetTooLargeError(ValueError):
    """An exhaustive (2^n) operation was requested above the size limit."""


# Exhaustive sweeps (submodularity checks, and the Shapley values and
# membership checks of oracles other than bit pools) are refused above this
# many elements.
BRUTE_FORCE_LIMIT = 20

# Values within TIE_EPSILON times their source's ``scale`` are equal: every
# tie, cut, certificate and check uses this one rule, so a source times c
# gives c times the rates, the same chain and the same verdicts.
TIE_EPSILON = 1e-9


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    if mask < 0:
        raise ValueError("negative mask %d has no finite set of bits" % mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def global_mask(local_mask: int, elements: Sequence[int]) -> int:
    """Mask of the positions elements[k] for the set bits k of ``local_mask``.

    Exact at any position: numpy integers in ``elements`` are converted
    first, since their shifts wrap at 64 bits.
    """
    return mask_from_indices(int(elements[k]) for k in bit_indices(local_mask))


def mask_array(mask: int, n: int) -> np.ndarray:
    """Boolean array of length ``n``, True at the set bits of ``mask``.

    ``mask`` must lie inside the first n bits; a negative mask raises
    OverflowError.  The array is a fresh buffer, O(n / 8) to build.
    """
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def subset_sums(table: np.ndarray, c: int) -> np.ndarray:
    """In place, replace table[X] by the sum of table[Y] over all Y inside X.

    ``table`` is indexed by local submask and has length 2**c; this is the
    zeta transform over the subset lattice, c passes of 2**(c-1) additions.
    """
    for k in range(c):
        pairs = table.reshape(-1, 2, 1 << k)
        pairs[:, 1, :] += pairs[:, 0, :]
    return table


def modular_sums(coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeffs[..., k] over the k in X, for every local submask X.

    The coefficients sit at the singleton entries of a 2**c table, and one
    :func:`subset_sums` pass fills in the rest; a stack of coefficient rows
    gives one table per row, from one pass over all of them.
    """
    c = coeffs.shape[-1]
    table = np.zeros((*coeffs.shape[:-1], 1 << c))
    table[..., 1 << np.arange(c)] = coeffs
    subset_sums(table.reshape(-1), c)
    return table


class GroundSet:
    """Ordered set of distinct user identifiers with bitmask encoding."""

    __slots__ = ("users", "index", "n", "full_mask")

    def __init__(self, users: Sequence[str]):
        users = tuple(str(u) for u in users)
        if len(users) == 0:
            raise ValueError("ground set must contain at least one user")
        if len(set(users)) != len(users):
            raise ValueError("duplicate user identifiers: %r" % (users,))
        self.users = users
        self.index = {u: i for i, u in enumerate(users)}
        self.n = len(users)
        self.full_mask = (1 << self.n) - 1

    def mask_of(self, subset: Iterable[str]) -> int:
        """Bitmask of a collection of user ids; rejects unknown users."""
        mask = 0
        for u in subset:
            try:
                mask |= 1 << self.index[u]
            except KeyError:
                raise InvalidSubsetError(
                    "unknown user %r (ground set: %s)" % (u, ", ".join(self.users))
                ) from None
        return mask

    def as_mask(self, subset) -> int:
        """Coerce a subset given as a bitmask or an iterable of ids."""
        if isinstance(subset, int):
            if subset < 0 or subset & ~self.full_mask:
                raise InvalidSubsetError("mask %#x outside ground set" % subset)
            return subset
        return self.mask_of(subset)

    def users_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.users[i] for i in bit_indices(mask))

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.users)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.users == other.users

    def __hash__(self):
        return hash(self.users)

    def __repr__(self):
        return "GroundSet(%r)" % (list(self.users),)


class SetFunction:
    """Oracle for a real-valued set function with f(empty) = 0.

    Subclasses implement :meth:`value`.  The optional bulk entry points,
    :meth:`prefix_values`, :meth:`all_values` and :meth:`block_values`, have
    generic fallbacks here and vectorized overrides where the structure
    allows; solvers call them so that a fast source accelerates every solver
    for free.
    """

    ground: GroundSet
    ground_mask: int

    def value(self, mask: int) -> float:
        raise NotImplementedError

    @cached_property
    def scale(self) -> float:
        """The unit of every tolerance: here the largest |f| over the ground
        and its singletons, from n + 1 calls on first use.  Bit pools and
        tables set their own, and views keep their source's."""
        singletons = (1 << i for i in bit_indices(self.ground_mask))
        return max(abs(float(self.value(m)))
                   for m in (self.ground_mask, *singletons))

    def prefix_values(self, order: np.ndarray, base: int = 0) -> np.ndarray:
        """Values f(base), f(base|{o0}), f(base|{o0,o1}), ... along ``order``.

        ``order`` holds global element positions; the result has length
        len(order) + 1.
        """
        vals = np.empty(len(order) + 1)
        mask = base
        vals[0] = self.value(mask)
        for k, idx in enumerate(order):
            mask |= 1 << int(idx)
            vals[k + 1] = self.value(mask)
        return vals

    def all_values(self, elements: Sequence[int], base: int = 0) -> np.ndarray:
        """Values for every subset of ``elements``, indexed by local submask."""
        c = len(elements)
        n_sub = 1 << c
        bit_of = [1 << int(e) for e in elements]
        gmask = np.empty(n_sub, dtype=object)
        gmask[0] = base
        vals = np.empty(n_sub)
        vals[0] = self.value(base)
        for lm in range(1, n_sub):
            low = lm & -lm
            gmask[lm] = gmask[lm ^ low] | bit_of[low.bit_length() - 1]
            vals[lm] = self.value(gmask[lm])
        return vals

    def block_values(self, order: np.ndarray, sizes: Sequence[int],
                     wanted: Sequence[int], base: int = 0,
                     coeffs: np.ndarray | None = None) -> list[np.ndarray]:
        """Gains over the blocks of an ordered partition, for each wanted block.

        Block j is the run of ``sizes[j]`` global positions of ``order`` after
        the runs of the blocks before it, and S_j is ``base`` joined with
        blocks 0, ..., j - 1.  For each index j in ``wanted`` the result
        holds f(S_j | X) - f(S_j) - c(X) for every X inside block j, indexed
        by local submask over the block's positions in their order here;
        c is the modular function with the per-user ``coeffs`` that
        :func:`add_modular` takes, or 0 if None.  A block outside ``wanted``
        only enters the S_j, so it may be of any size.  Here one
        :meth:`all_values` per wanted block, less c's :func:`modular_sums`.
        """
        order = np.asarray(order, dtype=np.intp)
        positions = order.tolist()
        starts = [0, *itertools.accumulate(sizes)]
        out = []
        for j in wanted:
            before = base | mask_from_indices(positions[:starts[j]])
            vals = self.all_values(positions[starts[j]:starts[j + 1]], before)
            vals = vals - vals[0]
            if coeffs is not None:
                vals -= modular_sums(coeffs[order[starts[j]:starts[j + 1]]])
            out.append(vals)
        return out


class BitPoolSource(SetFunction):
    """Entropy oracle for users observing pools of independent random bits.

    ``bits`` maps bit id -> entropy in bits (> 0, with a finite sum);
    ``observes`` maps user id -> iterable of bit ids.  H(X) is the summed
    entropy of all bits observed by at least one user in X.

    The oracle keeps only the (user, bit) incidence sorted by bit:
    ``_inc_user`` lists the observers of each observed bit in one run,
    ``_inc_bit`` the bit of each observation and ``_inc_run`` its run,
    ``_run_start`` holds the offset of each run and ``_run_entropy`` its
    bit's entropy.  Bits no user observes are dropped, as they never
    count.  Every evaluation reduces over these runs, so its cost follows
    the number of observations rather than users x bits.  A bit listed
    twice for one user is one observation.  Its ``scale`` is H(V), the
    summed entropy of the observed bits.
    """

    def __init__(self, ground: GroundSet, bits: Mapping[str, float],
                 observes: Mapping[str, Iterable[str]]):
        self.ground = ground
        self.ground_mask = ground.full_mask
        self.bit_ids = tuple(bits.keys())
        h = np.array([float(bits[b]) for b in self.bit_ids])
        # NaN fails both comparisons; a finite sum keeps every H finite
        # (summed as Python floats, which overflow to inf without a warning).
        if len(h) and not (h.min() > 0.0 and sum(h.tolist()) < np.inf):
            raise ValueError("bit entropies must be strictly positive, "
                             "with a finite sum")
        self.bit_entropy = h
        n = ground.n
        bit_pos = {b: j for j, b in enumerate(self.bit_ids)}
        # Observation (user i, bit j) is coded j * n + i, so that one sort
        # groups the incidence by bit.
        codes = []
        for user, seen in observes.items():
            if user not in ground.index:
                raise InvalidSubsetError("observes entry for unknown user %r" % user)
            i = ground.index[user]
            for b in seen:
                if b not in bit_pos:
                    raise ValueError("user %r observes unknown bit %r" % (user, b))
                codes.append(bit_pos[b] * n + i)
        codes = np.sort(np.fromiter(codes, dtype=np.intp, count=len(codes)))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        inc_bit, inc_user = np.divmod(codes, n)
        new_run = np.ones(len(codes), dtype=bool)
        new_run[1:] = inc_bit[1:] != inc_bit[:-1]
        self._inc_user = inc_user
        self._inc_bit = inc_bit
        self._inc_run = np.cumsum(new_run) - 1
        self._run_start = np.flatnonzero(new_run)
        self._run_entropy = h[inc_bit[self._run_start]]
        for arr in (self._inc_user, self._inc_bit, self._inc_run,
                    self._run_start, self._run_entropy):
            arr.setflags(write=False)
        self.scale = float(self._run_entropy.sum())

    def _covered(self, mask: int) -> np.ndarray:
        """Per observed bit: is it observed by some user in ``mask``?"""
        in_mask = mask_array(mask, self.ground.n)[self._inc_user]
        return np.logical_or.reduceat(in_mask, self._run_start)

    def value(self, mask: int) -> float:
        if mask == 0:
            return 0.0
        return float(self._run_entropy @ self._covered(mask))

    def prefix_values(self, order, base: int = 0) -> np.ndarray:
        # Each bit's entropy is gained at the first prefix that covers it:
        # rank users 0 in base, j+1 at position j of order, k+1 otherwise,
        # and a bit lands at the least rank among its observers.
        order = np.asarray(order, dtype=np.intp)
        k = len(order)
        rank = np.full(self.ground.n, k + 1, dtype=np.intp)
        rank[order] = np.arange(1, k + 1)
        if base:
            rank[mask_array(base, self.ground.n)] = 0
        first = np.minimum.reduceat(rank[self._inc_user], self._run_start)
        gains = np.bincount(first, weights=self._run_entropy, minlength=k + 2)
        return np.cumsum(gains, dtype=float)[:k + 1]

    def all_values(self, elements, base: int = 0) -> np.ndarray:
        # Group the bits not covered by base by their observer pattern among
        # the elements; a subset X then misses exactly the bits whose pattern
        # lies inside its complement, which a subset-sum transform gives for
        # every X at once.
        c = len(elements)
        local_bit = np.zeros(self.ground.n, dtype=np.int64)
        local_bit[np.asarray(elements, dtype=np.intp)] = 1 << np.arange(c, dtype=np.int64)
        pattern = np.bitwise_or.reduceat(local_bit[self._inc_user], self._run_start)
        const = 0.0
        if base:
            in_base = self._covered(base)
            const = float(self._run_entropy[in_base].sum())
            pattern[in_base] = 0
        missed = np.bincount(pattern, weights=self._run_entropy, minlength=1 << c)
        # Bits outside every pattern would cancel below; dropping them keeps
        # their sum out of the differences' rounding.
        missed[0] = 0.0
        subset_sums(missed, c)
        return const + (missed[-1] - missed[::-1])


class TableSource(SetFunction):
    """Explicit set function given by a complete table over nonempty subsets.

    Missing or non-finite entries are an error at construction time rather
    than defaulted; H(empty) = 0 is implicit.

    The table is one read-only float array indexed by mask, 8 * 2^n bytes:
    ``value`` is one index, ``prefix_values`` one gather along the order's
    cumulative masks and ``all_values`` over c elements one gather of 2^c
    entries, so every view and exhaustive sweep of a table reads it in bulk.
    Keys are comma-joined user ids, bitmasks or iterables of ids, so no
    user id may contain a comma; a table whose keys are all nonempty
    strings of distinct known users is parsed in bulk, and any other goes
    key by key.
    """

    def __init__(self, ground: GroundSet, values: Mapping):
        for u in ground.users:
            if "," in u:
                raise ValueError("table user id %r contains a comma" % u)
        self.ground = ground
        self.ground_mask = ground.full_mask
        table = _bulk_table(ground, values)
        if table is None:
            table = _checked_table(ground, values)
        table.setflags(write=False)
        self._table = table
        self.scale = float(np.abs(table).max())

    def value(self, mask: int) -> float:
        return float(self._table[mask])

    def prefix_values(self, order, base: int = 0) -> np.ndarray:
        masks = np.zeros(len(order) + 1, dtype=np.intp)
        np.bitwise_or.accumulate(1 << np.asarray(order, dtype=np.intp),
                                 out=masks[1:])
        return self._table[masks | base]

    def all_values(self, elements, base: int = 0) -> np.ndarray:
        c = len(elements)
        masks = np.zeros(1 << c, dtype=np.intp)
        masks[1 << np.arange(c)] = 1 << np.asarray(elements, dtype=np.intp)
        return self._table[subset_sums(masks, c) | base]


def _bulk_table(ground: GroundSet, values: Mapping) -> np.ndarray | None:
    """The dense table of a complete, valid table parsed in bulk, or None.

    Every key must be a nonempty string of distinct known users, and the
    table must have exactly one entry per nonempty subset, each finite.
    Keys in :func:`source_to_dict`'s layout need no parse; any other keys
    are split into tokens.  Any other table gets None, and
    :func:`_checked_table` then accepts it or raises its first error in key
    order.
    """
    keys = list(values)
    if len(keys) != ground.full_mask or "" in values:
        return None
    if _in_mask_order(ground.users, keys):
        masks = slice(1, None)
    else:
        masks = _token_masks(ground, keys)
        if masks is None:
            return None
    # numpy converts each value as float() does, without a Python call per
    # value; it reads None as NaN, which the finiteness test below refuses.
    # The checked path raises a value float() refuses again, after any
    # error of an earlier key.
    try:
        vals = np.fromiter(values.values(), dtype=float, count=len(keys))
    except (TypeError, ValueError, OverflowError):
        return None
    table = np.zeros(len(keys) + 1)
    table[masks] = vals
    if not np.isfinite(table).all():
        return None
    return table


def _in_mask_order(users: Sequence[str], keys: list) -> bool:
    """Whether keys[m - 1] names the users of mask m in ground order, for
    every nonempty mask m: the layout :func:`source_to_dict` writes.

    Key 2^k - 1 is users[k], and key 2^k - 1 + j is key j - 1, a comma and
    users[k].  Each expected key is built from an earlier key and compared
    at once, so no list of new strings is made, and the first mismatch
    stops the check.
    """
    for k, user in enumerate(users):
        start = (1 << k) - 1
        if keys[start] != user:
            return False
        expected = map(operator.add, itertools.islice(keys, start),
                       itertools.repeat("," + user))
        if not all(map(operator.eq,
                       itertools.islice(keys, start + 1, 2 * start + 1),
                       expected)):
            return False
    return True


def _token_masks(ground: GroundSet, keys: list) -> np.ndarray | None:
    """The mask of each key, split into user tokens, or None unless the
    keys are strings that name every nonempty subset once, each with
    distinct known users."""
    if not all(type(k) is str for k in keys):
        return None
    # The tokens of the joined keys are those of each key's split in turn.
    tokens = ",".join(keys).split(",")
    counts = np.fromiter(map(str.count, keys, itertools.repeat(",")),
                         dtype=np.intp, count=len(keys)) + 1
    bit = {u: 1 << i for i, u in enumerate(ground.users)}
    # The checked path raises an unknown user again, after any error of an
    # earlier key.
    try:
        bits = np.fromiter(map(bit.__getitem__, tokens), dtype=np.intp,
                           count=len(tokens))
    except KeyError:
        return None
    masks = np.add.reduceat(bits, np.cumsum(counts) - counts)
    # A sum of distinct bits has one bit per term; a repeated user carries.
    if (np.bitwise_count(masks) != counts).any():
        return None
    seen = np.zeros(len(keys) + 1, dtype=bool)
    seen[masks] = True
    if not seen[1:].all():
        return None
    return masks


def _checked_table(ground: GroundSet, values: Mapping) -> np.ndarray:
    """The dense table of ``values``, checked key by key in key order."""
    table = {}
    for key, v in values.items():
        mask = ground.as_mask(key) if not isinstance(key, str) else (
            ground.mask_of(key.split(",")) if key else 0)
        if mask == 0:
            if float(v) != 0.0:
                raise ValueError("H(empty) must be 0, got %r" % v)
            continue
        if mask in table:
            raise ValueError("duplicate table entry for %s"
                             % (ground.users_of(mask),))
        table[mask] = float(v)
    # Every mask is a distinct nonempty subset, so a short count is the
    # whole completeness test, and one of masks 1 ... len(table) + 1 is
    # missing: nothing here walks the 2^n subsets of a table that lacks any.
    if len(table) < ground.full_mask:
        first = next(m for m in itertools.count(1) if m not in table)
        raise IncompleteTableError(
            "table missing %d of %d nonempty subsets, first: %s"
            % (ground.full_mask - len(table), ground.full_mask,
               ground.users_of(first)))
    # One sum finds any NaN or infinity; only then is the table scanned
    # (a finite sum past the float range is an overflow, not an error).
    if not math.isfinite(sum(table.values())):
        for mask, v in table.items():
            if not math.isfinite(v):
                raise ValueError("table value for %s is not finite: %r"
                                 % (ground.users_of(mask), v))
    dense = np.zeros(len(table) + 1)
    dense[np.fromiter(table, dtype=np.intp, count=len(table))] = list(
        table.values())
    return dense


class ShiftedFunction(SetFunction):
    """Affine view of a source oracle.

    value(X) = inner(X | pivot) - constant - sum(coeffs[i] for i in X),
    defined over ``ground_mask`` (disjoint from ``pivot``).  Restriction,
    reduction, and modular shifts are all instances of this one form, and
    composing any of them flattens back to a single layer over the source,
    whose ``scale`` the view keeps.
    """

    def __init__(self, inner: SetFunction, ground_mask: int, pivot: int,
                 constant: float, coeffs: np.ndarray | None):
        self.inner = inner
        self.ground = inner.ground
        self.ground_mask = ground_mask
        self.pivot = pivot
        self.constant = constant
        self.coeffs = coeffs
        self.scale = inner.scale

    def value(self, mask: int) -> float:
        if mask == 0:
            return 0.0
        v = self.inner.value(mask | self.pivot) - self.constant
        if self.coeffs is not None:
            v -= float(self.coeffs[mask_array(mask, self.ground.n)].sum())
        return v

    def prefix_values(self, order, base: int = 0) -> np.ndarray:
        order = np.asarray(order, dtype=np.intp)
        vals = self.inner.prefix_values(order, base | self.pivot) - self.constant
        if self.coeffs is not None:
            shift = np.concatenate(([0.0], np.cumsum(self.coeffs[order])))
            if base:
                shift += self.coeffs[mask_array(base, self.ground.n)].sum()
            vals = vals - shift
        if base == 0:
            vals[0] = 0.0
        return vals

    def all_values(self, elements, base: int = 0) -> np.ndarray:
        vals = self.inner.all_values(elements, base | self.pivot) - self.constant
        if self.coeffs is not None:
            local = np.asarray(elements, dtype=np.intp)
            vals -= modular_sums(self.coeffs[local])
            if base:
                vals -= self.coeffs[mask_array(base, self.ground.n)].sum()
        if base == 0:
            vals[0] = 0.0
        return vals


def _parts(f: SetFunction):
    """Decompose into (source, pivot, constant, coeffs) for flattening."""
    if isinstance(f, ShiftedFunction):
        return f.inner, f.pivot, f.constant, f.coeffs
    return f, 0, 0.0, None


def coverage_cut(f: SetFunction, order, sizes: Sequence[int],
                 wanted: Sequence[int], coeffs: np.ndarray | None = None):
    """The min-cut data of f's gains over blocks of an ordered partition,
    if f is a bit-pool view.

    Block j is the run of ``sizes[j]`` global positions of ``order`` after
    the runs of the blocks before it, and S_j is their union.  A view of a
    :class:`BitPoolSource` H with pivot P and coefficients c, less the
    modular function with the per-user ``coeffs`` that :func:`add_modular`
    takes (0 if None), has over S_j the gains

        f(S_j | X) - f(S_j) - coeffs(X) = h(N(X) - N(P | S_j)) - c'(X)

    for X inside block j, where N(X) is the set of bits X observes, h(B)
    the entropy of the bits B and c' = c + coeffs.  The bits of N(X) - N(P
    | S_j) are those whose first observer, ranking the pivot before block
    0, lies in block j, so the blocks' bits are disjoint and one pass over
    the incidence finds those of every block in ``wanted``.  Returns
    (users, starts, user, bit, entropy, coeffs): the wanted blocks'
    positions, block after block, block t's at users[starts[t]:starts[t +
    1]]; per observation of a block's bit by a user of that block, in
    incidence order, the user's index into users and the bit's index into
    entropy, which lists those bits' entropies in bit order; and c' per
    user of users.  None if f views another oracle.  Makes no oracle call.
    """
    source, pivot, _, own = _parts(f)
    if not isinstance(source, BitPoolSource):
        return None
    if own is not None:
        coeffs = own if coeffs is None else own + coeffs
    n, k = source.ground.n, len(sizes)
    order = np.asarray(order, dtype=np.intp)
    # rank users 0 in the pivot, j + 1 in block j and k + 1 elsewhere: a
    # bit is gained in the block of its observers of least rank
    block_of = np.repeat(np.arange(1, k + 1), sizes)
    rank = np.full(n, k + 1, dtype=np.intp)
    rank[order] = block_of
    if pivot:
        rank[mask_array(pivot, n)] = 0
    obs_rank = rank[source._inc_user]
    first = np.minimum.reduceat(obs_rank, source._run_start)
    is_wanted = np.zeros(k + 2, dtype=bool)
    is_wanted[np.asarray(wanted, dtype=np.intp) + 1] = True
    keep = (obs_rank == first[source._inc_run]) & is_wanted[obs_rank]
    users = order[is_wanted[block_of]]
    local = np.zeros(n, dtype=np.intp)
    local[users] = np.arange(len(users))
    run = source._inc_run[keep]
    new_bit = np.ones(len(run), dtype=bool)
    new_bit[1:] = run[1:] != run[:-1]
    return (users, [0, *itertools.accumulate(sizes[j] for j in wanted)],
            local[source._inc_user[keep]], np.cumsum(new_bit) - 1,
            source._run_entropy[run[new_bit]],
            np.zeros(len(users)) if coeffs is None else coeffs[users])


def restrict(f: SetFunction, subset) -> SetFunction:
    """The same oracle viewed over a sub-ground; no values change."""
    sub = f.ground.as_mask(subset)
    if sub & ~f.ground_mask:
        raise InvalidSubsetError("restriction outside the oracle's ground")
    inner, pivot, const, coeffs = _parts(f)
    return ShiftedFunction(inner, sub, pivot, const, coeffs)


def add_modular(f: SetFunction, coeffs: np.ndarray) -> SetFunction:
    """f minus the modular function with the given per-user coefficients."""
    inner, pivot, const, old = _parts(f)
    merged = coeffs.copy() if old is None else old + coeffs
    return ShiftedFunction(inner, f.ground_mask, pivot, const, merged)


class WeightVector:
    """Positive per-user weights with a finite sum, and their subset sums.

    A weight below the smallest normal float is refused, as its ratios to
    the entropies lose their digits, and so is a vector whose sum w(C)
    overflows.
    """

    __slots__ = ("ground", "values")

    def __init__(self, ground: GroundSet, values):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (ground.n,):
            raise ValueError("expected %d weights, got shape %s" % (ground.n, arr.shape))
        # NaN fails the comparison; the sum is taken as Python floats, which
        # overflow to inf without a warning.
        tiny = float(np.finfo(float).tiny)
        if not (arr.min() >= tiny and sum(arr.tolist()) < math.inf):
            raise ValueError("weights must be at least %.4g, with a finite "
                             "sum" % tiny)
        self.ground = ground
        self.values = arr
        self.values.setflags(write=False)

    def times(self, lam, where: np.ndarray) -> np.ndarray:
        """lam * w at the True entries of ``where`` and 0 elsewhere, lam one
        ratio or one per user; no other product is formed, so weights far
        from lam's users cannot overflow."""
        return np.multiply(lam, self.values, out=np.zeros(self.ground.n),
                           where=where)

    def __getitem__(self, user: str) -> float:
        return float(self.values[self.ground.index[user]])

    @classmethod
    def ones(cls, ground: GroundSet) -> "WeightVector":
        return cls(ground, np.ones(ground.n))


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

    @classmethod
    def zeros(cls, ground: GroundSet, subset_mask: int = -1) -> "RateVector":
        return cls(ground, np.zeros(ground.n), subset_mask)


def conditional_entropy(source: SetFunction, subset) -> float:
    """H(X | V without X) = H(V) - H(V without X)."""
    mask = source.ground.as_mask(subset)
    full = source.ground_mask
    return source.value(full) - source.value(full & ~mask)


def minor(f: SetFunction, pivot: int, block: int, f_pivot: float,
          w_pivot: float, w: WeightVector) -> SetFunction:
    """The contraction of f by ``pivot`` over ``block``, less the pivot's
    ratio times w.

    g(X) = f(X | pivot) - f_pivot * (w(X)/w_pivot + 1) for X inside block,
    given f_pivot = f(pivot) and w_pivot = w(pivot): :func:`contract`,
    shifted by one modular function, which is formed over the block's users
    only.  Makes no oracle call.
    """
    return add_modular(contract(f, pivot, block, f_pivot),
                       w.times(f_pivot / w_pivot,
                               mask_array(block, f.ground.n)))


def contract(f: SetFunction, pivot: int, block: int,
             f_pivot: float) -> SetFunction:
    """The contraction of f by ``pivot``, viewed over ``block``.

    g(X) = f(X | pivot) - f_pivot for X inside block, which must be
    disjoint from the pivot, given f_pivot = f(pivot).  Makes no oracle
    call: the new constant, f's constant plus f's coefficients over the
    pivot plus f_pivot, is the source's value at the joint pivot up to
    rounding, and g(empty) is 0 because every view returns 0 at the empty
    set.
    """
    inner, old_pivot, const, coeffs = _parts(f)
    if coeffs is not None:
        const += float(coeffs[mask_array(pivot, f.ground.n)].sum())
    return ShiftedFunction(inner, block, old_pivot | pivot, const + f_pivot,
                           coeffs)


def greedy_vertex_local(f: SetFunction, elems: np.ndarray,
                        order: np.ndarray) -> np.ndarray:
    """Greedy vertex of f along elems[order], in local coordinates.

    ``elems`` is an integer array of global positions and ``order`` a
    permutation of its indices; entry k of the result is the marginal value
    of elems[k] at its place in the order.  The vertex minimizing <d, x>
    over the base polyhedron is the one along ``np.argsort(d,
    kind="stable")``.  Nothing is validated, as Wolfe's loop calls this once
    per major cycle.
    """
    out = np.empty(len(order))
    out[order] = np.diff(f.prefix_values(elems[order]))
    return out


def exhaustive_ground(f: SetFunction, limit: int, what: str) -> list[int]:
    """Positions of f's ground for a 2^n sweep, refused above ``limit``.

    ``what`` names the operation in the :class:`GroundSetTooLargeError`.
    """
    elems = bit_indices(f.ground_mask)
    if len(elems) > limit:
        raise GroundSetTooLargeError(
            "%s is exhaustive; %d elements exceeds limit %d"
            % (what, len(elems), limit))
    return elems


def check_submodular(f: SetFunction):
    """Exhaustively test diminishing returns; O(2^n * n^2), gated by size.

    Returns (True, None) or (False, (X, Y, i)): the marginal of i onto X is
    strictly below its marginal onto Y = X + j, for the first such (X, i, j)
    in that order, by more than TIE_EPSILON times f's scale.  Each pair of
    elements is one pass over every X.
    """
    elems = exhaustive_ground(f, BRUTE_FORCE_LIMIT, "submodularity check")
    vals = f.all_values(elems)
    tol = TIE_EPSILON * f.scale
    masks = np.arange(1 << len(elems))
    hits = []
    for a, b in itertools.combinations(range(len(elems)), 2):
        ma, mb = 1 << a, 1 << b
        X = masks[(masks & (ma | mb)) == 0]
        v, va, vb, vab = vals[X], vals[X | ma], vals[X | mb], vals[X | ma | mb]
        for i, j, hit in ((a, b, vab - vb > (va - v) + tol),
                          (b, a, vab - va > (vb - v) + tol)):
            if hit.any():
                hits.append((int(X[hit.argmax()]), i, j))
    if not hits:
        return True, None
    lm, i, j = min(hits)
    X = global_mask(lm, elems)
    return False, (f.ground.users_of(X), f.ground.users_of(X | 1 << elems[j]),
                   f.ground.users[elems[i]])


def check_monotone(f: SetFunction):
    """Exhaustively test that single-element marginals are nonnegative.

    Returns (True, None) or (False, (X, i)) for the first marginal below
    -TIE_EPSILON times f's scale in the order of (X, i), each element
    tested in one vectorized pass.
    """
    elems = exhaustive_ground(f, BRUTE_FORCE_LIMIT, "monotonicity check")
    vals = f.all_values(elems)
    tol = TIE_EPSILON * f.scale
    masks = np.arange(1 << len(elems))
    hits = []
    for a in range(len(elems)):
        X = masks[(masks & 1 << a) == 0]
        hit = vals[X | 1 << a] < vals[X] - tol
        if hit.any():
            hits.append((int(X[hit.argmax()]), a))
    if not hits:
        return True, None
    lm, a = min(hits)
    return False, (f.ground.users_of(global_mask(lm, elems)),
                   f.ground.users[elems[a]])


# ---------------------------------------------------------------------------
# Source-model JSON files
# ---------------------------------------------------------------------------

def check_json_numbers(values: Mapping, what: str) -> None:
    """Refuse any value of ``values`` that is not a JSON number as a float.

    ``json.load`` returns numbers as int or float, and a bool is neither
    type, so one pass over the value types accepts a document of floats;
    any other document is checked value by value, to name in the
    ValueError the first value that is no number or an int past the float
    range.
    """
    if set(map(type, values.values())) <= {float}:
        return
    for key, v in values.items():
        if type(v) in (int, float):
            try:
                float(v)
                continue
            except OverflowError:
                pass
        raise ValueError("%s must be finite JSON numbers, got %.40r for %r"
                         % (what, v, key))


def source_from_dict(doc: Mapping) -> SetFunction:
    """Build a source model from its JSON document form.

    ``users`` must be a list, ``bits``, ``observes`` and ``values``
    objects, each user's observations a list, and every bit entropy or
    table value a JSON number; anything else is a :class:`ModelLoadError`.
    """
    try:
        kind = doc["type"]
    except (KeyError, TypeError):
        raise ModelLoadError("source model document lacks a 'type' field")
    if kind not in ("bit_pool", "table"):
        raise ModelLoadError("unknown source model type: %r" % (kind,))
    names = ("bits", "observes") if kind == "bit_pool" else ("values",)
    try:
        users = doc["users"]
        objects = [doc[k] for k in names]
    except KeyError as e:
        raise ModelLoadError("%s model missing field %s" % (kind, e)) from None
    try:
        if type(users) is not list:
            raise ValueError("'users' must be a list")
        for name, obj in zip(names, objects):
            if type(obj) is not dict:
                raise ValueError("%r must be an object" % name)
        ground = GroundSet(users)
        if kind == "table":
            check_json_numbers(objects[0], "table values")
            return TableSource(ground, objects[0])
        bits, observes = objects
        check_json_numbers(bits, "bit entropies")
        if not set(map(type, observes.values())) <= {list}:
            raise ValueError("each user's 'observes' entry must be a list")
        return BitPoolSource(ground, bits, observes)
    except IncompleteTableError:
        raise
    except (ValueError, TypeError) as e:
        raise ModelLoadError("bad %s model: %s" % (kind, e)) from None


def load_source(path) -> SetFunction:
    """Load a bit_pool or table source model from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelLoadError("invalid JSON in %s: %s" % (path, e)) from None
    return source_from_dict(doc)


def source_to_dict(source: SetFunction) -> dict:
    """Document form of a source model (inverse of :func:`source_from_dict`)."""
    if isinstance(source, BitPoolSource):
        # The incidence is sorted by bit, so each user's bits come in order.
        users = source.ground.users
        observes = {user: [] for user in users}
        for i, j in zip(source._inc_user.tolist(), source._inc_bit.tolist()):
            observes[users[i]].append(source.bit_ids[j])
        return {
            "type": "bit_pool",
            "users": list(source.ground.users),
            "bits": {b: float(h) for b, h in zip(source.bit_ids, source.bit_entropy)},
            "observes": observes,
        }
    if isinstance(source, TableSource):
        values = {}
        for mask in range(1, source.ground.full_mask + 1):
            key = ",".join(source.ground.users_of(mask))
            values[key] = source.value(mask)
        return {"type": "table", "users": list(source.ground.users), "values": values}
    raise TypeError("not a serializable source model: %r" % type(source).__name__)
