import signal
from contextlib import contextmanager

import numpy as np
import pytest

from swfair.setfn import (BitPoolSource, GroundSet, SetFunction, TableSource,
                          WeightVector, add_modular, bit_indices, contract,
                          mask_array, source_from_dict, source_to_dict)


@pytest.fixture
def three_users():
    """The independent-bits demo model: three users over four shared bits.

    Hand-computed entropies (bits a=1, b=c=1/2, d=1/10):
      H{1}=2.0  H{2}=0.6  H{3}=0.6  H{1,2}=2.1  H{1,3}=2.1  H{2,3}=1.1  H(V)=2.1
    """
    ground = GroundSet(["1", "2", "3"])
    return BitPoolSource(
        ground,
        bits={"a": 1.0, "b": 0.5, "c": 0.5, "d": 0.1},
        observes={"1": ["a", "b", "c"], "2": ["c", "d"], "3": ["b", "d"]},
    )


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test once its body has run
    that long, so a hang shows as a failure instead of stopping the run."""

    @contextmanager
    def guard(seconds):
        def expire(signum, frame):
            pytest.fail("still running after %g s" % seconds)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard


@pytest.fixture
def unit_weights(three_users):
    return WeightVector.ones(three_users.ground)


@pytest.fixture
def skew_weights(three_users):
    return WeightVector(three_users.ground, [3.0, 1.0, 3.0])


def random_bit_pool(rng, n, pool_factor=3, observe_prob=0.3):
    """Small random coverage-entropy instance for property sweeps."""
    n_bits = pool_factor * n
    bits = {"b%d" % j: float(rng.uniform(0.05, 1.0)) for j in range(n_bits)}
    observes = {}
    for i in range(n):
        row = rng.random(n_bits) < observe_prob
        while not row.any():
            row = rng.random(n_bits) < observe_prob
        observes["u%d" % i] = ["b%d" % j for j in np.nonzero(row)[0]]
    ground = GroundSet(["u%d" % i for i in range(n)])
    return BitPoolSource(ground, bits, observes)


def twin_bit_pool(rng, n):
    """A random instance next to a copy of itself on bits of its own.

    Every level of the union holds both copies of a level at one ratio,
    and the chain cut between the two copies is tight as well.
    """
    one = random_bit_pool(rng, n)
    seen_by = source_to_dict(one)["observes"]
    users, bits, observes = [], {}, {}
    for copy in "xy":
        for u in one.ground.users:
            users.append(copy + u)
            observes[copy + u] = [copy + b for b in seen_by[u]]
        for b, h in zip(one.bit_ids, one.bit_entropy):
            bits[copy + b] = float(h)
    src = BitPoolSource(GroundSet(users), bits, observes)
    w_one = rng.uniform(0.5, 4.0, n)
    return src, WeightVector(src.ground, np.concatenate([w_one, w_one]))


def scaled_source(src, c):
    """src with every bit entropy (bit pool) or value (table) times c."""
    doc = source_to_dict(src)
    key = "bits" if doc["type"] == "bit_pool" else "values"
    doc[key] = {k: c * v for k, v in doc[key].items()}
    return source_from_dict(doc)


def weight_of(w, mask):
    """w summed over the users of ``mask``."""
    return float(w.values[bit_indices(mask)].sum())


def minor(f, pivot, block, f_pivot, w_pivot, w):
    """The contraction of f by ``pivot`` over ``block``, less the pivot's
    ratio times w.

    g(X) = f(X | pivot) - f_pivot * (w(X)/w_pivot + 1) for X inside block,
    given f_pivot = f(pivot) and w_pivot = w(pivot): ``contract``, shifted
    by one modular function, which is formed over the block's users only.
    Makes no oracle call.
    """
    return add_modular(contract(f, pivot, block, f_pivot),
                       w.times(f_pivot / w_pivot,
                               mask_array(block, f.ground.n)))


def minor_after(f, pivot, w):
    """The minor of f after ``pivot``, over the rest of f's ground."""
    return minor(f, pivot, f.ground_mask & ~pivot, f.value(pivot),
                 weight_of(w, pivot), w)


def partition_of(blocks):
    """Ordered block masks as the engine passes them: their positions,
    ascending within each block, and the block sizes."""
    order = np.asarray([i for b in blocks for i in bit_indices(b)],
                       dtype=np.intp)
    return order, [b.bit_count() for b in blocks]


def coverage_table(pool):
    """The table of every value of a bit pool."""
    return TableSource(pool.ground, {m: pool.value(m)
                                     for m in range(1, pool.ground_mask + 1)})


class OpaquePool(SetFunction):
    """A bit pool's values behind an oracle that coverage_cut does not
    recognise, so solve_sfm sweeps its grounds up to 20 users and refuses
    larger ones."""

    def __init__(self, pool):
        self.pool = pool
        self.ground = pool.ground
        self.ground_mask = pool.ground_mask

    def value(self, mask):
        return self.pool.value(mask)

    def prefix_values(self, order, base=0):
        return self.pool.prefix_values(order, base)

    def all_values(self, elements, base=0):
        return self.pool.all_values(elements, base)
