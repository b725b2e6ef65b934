import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swfair.setfn import (
    BitPoolSource,
    GroundSet,
    IncompleteTableError,
    InvalidSubsetError,
    GroundSetTooLargeError,
    ModelLoadError,
    TIE_EPSILON,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    check_monotone,
    check_submodular,
    conditional_entropy,
    contract,
    coverage_cut,
    global_mask,
    greedy_vertex_local,
    load_source,
    mask_array,
    mask_from_indices,
    modular_sums,
    restrict,
    source_from_dict,
    source_to_dict,
    _bulk_table,
    _checked_table,
    _token_masks,
)
import swfair.setfn as setfn_module
import swfair.sfm as sfm_module
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.sfm import solve_blocks
from conftest import (OpaquePool, coverage_table, minor, minor_after,
                      partition_of, random_bit_pool, scaled_source, weight_of)


def test_ground_set_basics():
    g = GroundSet(["a", "b", "c"])
    assert g.n == 3 and g.full_mask == 0b111
    assert g.mask_of(["a", "c"]) == 0b101
    assert g.users_of(0b110) == ("b", "c")
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])
    with pytest.raises(ValueError):
        GroundSet([])
    with pytest.raises(InvalidSubsetError):
        g.mask_of(["z"])
    with pytest.raises(InvalidSubsetError):
        g.as_mask(0b1000)


def test_entropy_known_values(three_users):
    def entropy(subset):
        return three_users.value(three_users.ground.as_mask(subset))

    assert entropy(["1"]) == pytest.approx(2.0, abs=1e-12)
    assert entropy([]) == 0.0
    assert entropy(["2", "3"]) == pytest.approx(1.1, abs=1e-12)
    assert entropy(["1", "2", "3"]) == pytest.approx(2.1, abs=1e-12)
    with pytest.raises(InvalidSubsetError):
        entropy(["1", "9"])


def test_conditional_entropy(three_users):
    assert conditional_entropy(three_users, ["1"]) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(three_users, ["1", "2", "3"]) == pytest.approx(2.1)
    assert conditional_entropy(three_users, []) == 0.0


def test_bit_pool_validation():
    g = GroundSet(["1", "2"])
    with pytest.raises(ValueError):
        BitPoolSource(g, {"a": 0.0}, {"1": ["a"]})
    with pytest.raises(ValueError):
        BitPoolSource(g, {"a": 1.0}, {"1": ["zz"]})
    with pytest.raises(InvalidSubsetError):
        BitPoolSource(g, {"a": 1.0}, {"9": ["a"]})


def test_bit_pool_without_observations():
    src = BitPoolSource(GroundSet(["1", "2"]), {"a": 1.0}, {"1": []})
    assert src.value(0b11) == 0.0
    for vals in (src.prefix_values([1, 0]), src.all_values([0, 1], 0)):
        assert vals.dtype == float and not vals.any()


def test_bit_pool_document_lists_each_observation_once():
    src = BitPoolSource(GroundSet(["1", "2", "3"]),
                        {"a": 1.0, "b": 0.5, "c": 0.25},
                        {"1": ["c", "a", "c"], "3": ["b", "c"]})
    assert source_to_dict(src)["observes"] == {"1": ["a", "c"], "2": [],
                                               "3": ["b", "c"]}


def test_bit_pool_monotone_and_submodular_small():
    rng = np.random.default_rng(7)
    for _ in range(5):
        src = random_bit_pool(rng, 6)
        n = src.ground.n
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                assert src.value(mask | 1 << i) >= src.value(mask) - 1e-12
        assert check_submodular(src)[0]
    assert check_monotone(src)[0]


def test_table_source_roundtrip(three_users):
    doc = source_to_dict(three_users)
    assert doc["type"] == "bit_pool"
    again = source_from_dict(doc)
    for mask in range(8):
        assert again.value(mask) == three_users.value(mask)

    g = three_users.ground
    values = {",".join(g.users_of(m)): three_users.value(m) for m in range(1, 8)}
    table = TableSource(g, values)
    for mask in range(8):
        assert table.value(mask) == pytest.approx(three_users.value(mask), abs=0)
    table_doc = source_to_dict(table)
    assert source_from_dict(table_doc).value(0b011) == pytest.approx(2.1)


def test_table_source_incomplete():
    g = GroundSet(["1", "2"])
    with pytest.raises(IncompleteTableError):
        TableSource(g, {"1": 1.0, "2": 1.0})
    with pytest.raises(ValueError):
        TableSource(g, {"1": 1.0, "2": 1.0, "1,2": 1.5, "": 0.5})


def test_load_source_errors(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(ModelLoadError, match="mystery"):
        load_source(p)
    p.write_text("{not json")
    with pytest.raises(ModelLoadError):
        load_source(p)
    p.write_text(json.dumps({"type": "bit_pool", "users": ["1"]}))
    with pytest.raises(ModelLoadError):
        load_source(p)


def test_reduce_known_values(three_users, skew_weights):
    gs = three_users.ground
    g = minor_after(three_users, gs.mask_of(["3"]), skew_weights)
    assert g.ground_mask == gs.mask_of(["1", "2"])
    assert g.value(0) == 0.0
    assert g.value(gs.mask_of(["2"])) == pytest.approx(0.3, abs=1e-12)
    assert g.value(gs.mask_of(["1", "2"])) == pytest.approx(0.7, abs=1e-12)


def test_minor_forms_its_shift_over_its_block_only():
    """The pivot's ratio times w is formed over the block's users only, so a
    pivot of tiny weights next to huge weights elsewhere overflows nothing
    (the test run turns numpy's overflow warning into an error)."""
    src = generate_instance(8, ExperimentConfig(seed=0))
    w = WeightVector(src.ground, [1e-200, 1e200] * 4)
    pivot, block = 0b1, 0b100           # u0 and u2, both of weight 1e-200
    h_p, w_p = src.value(pivot), weight_of(w, pivot)
    g = minor(src, pivot, block, h_p, w_p, w)
    assert np.isfinite(g.coeffs).all() and not g.coeffs[[1, 3, 5, 7]].any()
    want = src.value(pivot | block) - h_p * (weight_of(w, block) / w_p + 1.0)
    assert g.value(block) == pytest.approx(want, rel=1e-12)


def test_reduce_empty_is_exact_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        src = random_bit_pool(rng, 5)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, 5))
        pivot = int(rng.integers(1, src.ground.full_mask))
        g = minor_after(src, pivot, w)
        assert g.value(0) == 0.0
        # nested reduction stays exactly normalized too
        rest = g.ground_mask
        sub = rest & (rest - 1)
        if sub and sub != rest:
            g2 = minor_after(g, sub, w)
            assert g2.value(0) == 0.0


def reduce_identity_holds(src, w, pivot):
    # g(X) - lam' w(X) must equal f(X | pivot) - f(pivot) - lam w(X)
    # with lam = lam' + f(pivot)/w(pivot), for every X in the complement.
    g = minor_after(src, pivot, w)
    rest = g.ground_mask
    lam_p = g.value(rest) / weight_of(w, rest)
    lam = lam_p + src.value(pivot) / weight_of(w, pivot)
    sub = rest
    while True:
        lhs = g.value(sub) - lam_p * weight_of(w, sub)
        rhs = (src.value(sub | pivot) - src.value(pivot)
               - lam * weight_of(w, sub))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        if sub == 0:
            break
        sub = (sub - 1) & rest


def test_reduce_identity_on_example(three_users, skew_weights, unit_weights):
    for w in (skew_weights, unit_weights):
        for pivot in range(1, 7):
            reduce_identity_holds(three_users, w, pivot)


def test_reduce_identity_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(30):
        src = random_bit_pool(rng, 6)
        n = src.ground.n
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        pivot = int(rng.integers(1, src.ground.full_mask))
        reduce_identity_holds(src, w, pivot)


def test_restrict_shares_values(three_users):
    sub = restrict(three_users, ["2", "3"])
    gs = three_users.ground
    assert sub.value(gs.mask_of(["2"])) == three_users.value(gs.mask_of(["2"]))
    assert sub.ground_mask == gs.mask_of(["2", "3"])
    with pytest.raises(InvalidSubsetError):
        restrict(sub, ["1"])


def test_greedy_vertex_paper_extreme_points(three_users):
    elems = np.arange(3)
    x = greedy_vertex_local(three_users, elems, np.array([0, 1, 2]))
    assert np.allclose(x, [2.0, 0.1, 0.0], atol=1e-12)
    x = greedy_vertex_local(three_users, elems, np.array([2, 1, 0]))
    assert np.allclose(x, [1.0, 0.5, 0.6], atol=1e-12)
    # local coordinates follow elems, not the ground's positions
    x = greedy_vertex_local(three_users, np.array([2, 1]), np.array([1, 0]))
    assert np.allclose(x, [0.5, 0.6], atol=1e-12)


def test_greedy_vertex_zero_function():
    g = GroundSet(["1", "2"])
    zero = TableSource(g, {"1": 0.0, "2": 0.0, "1,2": 0.0})
    assert np.allclose(greedy_vertex_local(zero, np.arange(2),
                                           np.array([1, 0])), 0.0)


def test_greedy_vertex_telescopes_and_stays_in_polyhedron():
    rng = np.random.default_rng(5)
    for _ in range(10):
        src = random_bit_pool(rng, 5)
        n = src.ground.n
        # a zero direction ties every element, and the stable sort then
        # takes them in ascending position
        zero = greedy_vertex_local(src, np.arange(n),
                                   np.argsort(np.zeros(n), kind="stable"))
        assert np.array_equal(zero, greedy_vertex_local(src, np.arange(n),
                                                        np.arange(n)))
        vertices = [zero]
        for _ in range(6):
            vertices.append(greedy_vertex_local(src, np.arange(n),
                                                rng.permutation(n)))
        for x in vertices:
            assert x.sum() == pytest.approx(src.value(src.ground_mask), abs=1e-9)
            for mask in range(1 << n):
                assert x[bit_indices(mask)].sum() <= src.value(mask) + 1e-9


def test_prefix_and_all_values_match_value(three_users, skew_weights):
    # the wide view's elements sit at positions up to 255, where a shift of
    # a 64-bit integer would wrap
    wide = random_bit_pool(np.random.default_rng(3), 256, observe_prob=0.02)
    high = [wide.ground.users[i] for i in (5, 64, 130, 255)]
    for g in (minor_after(three_users, 0b100, skew_weights),
              restrict(wide, high)):
        elems = bit_indices(g.ground_mask)
        vals = g.all_values(elems)
        for lm in range(1 << len(elems)):
            mask = 0
            for k in bit_indices(lm):
                mask |= 1 << elems[k]
            assert global_mask(lm, elems) == mask
            assert global_mask(lm, np.asarray(elems)) == mask
            assert vals[lm] == pytest.approx(g.value(mask), abs=1e-12)
        order = np.array(elems[::-1])
        pv = g.prefix_values(order)
        mask = 0
        assert pv[0] == 0.0
        for k, idx in enumerate(order):
            mask |= 1 << int(idx)
            assert pv[k + 1] == pytest.approx(g.value(mask), abs=1e-12)


def test_check_submodular(three_users):
    ok, witness = check_submodular(three_users)
    assert ok and witness is None

    g = GroundSet(["1", "2"])
    supermodular = TableSource(g, {"1": 0.0, "2": 0.0, "1,2": 1.0})
    ok, witness = check_submodular(supermodular)
    assert not ok
    X, Y, i = witness
    assert set(X) <= set(Y)

    modular = TableSource(g, {"1": 0.5, "2": 0.25, "1,2": 0.75})
    assert check_submodular(modular)[0]

    big = GroundSet([str(i) for i in range(25)])
    big_src = BitPoolSource(big, {"a": 1.0}, {u: ["a"] for u in big})
    with pytest.raises(GroundSetTooLargeError):
        check_submodular(big_src)


def test_checks_judge_by_the_source_scale():
    """Both checks tolerate TIE_EPSILON times the source's scale: a pool
    times 1e6 to 1e12 keeps its rounding within it, and violations of a
    millionth of the scale, planted at scale 1e-12, are still found."""
    src = generate_instance(12, ExperimentConfig(seed=0))
    for c in (1e6, 1e9, 1e12):
        f = scaled_source(src, c)
        assert check_submodular(f) == (True, None)
        assert check_monotone(f) == (True, None)

    tiny = scaled_source(src, 1e-12)
    values = {m: tiny.value(m) for m in range(1, tiny.ground_mask + 1)}
    bump = 1e-6 * tiny.scale
    full = tiny.ground_mask
    # the pair {0, 1} gains more than its two users alone
    pair = dict(values)
    pair[0b11] = values[0b01] + values[0b10] + bump
    assert check_submodular(TableSource(tiny.ground, pair))[0] is False
    # the whole ground is worth less than the ground without user 0
    drop = dict(values)
    drop[full] = values[full & ~1] - bump
    assert check_submodular(TableSource(tiny.ground, drop)) == (True, None)
    ok, (X, i) = check_monotone(TableSource(tiny.ground, drop))
    assert not ok and {*X, i} == set(tiny.ground.users)


def loop_witnesses(f):
    """check_submodular's and check_monotone's witnesses by a plain loop
    over (X, a, b) and (X, a), with the same float expressions."""
    elems = bit_indices(f.ground_mask)
    c = len(elems)
    vals = f.all_values(elems)
    tol = TIE_EPSILON * f.scale
    sub = mono = None
    for lm in range(1 << c):
        for a in range(c):
            if lm >> a & 1:
                continue
            if mono is None and vals[lm | 1 << a] < vals[lm] - tol:
                mono = (f.ground.users_of(global_mask(lm, elems)),
                        f.ground.users[elems[a]])
            m_a = vals[lm | 1 << a] - vals[lm]
            for b in range(c):
                if sub is not None or b == a or lm >> b & 1:
                    continue
                if vals[lm | 1 << a | 1 << b] - vals[lm | 1 << b] > m_a + tol:
                    X = global_mask(lm, elems)
                    sub = (f.ground.users_of(X),
                           f.ground.users_of(X | 1 << elems[b]),
                           f.ground.users[elems[a]])
    return sub, mono


def test_check_witnesses_match_a_plain_loop():
    rng = np.random.default_rng(83)
    seen = Counter()
    for k in range(12):
        n = 4 + k % 5
        pool = random_bit_pool(rng, n)
        values = {m: pool.value(m) for m in range(1, 1 << n)}
        # a few bumps up and down on larger subsets break both properties
        # somewhere past the first masks of the loop order
        for m in rng.integers(1 << (n - 2), 1 << n, size=3):
            values[int(m)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        table = TableSource(pool.ground, values)
        keep = pool.ground_mask & ~(1 << int(rng.integers(n)))
        for f in (table, restrict(table, keep)):
            sub, mono = loop_witnesses(f)
            assert check_submodular(f) == (sub is None, sub)
            assert check_monotone(f) == (mono is None, mono)
            seen.update(sub=sub is not None, mono=mono is not None)
    assert seen["sub"] >= 12 and seen["mono"] >= 6


def test_weight_vector(three_users):
    g = three_users.ground
    w = WeightVector(g, [3, 1, 3])
    assert w["2"] == 1.0
    with pytest.raises(ValueError):
        WeightVector(g, [1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        WeightVector(g, [1.0, 1.0])


def test_weight_vector_refuses_non_finite(three_users):
    g = three_users.ground
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            WeightVector(g, [1.0, bad, 1.0])


def test_weight_vector_refuses_subnormal_weights_and_overflowing_sums(
        three_users):
    g = three_users.ground
    tiny = np.finfo(float).tiny
    for bad in ([1e-320, 1.0, 1.0], [tiny / 2] * 3, [1e308] * 3):
        with pytest.raises(ValueError, match="finite sum"):
            WeightVector(g, bad)
    assert WeightVector(g, [tiny, 1e308, 1.0]).values[0] == tiny


def test_sources_refuse_non_finite_values():
    g = GroundSet(["1", "2"])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            BitPoolSource(g, {"a": 1.0, "b": bad}, {"1": ["a"], "2": ["b"]})
        with pytest.raises(ValueError, match="finite"):
            TableSource(g, {"1": 1.0, "2": bad, "1,2": 1.5})
    # finite values whose sum overflows are still accepted
    huge = TableSource(g, {"1": 1e308, "2": 1e308, "1,2": 1e308})
    assert huge.value(0b11) == 1e308


def test_bit_indices_refuses_negative_mask():
    with pytest.raises(ValueError):
        bit_indices(-1)


def test_mask_array_crosses_word_boundaries():
    for n in (1, 7, 8, 9, 64, 65, 130):
        for idx in ([], [0], [n - 1], sorted({0, n // 2, n - 1})):
            mask = sum(1 << i for i in idx)
            arr = mask_array(mask, n)
            assert arr.dtype == bool and arr.shape == (n,)
            assert np.flatnonzero(arr).tolist() == idx


# -- Oracle properties against a dense reference ---------------------------
#
# The reference keeps its own users x bits incidence matrix, built from the
# model document, and evaluates H(X) as the entropy of the bits covered by
# the rows of X.  Models cross the 64-bit word boundary, carry a bit no user
# observes and a user who lists one bit twice.


class DenseReference:
    def __init__(self, n, entropy, observes):
        self.h = np.asarray(entropy)
        self.obs = np.zeros((n, len(entropy)), dtype=bool)
        for i, seen in enumerate(observes):
            self.obs[i, seen] = True

    def value(self, mask):
        rows = [i for i in range(self.obs.shape[0]) if mask >> i & 1]
        return float(self.h @ self.obs[rows].any(axis=0)) if rows else 0.0


@st.composite
def bit_pool_models(draw):
    n = draw(st.integers(1, 150))
    n_bits = draw(st.integers(1, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = min(1.0, draw(st.floats(0.5, 3.0)) / n)
    entropy = rng.uniform(0.01, 1.0, n_bits + 1)    # last bit: nobody sees it
    observes = [np.flatnonzero(rng.random(n_bits) < p).tolist()
                for _ in range(n)]
    observes[0] = observes[0] + [int(rng.integers(n_bits))] * 2
    users = ["u%d" % i for i in range(n)]
    src = BitPoolSource(
        GroundSet(users),
        {"b%d" % j: float(h) for j, h in enumerate(entropy)},
        {u: ["b%d" % j for j in seen] for u, seen in zip(users, observes)})
    return src, DenseReference(n, entropy, observes), rng


def random_mask(rng, within):
    idx = [i for i in bit_indices(within) if rng.random() < 0.5]
    return sum(1 << i for i in idx)


def check_oracle(f, ref, rng, tol):
    """Compare value, prefix_values and all_values of f with ref(mask)."""
    elems = bit_indices(f.ground_mask)
    for _ in range(3):
        mask = random_mask(rng, f.ground_mask)
        assert f.value(mask) == pytest.approx(ref(mask), abs=tol)

    order = rng.permutation(elems)
    base = random_mask(rng, f.ground_mask)
    for b in (0, base):
        rest = [int(i) for i in order if not b >> int(i) & 1]
        pv = f.prefix_values(np.asarray(rest, dtype=np.intp), b)
        assert len(pv) == len(rest) + 1
        mask = b
        want = [ref(mask)]
        for i in rest:
            mask |= 1 << i
            want.append(ref(mask))
        assert pv == pytest.approx(want, abs=tol)

    for b in (0, base):
        free = [i for i in elems if not b >> i & 1]
        local = sorted(rng.permutation(free)[:min(10, len(free))].tolist())
        av = f.all_values(local, b)
        assert len(av) == 1 << len(local)
        want = []
        for lm in range(1 << len(local)):
            want.append(ref(b | sum(1 << e for k, e in enumerate(local)
                                    if lm >> k & 1)))
        assert av == pytest.approx(want, abs=tol)


@settings(max_examples=25, deadline=None)
@given(bit_pool_models())
def test_bit_pool_oracle_matches_dense_reference(model):
    src, ref, rng = model
    tol = 1e-9 * max(1.0, ref.value(src.ground_mask))
    check_oracle(src, ref.value, rng, tol)


@settings(max_examples=15, deadline=None)
@given(bit_pool_models())
def test_bit_pool_views_match_dense_reference(model):
    src, ref, rng = model
    n = src.ground.n
    tol = 1e-9 * max(1.0, ref.value(src.ground_mask))
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    coeffs = rng.uniform(-1.0, 1.0, n)
    sub = random_mask(rng, src.ground_mask) or src.ground_mask

    f = restrict(src, sub)
    check_oracle(f, ref.value, rng, tol)
    g = add_modular(f, coeffs)
    check_oracle(g, lambda m: ref.value(m) - coeffs[bit_indices(m)].sum(),
                 rng, tol)

    pivot = random_mask(rng, sub)
    if pivot in (0, sub):
        return
    h_p, w_p = ref.value(pivot), w.values[bit_indices(pivot)].sum()

    def reduced(m):
        if m == 0:
            return 0.0
        w_m = w.values[bit_indices(m)].sum()
        return ref.value(m | pivot) - h_p * (w_m / w_p + 1.0)

    r = minor_after(f, pivot, w)
    check_oracle(r, reduced, rng, tol)
    check_oracle(add_modular(r, coeffs),
                 lambda m: reduced(m) - coeffs[bit_indices(m)].sum(),
                 rng, tol)


@st.composite
def partitioned_pools(draw):
    """(src, blocks, rest, rng): a bit pool of up to 40 users, an ordered
    partition of a random part of its users into blocks of 1 to 12 users,
    the blocks of 1 and of 12 drawn most often, and the users left out."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = random_bit_pool(rng, n, observe_prob=min(
        1.0, draw(st.floats(0.5, 3.0)) / n))
    users = rng.permutation(n)[:draw(st.integers(1, n))].tolist()
    blocks = []
    while users:
        c = draw(st.sampled_from([1, 12]) | st.integers(1, 12))
        blocks.append(mask_from_indices(users[:c]))
        users = users[c:]
    rest = src.ground_mask & ~mask_from_indices(
        i for b in blocks for i in bit_indices(b))
    return src, blocks, rest, rng


def check_block_sweeps(f, blocks, rng, base=0):
    """solve_blocks on f, an oracle coverage_cut does not read, after
    ``base`` as a leading untested block: each tested block's result is
    the exhaustive sweep of f contracted by the blocks before it, less the
    modular function solve_blocks takes (none, or one at f's scale), with
    its minimum within TIE_EPSILON times f's scale, and the flags mark the
    positions outside its maximal minimizer M.  Its gains are f's over M
    and over the rest of the block, after the blocks before it, without
    the modular function, within 1e-12 times f's scale."""
    order, sizes = partition_of([base, *blocks])
    starts = np.cumsum([0, *sizes])
    before = [0, base]
    for block in blocks:
        before.append(before[-1] | block)
    tests = sorted(rng.permutation(len(blocks))[
        :rng.integers(0, len(blocks) + 1)] + 1)
    for coeffs in (None, rng.uniform(-1.0, 1.0, f.ground.n) * f.scale
                   / f.ground.n):
        outside, gains, result = solve_blocks(f, order, sizes, tests, coeffs)
        flags = np.zeros(len(order), dtype=int)
        for t, j in enumerate(tests):
            elems = bit_indices(blocks[j - 1])
            objective = contract(f, before[j], blocks[j - 1],
                                 f.value(before[j]))
            if coeffs is not None:
                objective = add_modular(objective, coeffs)
            want = sfm_module._solve_exhaustive(objective, elems)
            got = result(t)
            assert (got.minimal_mask, got.maximal_mask, got.solver_used,
                    got.oracle_evals, got.ground_size) == \
                (want.minimal_mask, want.maximal_mask, "exhaustive",
                 1 << len(elems), len(elems))
            assert got.min_value == pytest.approx(
                want.min_value, rel=0.0, abs=TIE_EPSILON * f.scale)
            at = f.value(before[j] | got.maximal_mask)
            assert gains[t] == pytest.approx(
                (at - f.value(before[j]), f.value(before[j + 1]) - at),
                rel=0.0, abs=1e-12 * f.scale)
            flags[starts[j]:starts[j + 1]] = [
                not got.maximal_mask >> i & 1 for i in elems]
        assert outside.tolist() == flags.tolist()


@settings(max_examples=40, deadline=None)
@given(partitioned_pools())
def test_solve_blocks_sweeps_each_block_on_its_minor(model):
    """The sweep, which every oracle other than a bit pool takes: on a bit
    pool behind OpaquePool and its restrict, add_modular and minor views
    (with a pivot and coefficients of their own), and on a table and its
    views, with and without a leading block of users outside the blocks.
    The blocks are cut to 16 users and the leading block to 4, as the
    sweep refuses grounds above 20."""
    src, blocks, rest, rng = model
    n = src.ground.n
    kept = list(itertools.accumulate(b.bit_count() for b in blocks))
    blocks = blocks[:sum(c <= 16 for c in kept)]
    base = mask_from_indices(rng.permutation(bit_indices(rest))[
        :rng.integers(0, 5)].tolist())
    inside = mask_from_indices(i for b in blocks for i in bit_indices(b))
    opaque = OpaquePool(src)
    sub = restrict(opaque, inside | base)
    check_block_sweeps(sub, blocks, rng)
    check_block_sweeps(sub, blocks, rng, base)
    coeffs = rng.uniform(-1.0, 1.0, n)
    check_block_sweeps(add_modular(sub, coeffs), blocks, rng, base)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    pivot = rest & ~base
    if pivot:
        for f in (opaque, add_modular(opaque, coeffs)):
            g = minor(f, pivot, inside | base, f.value(pivot),
                      weight_of(w, pivot), w)
            check_block_sweeps(g, blocks, rng)
            check_block_sweeps(g, blocks, rng, base)
    if n <= 12:
        table = coverage_table(src)
        check_block_sweeps(table, blocks, rng, base)
        for view in (restrict(table, inside | base),
                     add_modular(table, rng.uniform(-1.0, 1.0, n))):
            check_block_sweeps(view, blocks, rng, base)


def check_coverage_cut(f, blocks, rng):
    """Each wanted block's network holds its gains: for X inside block j,
    the entropy of the block's bits that X observes, less the cut's
    coefficients over X, is f(S_j | X) - f(S_j) less the caller's
    coefficients over X, within TIE_EPSILON times f's scale.  No bit has
    observers in two blocks."""
    order, sizes = partition_of(blocks)
    wanted = sorted(rng.permutation(len(blocks))[
        :rng.integers(1, len(blocks) + 1)].tolist())
    coeffs = rng.uniform(-1.0, 1.0, f.ground.n) * f.scale / f.ground.n
    users, starts, user, bit, h, c = coverage_cut(f, order, sizes, wanted,
                                                  coeffs)
    assert starts == np.cumsum([0, *(sizes[j] for j in wanted)]).tolist()
    owner = np.searchsorted(starts, user, side="right") - 1
    for b in range(len(h)):
        assert len(set(owner[bit == b].tolist())) == 1
    before = [0]
    for block in blocks:
        before.append(before[-1] | block)
    for t, j in enumerate(wanted):
        elems = bit_indices(blocks[j])
        assert users[starts[t]:starts[t + 1]].tolist() == elems
        size = len(elems)
        pattern = np.zeros(len(h), dtype=np.int64)
        here = owner == t
        np.bitwise_or.at(pattern, bit[here], 1 << (user[here] - starts[t]))
        subsets = np.arange(1 << size)
        got = np.zeros(1 << size)
        for b in np.flatnonzero(pattern):
            got[(subsets & pattern[b]) != 0] += h[b]
        got -= modular_sums(c[starts[t]:starts[t + 1]])
        want = (f.all_values(elems, before[j]) - f.value(before[j])
                - modular_sums(coeffs[elems]))
        assert got == pytest.approx(want, rel=0.0,
                                    abs=TIE_EPSILON * f.scale)


@settings(max_examples=40, deadline=None)
@given(partitioned_pools())
def test_coverage_cut_holds_each_blocks_gains(model):
    """On a bit pool and its restrict, add_modular and minor views, with a
    pivot and coefficients of their own; a table has no cut."""
    src, blocks, rest, rng = model
    n = src.ground.n
    inside = src.ground_mask & ~rest
    check_coverage_cut(src, blocks, rng)
    sub = restrict(src, inside)
    check_coverage_cut(sub, blocks, rng)
    coeffs = rng.uniform(-1.0, 1.0, n)
    check_coverage_cut(add_modular(sub, coeffs), blocks, rng)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    if rest:
        for f in (src, add_modular(src, coeffs)):
            check_coverage_cut(minor(f, rest, inside, f.value(rest),
                                     weight_of(w, rest), w), blocks, rng)
    if n <= 12:
        order, sizes = partition_of(blocks)
        assert coverage_cut(coverage_table(src), order, sizes,
                            [0]) is None


def test_modular_sums_matches_mask_loop():
    rng = np.random.default_rng(59)
    for c in range(11):
        coeffs = rng.uniform(-1.0, 1.0, c)
        want = np.zeros(1 << c)
        submasks = np.arange(1 << c)
        for k in range(c):
            want[(submasks >> k & 1) == 1] += coeffs[k]
        assert np.allclose(modular_sums(coeffs), want, rtol=0.0,
                           atol=1e-15 * max(1, c))
        # a stack of rows gives each row's table, bit for bit
        rows = rng.uniform(-1.0, 1.0, (3, c))
        stacked = modular_sums(rows)
        assert stacked.shape == (3, 1 << c)
        for row, table in zip(rows, stacked):
            assert table.tobytes() == modular_sums(row).tobytes()


# -- Dense tables against the generic per-subset loops ---------------------
#
# A TableSource answers every bulk call with one gather from its array.  A
# plain oracle over the same values defines only ``value``, so each of its
# bulk calls, and each view over it, takes the loops that SetFunction
# defines; both must give the same floats, bit for bit.


class PlainTable(SetFunction):
    def __init__(self, ground, values):
        self.ground = ground
        self.ground_mask = ground.full_mask
        self.values = values

    def value(self, mask):
        return self.values[mask] if mask else 0.0


@st.composite
def table_models(draw):
    """(values, plain, rng): a bumped bit-pool table keyed in shuffled order
    by comma strings in any user order, or mixed with masks and tuples of
    ids, sometimes with an empty key worth 0."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = random_bit_pool(rng, n)
    values = {m: pool.value(m) for m in range(1, 1 << n)}
    for m in rng.integers(1, 1 << n, size=draw(st.integers(0, 3))):
        values[int(m)] += rng.uniform(-2.0, 2.0)
    strings = draw(st.booleans())
    doc = {}
    for m in rng.permutation(np.arange(1, 1 << n)).tolist():
        users = list(pool.ground.users_of(m))
        rng.shuffle(users)
        style = "string" if strings else rng.choice(["string", "mask", "ids"])
        key = {"string": ",".join(users), "mask": m, "ids": tuple(users)}
        doc[key[style]] = values[m]
    if draw(st.booleans()):
        doc[""] = 0.0
    return doc, PlainTable(pool.ground, values), rng


def assert_same_oracle(f, ref, rng):
    """value, prefix_values and all_values of f and ref agree bit for bit,
    with and without a base."""
    elems = bit_indices(f.ground_mask)
    for mask in (0, f.ground_mask, random_mask(rng, f.ground_mask)):
        v = f.value(mask)
        assert type(v) is float and v == ref.value(mask)
    base = random_mask(rng, f.ground_mask)
    for b in (0, base):
        free = [i for i in elems if not b >> i & 1]
        order = rng.permutation(np.asarray(free, dtype=np.intp))
        for got, want in ((f.prefix_values(order, b),
                           ref.prefix_values(order, b)),
                          (f.all_values(free, b), ref.all_values(free, b))):
            assert got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(table_models())
def test_dense_table_matches_the_generic_loops(model):
    doc, plain, rng = model
    g = plain.ground
    table = TableSource(g, doc)
    # the bulk parse takes exactly the tables keyed by nonempty strings
    strings = all(type(k) is str and k for k in doc)
    assert (_bulk_table(g, doc) is not None) == strings
    assert_same_oracle(table, plain, rng)

    sub = random_mask(rng, g.full_mask) or g.full_mask
    coeffs = rng.uniform(-1.0, 1.0, g.n)
    w = WeightVector(g, rng.uniform(0.5, 4.0, g.n))
    pivot = random_mask(rng, sub)
    views = [lambda f: restrict(f, sub),
             lambda f: add_modular(restrict(f, sub), coeffs)]
    if pivot not in (0, sub):
        def contract(f):
            g = add_modular(f, coeffs)
            return minor(g, pivot, sub & ~pivot, g.value(pivot),
                         weight_of(w, pivot), w)
        views += [contract, lambda f: minor_after(f, pivot, w)]
    for view in views:
        assert_same_oracle(view(table), view(plain), rng)
        # every view keeps the scale of its source
        assert view(table).scale == table.scale
        assert view(plain).scale == plain.scale

    # a table's scale is its largest |value|; the plain oracle's is the
    # generic one, the largest |f| over the ground and the singletons
    values = plain.values
    assert table.scale == max(abs(v) for v in values.values())
    assert plain.scale == max(abs(values[m]) for m in
                              [g.full_mask, *(1 << i for i in range(g.n))])


def test_table_source_errors_keep_their_messages():
    g = GroundSet(["1", "2"])
    cases = [
        ({"1": 1.0, "2": 1.0, "1,9": 1.5}, InvalidSubsetError,
         "unknown user '9'"),
        # the first bad key in key order names the error
        ({"1": "x", "2": 1.0, "1,9": 1.5}, ValueError,
         "could not convert string to float: 'x'"),
        ({"1,9": 1.5, "1": "x", "2": 1.0}, InvalidSubsetError,
         "unknown user '9'"),
        # every key parses, so only the value numpy cannot convert sends
        # the table key by key
        ({"1": 1.0, "2": "x", "1,2": 1.5}, ValueError,
         "could not convert string to float: 'x'"),
        ({"1": 1.0, "1,2": 1.5, "2,1": 1.5}, ValueError,
         r"duplicate table entry for \('1', '2'\)"),
        ({"1": 1.0, "2": 1.0, "1,2": 1.5, "2,1": 1.5}, ValueError,
         r"duplicate table entry for \('1', '2'\)"),
        ({"1": 1.0, "1,1": 1.0, "1,2": 1.5}, ValueError,
         r"duplicate table entry for \('1',\)"),
        ({"1": 1.0, "2": 1.0, "1,2": 1.5, "": 0.5}, ValueError,
         r"H\(empty\) must be 0, got 0.5"),
        ({"1": 1.0, "2": 1.0}, IncompleteTableError,
         r"missing 1 of 3 nonempty subsets, first: \('1', '2'\)"),
    ]
    for bad in (np.nan, np.inf, -np.inf):
        cases.append(({"1": 1.0, "2": bad, "1,2": 1.5}, ValueError,
                      r"table value for \('2',\) is not finite: %s" % bad))
    for values, error, message in cases:
        with pytest.raises(error, match=message):
            TableSource(g, values)
    assert _bulk_table(g, {"1": 1.0, "2": "x", "1,2": 1.5}) is None
    # the empty key names no user, not even a user called ""
    with pytest.raises(IncompleteTableError, match=r"first: \('',\)"):
        TableSource(GroundSet(["", "a"]), {"": 0.0, "a": 1.0, "a,": 1.5})
    three = GroundSet(["1", "2", "3"])
    values = {",".join(three.users_of(m)): 1.0 for m in (1, 2, 5, 6, 7)}
    with pytest.raises(IncompleteTableError,
                       match=r"missing 2 of 7 nonempty subsets, first: "
                             r"\('1', '2'\)"):
        TableSource(three, values)


def test_table_key_naming_a_user_twice_names_it_once():
    g = GroundSet(["1", "2"])
    values = {"1,1": 1.0, "2": 2.0, "2,1,2": 2.5}
    assert _bulk_table(g, values) is None
    table = TableSource(g, values)
    assert [table.value(m) for m in range(4)] == [0.0, 1.0, 2.0, 2.5]


def mask_order_table(n, seed):
    """The values of a random n-user table in source_to_dict's layout, and
    its ground."""
    rng = np.random.default_rng(seed)
    g = GroundSet(["u%d" % i for i in range(n)])
    doc = source_to_dict(TableSource(g, dict(enumerate(
        rng.standard_normal(1 << n)[1:], start=1))))
    return g, doc["values"]


@pytest.mark.parametrize("n", range(1, 13))
def test_tables_in_mask_order_load_without_a_token_parse(monkeypatch, n):
    """A table in source_to_dict's layout never splits a key, and its array
    is byte for byte the one the token parse and the key-by-key path give."""
    g, values = mask_order_table(n, n)
    keys = list(values)
    by_tokens = np.zeros(len(keys) + 1)
    by_tokens[_token_masks(g, keys)] = list(values.values())
    by_key = _checked_table(g, values)
    monkeypatch.setattr(setfn_module, "_token_masks", None)
    table = TableSource(g, values)._table
    assert table.tobytes() == by_tokens.tobytes() == by_key.tobytes()


def load_outcome(build):
    try:
        return build().tobytes()
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_tables_out_of_mask_order_load_as_the_checked_path_does(n):
    """Two keys swapped, one key's users reordered, one subset named twice
    or one value not finite: each table loads to the array, or fails with
    the error and message, of the key-by-key path."""
    g, values = mask_order_table(n, 100 + n)
    rng = np.random.default_rng(n)
    items = list(values.items())
    a, b = sorted(rng.choice(len(items), 2, replace=False).tolist())
    multi = [k for k, (key, _) in enumerate(items) if "," in key]
    changed = {}
    swapped = items.copy()
    swapped[a], swapped[b] = swapped[b], swapped[a]
    changed["swapped"] = dict(swapped)
    relabelled = items.copy()
    relabelled[a], relabelled[b] = ((items[b][0], items[a][1]),
                                    (items[a][0], items[b][1]))
    changed["relabelled"] = dict(relabelled)
    if multi:
        k = multi[-1]
        key, v = items[k]
        reordered = items.copy()
        reordered[k] = (",".join(key.split(",")[::-1]), v)
        changed["reordered"] = dict(reordered)
        repeated = items.copy()
        repeated[a] = (",".join(items[k][0].split(",")[::-1]), items[a][1])
        changed["repeated"] = dict(repeated)
    for bad in (np.nan, np.inf):
        changed["not finite %s" % bad] = {**values, items[b][0]: bad}
    for name, doc in changed.items():
        assert list(doc.items()) != list(values.items()), name
        got = load_outcome(lambda: TableSource(g, doc)._table)
        assert got == load_outcome(lambda: _checked_table(g, doc)), name
    if multi:
        assert load_outcome(lambda: TableSource(g, changed["repeated"])
                            )[0] is ValueError
        assert (TableSource(g, changed["reordered"])._table.tobytes()
                == TableSource(g, values)._table.tobytes())


@pytest.mark.parametrize("n", [40, 64])
def test_sparse_wide_table_is_refused_at_once(n):
    g = GroundSet(["u%d" % i for i in range(n)])
    start = time.perf_counter()
    with pytest.raises(IncompleteTableError,
                       match=r"missing %d of %d nonempty subsets, first: "
                             r"\('u1',\)" % (2**n - 2, 2**n - 1)):
        TableSource(g, {"u0": 1.0})
    assert time.perf_counter() - start < 1.0
