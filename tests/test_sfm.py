import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swfair.sfm as sfm_module
from swfair.cli import build_parser
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.fairness import egalitarian_oracle_fw
from swfair.setfn import (
    BRUTE_FORCE_LIMIT,
    BitPoolSource,
    GroundSet,
    GroundSetTooLargeError,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    mask_from_indices,
    restrict,
)
from swfair.sfm import SfmResult, solve_sfm
from swfair.split import decompose, egalitarian
from conftest import (OpaquePool, coverage_table, minor_after,
                      random_bit_pool, twin_bit_pool, weight_of)


def shifted(src, coeffs):
    return add_modular(src, np.asarray(coeffs, dtype=float))


def exhaustive(f):
    """The subset sweep on f, whatever solve_sfm would choose."""
    return sfm_module._solve_exhaustive(f, bit_indices(f.ground_mask))


def min_norm_point(f):
    """The minimum-norm base of f over its ground in position order: the
    egalitarian point at unit weights."""
    rates = egalitarian(f, WeightVector.ones(f.ground)).rates
    return rates[bit_indices(f.ground_mask)]


def level_sets(src, rates, w, t):
    """The SFM result of src - t w read off the w-weighted minimum-norm
    base ``rates`` of src: its minimizers are {r/w < t} and {r/w <= t},
    and its minimum the sum of min(r_i - t w_i, 0) (Fujishige 1980).
    Gaps within 1e-9 times src's scale are ties."""
    gap = rates.rates - t * w.values
    tol = 1e-9 * src.scale
    return SfmResult(src.ground, float(np.minimum(gap, 0.0).sum()),
                     mask_from_indices(np.flatnonzero(gap < -tol).tolist()),
                     mask_from_indices(np.flatnonzero(gap <= tol).tolist()),
                     "level_sets", 0, src.ground.n)


def test_example_sfm_scaled_weights(three_users, skew_weights):
    f = shifted(three_users, 0.3 * skew_weights.values)
    res = solve_sfm(f)
    assert res.solver_used == "min_cut"
    assert res.min_value == pytest.approx(-0.3, abs=1e-12)
    assert res.maximal_minimizer == {"3"}
    assert res.minimal_minimizer == {"3"}


def test_example_sfm_unit_weights(three_users):
    f = shifted(three_users, 0.7 * np.ones(3))
    res = solve_sfm(f)
    assert res.min_value == pytest.approx(-0.3, abs=1e-12)
    assert res.maximal_minimizer == {"2", "3"}


def test_zero_function_minimizers():
    g = GroundSet(["1", "2", "3"])
    zero = TableSource(g, {",".join(g.users_of(m)): 0.0 for m in range(1, 8)})
    res = solve_sfm(zero)
    assert res.min_value == 0.0
    assert res.minimal_minimizer == frozenset()
    assert res.maximal_minimizer == {"1", "2", "3"}


def test_empty_ground():
    g = GroundSet(["1"])
    src = TableSource(g, {"1": 0.5})
    res = solve_sfm(restrict(src, []))
    assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == \
        (0.0, frozenset(), frozenset())


def test_min_value_never_positive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        src = random_bit_pool(rng, 6)
        f = shifted(src, rng.uniform(0.0, 1.0, 6))
        assert solve_sfm(f).min_value <= 1e-12


def test_lattice_property_of_tied_minimizers():
    rng = np.random.default_rng(13)
    for _ in range(40):
        src = random_bit_pool(rng, 6)
        # shift by a scaled weight vector so ties at 0 (empty vs full) occur
        w = rng.uniform(0.5, 4.0, 6)
        lam = src.value(src.ground_mask) / w.sum()
        f = shifted(src, lam * w)
        elems = bit_indices(f.ground_mask)
        vals = f.all_values(elems)
        vmin = vals.min()
        tied = [m for m in range(1 << 6) if vals[m] <= vmin + 1e-11]
        for a in tied:
            for b in tied:
                assert vals[a | b] <= vmin + 1e-9
                assert vals[a & b] <= vmin + 1e-9


def test_min_norm_point_modular_is_exact():
    g = GroundSet(["1", "2", "3", "4"])
    c = np.array([0.7, -0.2, 0.4, -1.1])
    table = {}
    for mask in range(1, 16):
        table[",".join(g.users_of(mask))] = float(c[bit_indices(mask)].sum())
    src = TableSource(g, table)
    x = min_norm_point(src)
    assert np.allclose(x, c, atol=1e-9)


def test_min_norm_point_zero_function():
    g = GroundSet(["1", "2"])
    zero = TableSource(g, {"1": 0.0, "2": 0.0, "1,2": 0.0})
    assert np.allclose(min_norm_point(zero), 0.0, atol=1e-12)


def test_min_norm_point_feasibility():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        src = random_bit_pool(rng, n)
        f = shifted(src, rng.uniform(0.0, 0.8, n))
        x = min_norm_point(f)
        assert x.sum() == pytest.approx(f.value(f.ground_mask), abs=1e-8)
        for mask in range(1 << n):
            assert x[bit_indices(mask)].sum() <= f.value(mask) + 1e-8


def test_exhaustive_and_min_norm_agree():
    """The sweep's minimizers of H - lam w are the level sets of the
    weighted minimum-norm base, the engine's egalitarian point."""
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        lam = (rng.uniform(0.1, 0.9) * src.value(src.ground_mask)
               / w.values.sum())
        ex = exhaustive(shifted(src, lam * w.values))
        mn = level_sets(src, egalitarian(src, w), w, lam)
        assert mn.min_value == pytest.approx(ex.min_value, abs=1e-7)
        assert mn.minimal_minimizer == ex.minimal_minimizer
        assert mn.maximal_minimizer == ex.maximal_minimizer


def assert_min_cut_matches(f, reference, tol):
    ref = reference(f)
    cut = solve_sfm(f)
    assert cut.solver_used == "min_cut"
    assert abs(cut.min_value - ref.min_value) <= tol
    assert cut.minimal_mask == ref.minimal_mask
    assert cut.maximal_mask == ref.maximal_mask


def weighted_pool(rng, n, twin):
    """A random bit pool of n users, or a twin of at least n, with weights."""
    if twin:
        return twin_bit_pool(rng, (n + 1) // 2)
    src = random_bit_pool(rng, n, observe_prob=rng.uniform(0.1, 0.6))
    return src, WeightVector(src.ground, rng.uniform(0.5, 4.0, n))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1),
       st.booleans())
def test_min_cut_matches_exhaustive(n, seed, twin):
    rng = np.random.default_rng(seed)
    src, w = weighted_pool(rng, n, twin)
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    # split's ratio, at which the empty and the full set tie, and another
    lam = src.value(src.ground_mask) / w.values.sum()
    for scale in (1.0, rng.uniform(-0.5, 1.5)):
        assert_min_cut_matches(add_modular(src, scale * lam * w.values),
                               exhaustive, tol)
    # the views split builds: a contracted pivot, a restriction, a shift,
    # on a larger pool whose spare users are the pivot or restricted away,
    # of the source and of a view with coefficients of its own
    src, w = weighted_pool(rng, n + int(rng.integers(1, 4)), twin)
    spare = rng.permutation(src.ground.n)[:src.ground.n - n].tolist()
    pivot = mask_from_indices(spare[:int(rng.integers(1, len(spare) + 1))])
    own = rng.uniform(-0.2, 0.2, src.ground.n) * lam * w.values
    for f in (src, add_modular(src, own)):
        g = restrict(minor_after(f, pivot, w),
                     src.ground_mask & ~mask_from_indices(spare))
        sub = g.ground_mask
        lam = g.value(sub) / weight_of(w, sub)
        assert_min_cut_matches(add_modular(g, lam * w.values), exhaustive,
                               tol)


def contraction_pool(rng, n, shared_bits):
    """n users u<i>, each with a private bit p<i>, and ``shared_bits``
    bits s<j> of two or three observers each: (entropies, observations)."""
    bits = {"p%d" % i: float(rng.uniform(0.1, 1.0)) for i in range(n)}
    observes = {"u%d" % i: ["p%d" % i] for i in range(n)}
    for j in range(shared_bits):
        bits["s%d" % j] = float(rng.uniform(0.1, 1.0))
        for i in rng.choice(n, int(rng.integers(2, 4)), replace=False):
            observes["u%d" % i].append("s%d" % j)
    return bits, observes


def pool_source(bits, observes):
    return BitPoolSource(GroundSet(list(observes)), bits, observes)


def split_ratio(src):
    return src.value(src.ground_mask) / src.ground.n


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_contracts_private_bits_either_way(seed):
    """One user's private bits outweigh its coefficient, another's
    coefficient outweighs its private bits, and every other user falls on
    either side of the split ratio."""
    rng = np.random.default_rng(seed)
    bits, observes = contraction_pool(rng, 14, 20)
    bits["p0"], bits["p1"] = 0.9, 0.05
    src = pool_source(bits, observes)
    coef = np.full(14, split_ratio(src))
    coef[0], coef[1] = 0.3, 0.8
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    assert_min_cut_matches(shifted(src, coef), exhaustive, tol)


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_tie_of_a_user_with_no_shared_bit(seed):
    """A user whose coefficient equals its private entropy exactly adds 0 to
    any set: the minimal minimizer leaves it out and the maximal one takes
    it in."""
    rng = np.random.default_rng(seed)
    bits, observes = contraction_pool(rng, 14, 20)
    observes["u2"] = ["p2"]
    bits["p2"] = 0.375
    src = pool_source(bits, observes)
    coef = np.full(14, split_ratio(src))
    coef[2] = 0.375
    f = shifted(src, coef)
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    assert_min_cut_matches(f, exhaustive, tol)
    res = solve_sfm(f)
    assert not res.minimal_mask & 1 << 2
    assert res.maximal_mask & 1 << 2


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_on_a_view_with_no_shared_bit(seed):
    rng = np.random.default_rng(seed)
    bits, observes = contraction_pool(rng, 15, 0)
    src = pool_source(bits, observes)
    coef = rng.uniform(-0.2, 1.0, 15)
    coef[3] = bits["p3"]
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    assert_min_cut_matches(shifted(src, coef), exhaustive, tol)


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_with_no_positive_coefficient(seed):
    """With every c_i <= 0 the network has no source edge: the empty set is
    the only minimizer."""
    rng = np.random.default_rng(seed)
    src = pool_source(*contraction_pool(rng, 13, 16))
    coef = -rng.uniform(0.0, 0.5, 13)
    coef[:3] = 0.0
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    assert_min_cut_matches(shifted(src, coef), exhaustive, tol)
    assert solve_sfm(shifted(src, coef)).maximal_mask == 0


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_with_bits_of_identical_observers(seed):
    rng = np.random.default_rng(seed)
    bits, observes = contraction_pool(rng, 14, 12)
    for j, group in enumerate(([3, 4],) * 3 + ([5, 6, 7],) * 2):
        bits["t%d" % j] = float(rng.uniform(0.1, 1.0))
        for i in group:
            observes["u%d" % i].append("t%d" % j)
    src = pool_source(bits, observes)
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    for scale in (1.0, 0.7, 1.3):
        coef = np.full(14, scale * split_ratio(src))
        assert_min_cut_matches(shifted(src, coef), exhaustive, tol)


@pytest.mark.parametrize("seed", range(4))
def test_min_cut_with_a_pivot_covering_shared_bits(seed):
    """The view split builds for a complement: the pivot user u15 observes
    four bits the view's users share, so those leave the network."""
    rng = np.random.default_rng(seed)
    bits, observes = contraction_pool(rng, 16, 24)
    observes["u15"] = ["p15", "s0", "s1", "s2", "s3"]
    src = pool_source(bits, observes)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, 16))
    rest = src.ground_mask & ~(1 << 15)
    g = restrict(minor_after(src, 1 << 15, w), rest)
    tol = 1e-9 * max(1.0, src.value(src.ground_mask))
    for scale in (1.0, rng.uniform(0.5, 1.5)):
        lam = scale * g.value(rest) / weight_of(w, rest)
        assert_min_cut_matches(add_modular(g, lam * w.values), exhaustive,
                               tol)


# Mean breadth-first rounds of the root min cut on 64-user instances, seeds
# 0-19, unit weights, the observations visited fewest-choice first: 4.55
# with each round searching every level, 6.85 when a round stopped at the
# first level with room.
ROOT_ROUNDS_BOUND = 5.5


def test_min_cut_rounds_stay_few_at_the_root_ratio():
    """A cost guard on the greedy start: the root cut of split's recursion
    at n = 64 needs few rounds on average, and each reports at least the
    round that finds no path."""
    rounds = []
    for seed in range(20):
        src = generate_instance(64, ExperimentConfig(), seed)
        res = solve_sfm(add_modular(src, np.full(64, split_ratio(src))))
        assert res.solver_used == "min_cut" and res.flow_rounds >= 1
        rounds.append(res.flow_rounds)
    assert np.mean(rounds) < ROOT_ROUNDS_BOUND


# Mean rounds per depth flow of decompose on 1,024-user instances, seeds
# 0-2, weights U(0.5, 4): 4.86 with each round searching every level, 10.0
# when a round stopped at the first level with room.
DEPTH_ROUNDS_BOUND = 6.0


def test_depth_flow_rounds_stay_few_at_scale(monkeypatch):
    """A cost guard on the round rule: the depth flows of the engine at n
    = 1,024 need few rounds on average."""
    rounds = []
    real = sfm_module.bipartite_flow

    def spy(*args):
        out = real(*args)
        rounds.append(out[3])
        return out

    monkeypatch.setattr(sfm_module, "bipartite_flow", spy)
    for seed in range(3):
        src = generate_instance(1024, ExperimentConfig(), seed)
        w = np.random.default_rng(seed).uniform(0.5, 4.0, 1024)
        decompose(src, WeightVector(src.ground, w))
    assert rounds and np.mean(rounds) < DEPTH_ROUNDS_BOUND


def test_min_cut_matches_min_norm_up_to_100_users():
    """The min cut against the sweep at 20 users, and above against the
    level sets of the weighted minimum-norm base that the independent
    conditional-gradient oracle finds."""
    rng = np.random.default_rng(37)
    for n in (20, 40, 70, 100):
        src = random_bit_pool(rng, n, observe_prob=1.5 / n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        lam = src.value(src.ground_mask) / w.values.sum()
        oracle = egalitarian_oracle_fw(src, w)
        for scale in (1.0, 0.8):
            reference = exhaustive if n <= BRUTE_FORCE_LIMIT else (
                lambda f: level_sets(src, oracle, w, scale * lam))
            assert_min_cut_matches(add_modular(src, scale * lam * w.values),
                                   reference, 1e-7)


def test_dispatch_rule_at_its_edges():
    """Bit-pool views of any size take the min cut, which calls no oracle;
    other grounds up to 20 users are swept, and larger ones are refused.
    The CLI offers no solver flags."""
    rng = np.random.default_rng(41)
    n = 14
    src = random_bit_pool(rng, n)
    w = WeightVector.ones(src.ground)
    for keep in (1, 2, 12, 13):
        direct = restrict(src, (1 << keep) - 1)
        # the pivot's incidence is read by the min cut as well
        view = restrict(minor_after(src, 1 << (n - 1), w),
                        (1 << keep) - 1)
        for f in (direct, view):
            res = solve_sfm(shifted(f, 0.5 * np.ones(n)))
            assert res.solver_used == "min_cut"
            assert res.oracle_evals == 0 and res.flow_rounds >= 1
    pool = random_bit_pool(rng, n - 1)
    table = TableSource(pool.ground,
                        {m: pool.value(m) for m in range(1, 1 << (n - 1))})
    res = solve_sfm(shifted(table, 0.5 * np.ones(n - 1)))
    assert (res.solver_used, res.flow_rounds) == ("exhaustive", 0)
    big = random_bit_pool(rng, 21, observe_prob=0.1)
    for keep in (16, 20):
        opaque = restrict(OpaquePool(big), (1 << keep) - 1)
        assert solve_sfm(shifted(opaque, 0.1 * np.ones(21))).solver_used \
            == "exhaustive"
    with pytest.raises(GroundSetTooLargeError, match="exceeds limit 20$"):
        solve_sfm(shifted(OpaquePool(big), 0.1 * np.ones(21)))
    parser = build_parser()
    for command in ("egalitarian", "decompose"):
        for flag in ("--exhaustive-threshold", "--tie-epsilon",
                     "--mnp-gap-tolerance", "--max-iterations"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "model.json", flag, "1"])


def test_min_norm_extraction_on_example(three_users):
    """The worked example's minimum-norm point is (1, 0.55, 0.55), and its
    level sets at 0.7 are the minimizers of H - 0.7: {2, 3} both."""
    x = min_norm_point(three_users)
    assert np.allclose(x, [1.0, 0.55, 0.55], rtol=0.0, atol=1e-12)
    ones = WeightVector.ones(three_users.ground)
    res = level_sets(three_users, egalitarian(three_users, ones), ones, 0.7)
    assert res.minimal_minimizer == res.maximal_minimizer == {"2", "3"}
    assert res.min_value == pytest.approx(-0.3, abs=1e-9)
    assert_min_cut_matches(shifted(three_users, 0.7 * np.ones(3)),
                           lambda f: res, 1e-9)


def test_result_invariants_and_serialization(three_users, skew_weights):
    """The bit pool takes the min cut, and a table of its values the
    sweep, which evaluates all 8 subsets."""
    for source, solver in ((three_users, "min_cut"),
                           (coverage_table(three_users), "exhaustive")):
        f = shifted(source, 0.3 * skew_weights.values)
        res = solve_sfm(f)
        assert res.minimal_minimizer <= res.maximal_minimizer
        assert f.value(res.minimal_mask) == pytest.approx(res.min_value,
                                                          abs=1e-9)
        assert f.value(res.maximal_mask) == pytest.approx(res.min_value,
                                                          abs=1e-9)
        doc = res.to_dict()
        assert doc["solver_used"] == solver
        assert doc["maximal_minimizer"] == ["3"]
        assert doc["ground_size"] == 3
        if solver == "min_cut":
            assert doc["oracle_evals"] == 0 and doc["flow_rounds"] >= 1
        else:
            assert doc["oracle_evals"] == 8 and doc["flow_rounds"] == 0
