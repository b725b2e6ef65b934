import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swfair.sfm as sfm_module
from swfair.cli import build_parser
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.setfn import (
    BitPoolSource,
    GroundSet,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    greedy_vertex_local,
    mask_from_indices,
    restrict,
    source_to_dict,
)
from swfair.sfm import (
    CONVERGED,
    EXHAUSTIVE_UP_TO,
    STALLED,
    ConvergenceError,
    SfmResult,
    _wolfe,
    solve_sfm,
)
from swfair.split import decompose, egalitarian, subset_label
from conftest import (OpaquePool, coverage_table, minor_after,
                      random_bit_pool, twin_bit_pool, weight_of)


def shifted(src, coeffs):
    return add_modular(src, np.asarray(coeffs, dtype=float))


def exhaustive(f):
    """The subset sweep on f, whatever solve_sfm would choose."""
    return sfm_module._solve_exhaustive(f, bit_indices(f.ground_mask))


def min_norm(f):
    """Wolfe's solve on f, whatever solve_sfm would choose."""
    return sfm_module._solve_min_norm(f, bit_indices(f.ground_mask))


def min_norm_point(f):
    """The minimum-norm base of f over its ground in position order: the
    egalitarian point at unit weights."""
    rates = egalitarian(f, WeightVector.ones(f.ground)).rates
    return rates[bit_indices(f.ground_mask)]


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
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        src = random_bit_pool(rng, n)
        w = rng.uniform(0.5, 4.0, n)
        lam = rng.uniform(0.1, 0.9) * src.value(src.ground_mask) / w.sum()
        f = shifted(src, lam * w)
        ex = exhaustive(f)
        mn = min_norm(f)
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
@given(st.integers(2, EXHAUSTIVE_UP_TO), st.integers(0, 2**32 - 1),
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
    rng = np.random.default_rng(37)
    for n in (20, 40, 70, 100):
        src = random_bit_pool(rng, n, observe_prob=1.5 / n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        lam = src.value(src.ground_mask) / w.values.sum()
        for scale in (1.0, 0.8):
            assert_min_cut_matches(add_modular(src, scale * lam * w.values),
                                   min_norm, 1e-7)


def test_dispatch_rule_at_its_edges():
    """Bit-pool views of any size take the min cut, which calls no oracle;
    other grounds up to 16 users are swept, and larger ones go to Wolfe.
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
    big = random_bit_pool(rng, 17, observe_prob=0.1)
    for keep, solver in ((16, "exhaustive"), (17, "min_norm_point")):
        opaque = restrict(OpaquePool(big), (1 << keep) - 1)
        assert solve_sfm(shifted(opaque, 0.1 * np.ones(17))).solver_used \
            == solver
    parser = build_parser()
    for command in ("egalitarian", "decompose"):
        for flag in ("--exhaustive-threshold", "--tie-epsilon",
                     "--mnp-gap-tolerance", "--max-iterations"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "model.json", flag, "1"])


def test_min_norm_extraction_on_example(three_users):
    f = shifted(three_users, 0.7 * np.ones(3))
    res = min_norm(f)
    assert res.solver_used == "min_norm_point"
    assert res.maximal_minimizer == {"2", "3"}
    assert res.min_value == pytest.approx(-0.3, abs=1e-9)


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


def test_convergence_error_carries_best(wolfe_capped):
    rng = np.random.default_rng(31)
    src = random_bit_pool(rng, 10)
    f = shifted(src, rng.uniform(0.2, 0.6, 10))
    with pytest.raises(ConvergenceError, match="iteration cap") as err:
        min_norm(f)
    assert isinstance(err.value.best, SfmResult)


def test_wolfe_stall_is_not_convergence(monkeypatch):
    # A negative tolerance fails every gap, even the exact 0 of an active
    # vertex, and on this instance Wolfe's next vertex is already active
    # before the iteration cap: a stall, which must not be reported as
    # convergence.
    rng = np.random.default_rng(48)
    n = int(rng.integers(2, 12))
    src = random_bit_pool(rng, n)
    f = shifted(src, rng.uniform(0.2, 0.6, n))
    monkeypatch.setattr(sfm_module, "MNP_GAP", -1.0)
    with pytest.raises(ConvergenceError, match="stalled") as err:
        min_norm(f)
    assert isinstance(err.value.best, SfmResult)


def test_wolfe_overflow_is_not_convergence(deadline):
    """Wolfe's coordinates are in units of the source's scale, so entropies
    near 1e154 no longer overflow |x|^2: the pool converges to 1e154 times
    the unit-scale point.  A table whose values span the float range still
    can: f(ab) = 1e308 over f(abc) = -1e308 puts a greedy vertex's last
    marginal beyond it.  The gap is then not finite and no cycle can pass
    its test, so the run ends at once and says why."""
    rng = np.random.default_rng(5)
    src = random_bit_pool(rng, 8)
    huge = BitPoolSource(src.ground, {b: 1e154 * h for b, h in
                                      zip(src.bit_ids, src.bit_entropy)},
                         source_to_dict(src)["observes"])
    elems = np.asarray(bit_indices(src.ground_mask), dtype=np.intp)
    with deadline(2.0):
        x, stop = _wolfe(huge, elems, sfm_module.MNP_GAP)
        x_ref, stop_ref = _wolfe(src, elems, sfm_module.MNP_GAP)
        assert stop == stop_ref == CONVERGED
        assert np.allclose(x, 1e154 * x_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(min_norm_point(huge), 1e154 * min_norm_point(src),
                           rtol=1e-12, atol=0.0)

    g = GroundSet(["a", "b", "c"])
    table = TableSource(g, {"a": 1.0, "b": 1.0, "c": 1.0, "a,b": 1e308,
                            "a,c": 1.0, "b,c": 1.0, "a,b,c": -1e308})
    with deadline(2.0):
        _, stop = _wolfe(table, [0, 1, 2], sfm_module.MNP_GAP)
        assert stop == sfm_module.OVERFLOWED
        with pytest.raises(ConvergenceError, match="overflowed"):
            min_norm(table)


def test_wolfe_active_vertex_is_a_stall_whatever_the_rounding(monkeypatch):
    # The vertex oracle keeps returning its first vertex, which is active
    # from the start, and a negative gap tolerance fails even a gap of
    # exactly 0: the run can only stall, and must say so.
    rng = np.random.default_rng(48)
    f = shifted(random_bit_pool(rng, 6), rng.uniform(0.2, 0.6, 6))
    monkeypatch.setattr(sfm_module, "MNP_GAP", -1.0)
    first = []

    def stuck(oracle, elems, order):
        if not first:
            first.append(greedy_vertex_local(oracle, elems, order))
        return first[0].copy()

    monkeypatch.setattr(sfm_module, "greedy_vertex_local", stuck)
    with pytest.raises(ConvergenceError, match="stalled"):
        min_norm(f)
    assert first


def test_wolfe_minor_cycle_with_no_coefficient_moving(monkeypatch):
    # The first major cycle's affine minimizer is made to return the
    # current weights, the new vertex at weight 0: no coefficient moves
    # toward it, so the minor cycle keeps its weights as they are, and the
    # iterate stays the convex combination x = S^T lam of the active set.
    real = sfm_module._affine_minimizer
    seen = []

    def unmoved(active, added=None, keep=None):
        coeff, y = real(active, added, keep)
        if seen:
            return coeff, y
        seen.append(active)
        coeff = np.zeros(active.m)
        coeff[0] = 1.0
        return coeff, active.S.T @ coeff

    monkeypatch.setattr(sfm_module, "_affine_minimizer", unmoved)
    rng = np.random.default_rng(31)
    f = shifted(random_bit_pool(rng, 10), rng.uniform(0.2, 0.6, 10))
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    x, stop = _wolfe(f, elems, sfm_module.MNP_GAP)
    active = seen[0]
    assert active.m == 2 and stop == STALLED
    # lam = (1, 0): the first vertex, with Wolfe's unit the power of two at
    # or below the source's scale
    unit = 2.0 ** math.floor(math.log2(f.scale))
    assert unit <= f.scale < 2.0 * unit
    assert np.array_equal(x, active.S[0] * unit)


def test_wolfe_converged_means_gap_test_passed(monkeypatch):
    monkeypatch.setattr(sfm_module, "MAX_ITERATIONS", 300)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        src = random_bit_pool(rng, n)
        f = shifted(src, rng.uniform(0.2, 0.6, n))
        elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
        # the gap is recomputed bit for bit: Wolfe's unit is a power of two
        for tol in (sfm_module.MNP_GAP, 1e-300):
            x, stop = _wolfe(f, elems, tol)
            if stop != CONVERGED:
                continue
            q = greedy_vertex_local(f, elems, np.argsort(x, kind="stable"))
            assert float(x @ x - x @ q) <= tol * max(1.0, float(x @ x))


def test_convergence_errors_quote_the_gap_reached(wolfe_capped):
    """min-norm point's own error and the engine's, which runs it only on
    a block above 16 users that no min cut reads, quote the gap reached;
    the engine's names the ground's block."""
    rng = np.random.default_rng(31)
    f = shifted(random_bit_pool(rng, 10), rng.uniform(0.2, 0.6, 10))
    pool = OpaquePool(random_bit_pool(np.random.default_rng(67), 20,
                                      observe_prob=1.5 / 20))
    for solve, path in (
            (lambda: min_norm(f), None),
            (lambda: egalitarian(pool, WeightVector.ones(pool.ground)),
             (subset_label(pool.ground, pool.ground_mask),))):
        with pytest.raises(ConvergenceError,
                           match=r"iteration cap \(1\) at relative gap \d"
                           ) as err:
            solve()
        assert isinstance(err.value.best, SfmResult)
        assert err.value.recursion_path == path


class NearlyModular(SetFunction):
    """a(X) + eps * sqrt(|X|): submodular, and close to modular for small
    eps, so its greedy vertices crowd around the point a."""

    def __init__(self, a, eps):
        self.ground = GroundSet(["m%d" % i for i in range(len(a))])
        self.ground_mask = self.ground.full_mask
        self.a, self.eps = np.asarray(a, dtype=float), eps

    def value(self, mask):
        idx = bit_indices(mask)
        return float(self.a[idx].sum() + self.eps * np.sqrt(len(idx)))

    def prefix_values(self, order, base=0):
        first = bit_indices(base)
        steps = np.concatenate(([self.a[first].sum()], self.a[order]))
        sizes = len(first) + np.arange(len(order) + 1)
        return np.cumsum(steps) + self.eps * np.sqrt(sizes)


def vertex_source(kind, rng, n):
    """A random bit pool, a twin pool (two copies of one pool, so vertices
    repeat blocks of coordinates) or a nearly modular function."""
    if kind == "bits":
        return random_bit_pool(rng, n, observe_prob=rng.uniform(0.02, 0.3))
    if kind == "twins":
        return twin_bit_pool(rng, (n + 1) // 2)[0]
    return NearlyModular(rng.uniform(0.5, 1.0, n), 10 ** rng.uniform(-1.3, -0.3))


def bordered_solve(S):
    """Least-norm point of the affine hull of the rows of S, from scratch.

    Solves the bordered normal equations; falls back to least squares when
    the Gram matrix is numerically singular.
    """
    m = S.shape[0]
    if m == 1:
        return np.ones(1), S[0].copy()
    M = np.empty((m + 1, m + 1))
    M[0, 0] = 0.0
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = S @ S.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    coeff = sol[1:]
    return coeff, S.T @ coeff


def fresh_coeff_gap(active, coeff):
    """Distance of coeff from a from-scratch bordered solve, relative to
    max(1, |coeff|) of that solve."""
    ref = bordered_solve(active.S)[0]
    return np.max(np.abs(coeff - ref)) / max(1.0, np.linalg.norm(ref))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["bits", "twins", "nearly_modular"]),
       st.integers(2, 80), st.integers(0, 2**32 - 1))
def test_active_set_matches_a_fresh_solve(kind, cap, seed):
    """Random adds and drops of greedy vertices, up to ``cap`` active ones
    on a ground at least 20 larger: after every step the coefficients
    Wolfe's active set gives match a from-scratch bordered solve.  As in
    Wolfe's loop, a vertex already active is not added again."""
    rng = np.random.default_rng(seed)
    f = vertex_source(kind, rng, cap + int(rng.integers(20, 41)))
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    orders = [rng.permutation(len(elems))]
    active = sfm_module._ActiveSet(greedy_vertex_local(f, elems, orders[0]))
    for _ in range(3 * cap + 10):
        m = active.m
        if m >= 2 and (m >= cap or rng.random() < 0.3):
            keep = np.ones(m, dtype=bool)
            keep[rng.choice(m, size=min(m - 1, int(rng.integers(1, 3))),
                            replace=False)] = False
            coeff, y = sfm_module._affine_minimizer(active, keep=keep)
        else:
            again = rng.random() < 0.1
            order = (orders[int(rng.integers(len(orders)))] if again
                     else rng.permutation(len(elems)))
            q = greedy_vertex_local(f, elems, order)
            Sq, qq = active.S @ q, float(q @ q)
            if active.holds(q, Sq, qq):
                continue
            orders.append(order)
            coeff, y = sfm_module._affine_minimizer(active, added=(q, Sq, qq))
        assert fresh_coeff_gap(active, coeff) <= 1e-9
        assert np.allclose(y, active.S.T @ coeff, rtol=0, atol=1e-12)


def test_active_set_rebuilds_next_to_the_affine_hull(monkeypatch):
    """A vertex all but an affine combination of the active ones, or the
    drop of such a vertex, rebuilds the inverse instead of updating it."""
    rebuilds = []
    real_rebuild = sfm_module._ActiveSet.rebuild

    def rebuild(self):
        rebuilds.append(self.m)
        real_rebuild(self)

    monkeypatch.setattr(sfm_module._ActiveSet, "rebuild", rebuild)
    rng = np.random.default_rng(5)
    f = random_bit_pool(rng, 60, observe_prob=0.05)
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    active = sfm_module._ActiveSet(greedy_vertex_local(f, elems, np.arange(60)))
    while active.m < 30:
        q = greedy_vertex_local(f, elems, rng.permutation(60))
        sfm_module._affine_minimizer(active, added=(q, active.S @ q, q @ q))
    S = active.S.copy()
    base = 0.6 * S[3] + 0.7 * S[10] - 0.3 * S[20]
    basis = np.linalg.qr((S[1:] - S[0]).T)[0]
    normal = rng.standard_normal(60)
    normal -= basis @ (basis.T @ normal)
    normal /= np.linalg.norm(normal)

    def near(rel):
        """base moved off the affine hull by a squared distance of
        rel * |base|^2."""
        return base + np.sqrt(rel * (base @ base)) * normal

    def add(q):
        rebuilds.clear()
        return sfm_module._affine_minimizer(active, added=(q, active.S @ q, q @ q))

    keep = np.ones(31, dtype=bool)
    keep[-1] = False
    # clear of the floor: added and dropped by updates, equal to a fresh
    # solve after each
    coeff, _ = add(near(1e-4))
    assert rebuilds == [] and fresh_coeff_gap(active, coeff) <= 1e-9
    coeff, _ = sfm_module._affine_minimizer(active, keep=keep)
    assert rebuilds == [] and fresh_coeff_gap(active, coeff) <= 1e-9
    # under the floor: rebuilt (its coefficients are ill-determined there)
    add(near(1e-3 * sfm_module.SCHUR_FLOOR))
    assert rebuilds and rebuilds[0] == 31
    sfm_module._affine_minimizer(active, keep=keep)
    # with the floor raised over it, both the add and the drop of the same
    # well-conditioned vertex rebuild, and still match a fresh solve
    monkeypatch.setattr(sfm_module, "SCHUR_FLOOR", 1e-3)
    coeff, _ = add(near(1e-4))
    assert rebuilds == [31] and fresh_coeff_gap(active, coeff) <= 1e-9
    rebuilds.clear()
    coeff, _ = sfm_module._affine_minimizer(active, keep=keep)
    assert rebuilds == [30] and fresh_coeff_gap(active, coeff) <= 1e-9


def test_wolfe_work_matches_a_from_scratch_solve(monkeypatch):
    """The maintained inverse changes constants, not the algorithm: on bit
    pools of 64-256 users, at the SFM's gap, Wolfe ends the same way at the
    same point after as many major and minor cycles as when every minor
    cycle solves afresh.

    Small grounds, bit pools of 2-16 users and their tables up to 12, end
    the same way at the same point too.  Their points have many equal
    coordinates, so a last-bit difference in the coefficients can break
    such a tie in the greedy order the other way, and a run may take one
    or two major cycles more or fewer."""
    real = sfm_module._affine_minimizer

    def run(f, minimizer):
        cycles = []

        def counted(active, added=None, keep=None):
            cycles.append(added is not None)
            return minimizer(active, added, keep)

        monkeypatch.setattr(sfm_module, "_affine_minimizer", counted)
        elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
        x, stop = _wolfe(f, elems, sfm_module.MNP_GAP)
        return x, str(stop), sum(cycles), len(cycles)

    def from_scratch(active, added, keep):
        real(active, added, keep)
        return bordered_solve(active.S)

    def compare(f):
        """(work, from-scratch work), once the points match."""
        x, *work = run(f, real)
        x0, *work0 = run(f, from_scratch)
        assert np.max(np.abs(x - x0)) <= 1e-9 * max(1.0, np.linalg.norm(x0))
        return work, work0

    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 257))
        work, work0 = compare(random_bit_pool(rng, n, observe_prob=1.5 / n))
        assert work == work0

    same = runs = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        src = random_bit_pool(rng, n)
        sources = [src]
        if n <= 12:
            sources.append(TableSource(
                src.ground, {m: src.value(m) for m in range(1, 1 << n)}))
        for f in sources:
            (stop, major, minor), (stop0, major0, minor0) = compare(f)
            assert stop == stop0
            assert abs(major - major0) <= 2 and abs(minor - minor0) <= 4
            same += (major, minor) == (major0, minor0)
            runs += 1
    assert same >= 0.9 * runs
