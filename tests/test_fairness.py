import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import swfair.fairness as fairness_module
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.setfn import (
    GroundSet,
    GroundSetTooLargeError,
    TIE_EPSILON,
    BitPoolSource,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    global_mask,
    greedy_vertex_local,
    restrict,
)
from swfair.fairness import (
    ConvergenceError,
    build_report,
    egalitarian_oracle_fw,
    exchange_capacity,
    shapley_exact,
    shapley_permutation_average,
    verify_membership,
)
from swfair.split import egalitarian, split
from conftest import (OpaquePool, coverage_table, minor_after,
                      random_bit_pool, scaled_source)


def test_shapley_exact_known_value(three_users):
    r = shapley_exact(three_users)
    assert np.allclose(r.rates, [1.5, 0.3, 0.3], atol=1e-12)
    assert r.total() == pytest.approx(2.1, abs=1e-12)


def test_shapley_equals_permutation_average(three_users):
    exact = shapley_exact(three_users)
    avg = shapley_permutation_average(three_users)
    assert np.allclose(exact.rates, avg.rates, atol=1e-12)


def test_shapley_equals_permutation_average_random():
    rng = np.random.default_rng(61)
    for n in (4, 5, 6):
        src = random_bit_pool(rng, n)
        exact = shapley_exact(src)
        avg = shapley_permutation_average(src)
        assert np.allclose(exact.rates, avg.rates, atol=1e-9)


def test_shapley_modular():
    g = GroundSet(["1", "2", "3"])
    singles = {"1": 0.9, "2": 0.2, "3": 0.5}
    table = {}
    for mask in range(1, 8):
        users = g.users_of(mask)
        table[",".join(users)] = sum(singles[u] for u in users)
    src = TableSource(g, table)
    r = shapley_exact(src)
    assert np.allclose(r.rates, [0.9, 0.2, 0.5], atol=1e-12)


def test_shapley_symmetric_users():
    g = GroundSet(["1", "2"])
    src = BitPoolSource(g, {"a": 0.8, "b": 0.3},
                        {"1": ["a", "b"], "2": ["a", "b"]})
    r = shapley_exact(src)
    assert r.rates[0] == pytest.approx(r.rates[1], abs=1e-12)


def test_shapley_size_refusal():
    """An oracle that is no bit-pool view is swept, so it is refused above
    BRUTE_FORCE_LIMIT users; the refusal names no other route."""
    g = GroundSet([str(i) for i in range(22)])
    src = OpaquePool(BitPoolSource(g, {"a": 1.0}, {u: ["a"] for u in g}))
    with pytest.raises(GroundSetTooLargeError,
                       match="exact Shapley is exhaustive; 22 elements"):
        shapley_exact(src)


@st.composite
def bit_pool_views(draw):
    """A random bit pool of 2 to 20 users, or one of its views: a
    restriction, a modular shift or a contraction."""
    n = draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = random_bit_pool(rng, n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    return draw(st.sampled_from([
        src,
        restrict(src, src.ground_mask & ~1),
        add_modular(src, rng.uniform(-0.5, 0.5, n)),
        minor_after(src, 1, w),
    ]))


@settings(max_examples=12, deadline=None)
@given(bit_pool_views())
def test_shapley_closed_form_equals_the_sweep(f):
    """The closed form for bit-pool views equals the subset sweep of the
    same values behind an oracle it cannot read."""
    got = shapley_exact(f)
    swept = shapley_exact(OpaquePool(f))
    assert got.subset_mask == swept.subset_mask == f.ground_mask
    np.testing.assert_allclose(got.rates, swept.rates, rtol=0.0,
                               atol=1e-12 * f.scale)


def test_shapley_of_a_bit_pool_makes_no_oracle_call(monkeypatch):
    src = generate_instance(256, ExperimentConfig(), 0)
    for name in ("value", "prefix_values", "all_values"):
        monkeypatch.setattr(src, name, None)
    rates = shapley_exact(src)
    assert rates.total() == pytest.approx(src.scale, rel=1e-12)


def lower_slack(f, rates, users):
    """r(X) - (f(C) - f(C - X)) for X the named users and C f's ground, or
    0 for the empty X, where only the sum constraint can fail."""
    x = f.ground.mask_of(users)
    if not x:
        return 0.0
    full = f.ground_mask
    return (float(rates[bit_indices(x)].sum())
            - (f.value(full) - f.value(full & ~x)))


def assert_attains_its_slack(f, rates, report):
    """The reported constraint attains the reported slack up to the tie
    tolerance by which solve_sfm picks its minimal minimizer."""
    assert lower_slack(f, rates, report.worst_constraint) == pytest.approx(
        report.slack, rel=0.0, abs=2 * TIE_EPSILON * f.scale)


@settings(max_examples=12, deadline=None)
@given(bit_pool_views(), st.sampled_from(["none", "raise", "move", "lower"]),
       st.sampled_from([0.0, 1e-12, 1e-4, 0.01, 0.1, 0.5]),
       st.integers(0, 2**32 - 1))
def test_membership_of_bit_pool_views_agrees_with_the_sweep(f, change,
                                                            size, seed):
    """One exact SFM of f - r gives the sweep's verdict, the sweep's slack
    wherever that is at most 0 (and 0 otherwise), and a constraint that
    attains the slack it reports.  Each change is a share of the source's
    scale outside the verdict's own tolerance band around 1e-8, where the
    two routes may round a sum either way."""
    rng = np.random.default_rng(seed)
    rates = shapley_exact(f).rates
    elems = bit_indices(f.ground_mask)
    i, j = rng.choice(elems, 2, replace=len(elems) < 2)
    if change == "raise":
        rates[i] += size * f.scale
    elif change == "move":
        rates[i] -= size * f.scale
        rates[j] += size * f.scale
    elif change == "lower":
        rates[i] -= size * f.scale
    got = verify_membership(f, rates)
    swept = verify_membership(OpaquePool(f), rates)
    assert got.in_region == swept.in_region
    assert got.sum_gap == pytest.approx(swept.sum_gap, abs=1e-12 * f.scale)
    assert got.slack == pytest.approx(min(swept.slack, 0.0),
                                      abs=2 * TIE_EPSILON * f.scale)
    assert_attains_its_slack(f, rates, got)


def test_membership_slack_is_the_named_constraints_own():
    """Shapley rates of a 20-user pool with one rate raised by 1e-9 of the
    scale are members; on some pools every set ties with the empty set
    within the tie tolerance, so the report names the whole ground, and its
    slack is that constraint's own, the sum gap, not the minimum plus it."""
    whole = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        f = random_bit_pool(rng, 20)
        rates = shapley_exact(f).rates
        rates[int(rng.integers(20))] += 1e-9 * f.scale
        report = verify_membership(f, rates)
        assert report.in_region
        assert lower_slack(f, rates, report.worst_constraint) == pytest.approx(
            report.slack, rel=0.0, abs=1e-12 * f.scale)
        whole += len(report.worst_constraint) == 20
    assert whole > 0


@pytest.mark.parametrize("n", [64, 256])
def test_membership_refuses_raised_and_moved_rates_at_scale(n):
    """Beyond the sweep's 20 users, the egalitarian rates are members, and
    raising one rate, or moving rate onto the user closest to its own
    entropy, is refused with a constraint that attains its slack."""
    src = generate_instance(n, ExperimentConfig(seed=3), 0)
    w = WeightVector(src.ground, np.random.default_rng(n).uniform(0.5, 4.0, n))
    rates = egalitarian(src, w).rates
    tol = 1e-8 * src.scale
    member = verify_membership(src, rates)
    assert member.in_region and member.slack >= -tol

    raised = rates.copy()
    raised[0] += 0.01
    report = verify_membership(src, raised)
    assert not report.in_region
    assert report.sum_gap == pytest.approx(0.01, rel=1e-6)
    assert_attains_its_slack(src, raised, report)

    # r_j > H({j}) breaks the lower constraint of C - {j} by the excess
    room = np.array([src.value(1 << j) for j in range(n)]) - rates
    j = int(np.argmin(room))
    i = int(np.argmax(np.where(np.arange(n) == j, -np.inf, rates)))
    moved = rates.copy()
    moved[i] -= room[j] + 0.01
    moved[j] += room[j] + 0.01
    report = verify_membership(src, moved)
    assert not report.in_region
    assert abs(report.sum_gap) <= tol
    assert report.slack <= -0.01 + tol
    assert_attains_its_slack(src, moved, report)


@pytest.mark.parametrize("rates", [
    [1.0, float("nan"), 1.1], [1.0, float("inf"), 0.1], [1.5, 0.6],
    [1.0, 0.55, 0.55, 0.0]], ids=["nan", "inf", "short", "long"])
@pytest.mark.parametrize("oracle", ["bit_pool", "table"])
def test_verify_membership_refuses_rates_it_cannot_judge(three_users, oracle,
                                                         rates):
    f = three_users if oracle == "bit_pool" else coverage_table(three_users)
    with pytest.raises(ValueError, match="3 finite numbers"):
        verify_membership(f, rates)


def test_verify_membership_shapley(three_users):
    rep = verify_membership(three_users, shapley_exact(three_users))
    assert rep.in_region
    assert rep.slack >= -1e-8


def test_verify_membership_violation(three_users):
    rep = verify_membership(three_users, np.array([2.1, 0.0, 0.0]))
    assert not rep.in_region
    assert rep.worst_constraint == {"2", "3"}
    assert rep.slack == pytest.approx(-0.1, abs=1e-9)


def test_verify_membership_sum_gap(three_users):
    rep = verify_membership(three_users, np.array([0.0, 0.0, 0.0]))
    assert not rep.in_region
    assert rep.sum_gap == pytest.approx(-2.1, abs=1e-12)


def test_verify_membership_egalitarian(three_users, unit_weights):
    rates, _ = split(three_users, unit_weights)
    rep = verify_membership(three_users, rates)
    assert rep.in_region
    doc = rep.to_dict()
    assert doc["in_region"] is True


def test_verify_membership_accepts_certified_rates_of_a_large_source():
    """The default tolerance is 1e-8 times the source's scale, so the
    engine's certified rates of a source times 1e9, whose rounding is far
    above an absolute 1e-8, are members, for verify and the report."""
    src = scaled_source(generate_instance(8, ExperimentConfig(seed=0)), 1e9)
    w = WeightVector.ones(src.ground)
    rates = egalitarian(src, w)
    assert verify_membership(src, rates).in_region
    assert build_report(src, w, {"egalitarian": rates}).in_region == {
        "egalitarian": True}


def test_verify_membership_rejects_a_raised_rate_of_a_small_source():
    """At entropies times 1e-12 every value is far below an absolute 1e-8,
    but the default tolerance follows the source: the egalitarian rates
    are members, and the same rates with one raised by half are not."""
    src = scaled_source(generate_instance(8, ExperimentConfig(seed=0)), 1e-12)
    rates = egalitarian(src, WeightVector.ones(src.ground)).rates
    assert verify_membership(src, rates).in_region
    raised = rates.copy()
    raised[0] *= 1.5
    report = verify_membership(src, raised)
    assert not report.in_region
    assert report.sum_gap == pytest.approx(0.5 * rates[0], rel=1e-9)


def test_fw_oracle_unit_weights(three_users, unit_weights):
    r = egalitarian_oracle_fw(three_users, unit_weights)
    assert np.allclose(r.rates, [1.0, 0.55, 0.55], atol=1e-4)


def test_fw_oracle_skew_weights(three_users, skew_weights):
    r = egalitarian_oracle_fw(three_users, skew_weights)
    assert np.allclose(r.rates, [1.125, 0.375, 0.6], atol=1e-4)


def test_fw_oracle_singleton():
    g = GroundSet(["1"])
    src = TableSource(g, {"1": 1.7})
    r = egalitarian_oracle_fw(src, WeightVector.ones(g))
    assert r.rates[0] == pytest.approx(1.7, abs=1e-12)


def test_fw_oracle_active_vertex_is_a_stall(monkeypatch, three_users,
                                            skew_weights):
    # The vertex oracle keeps returning its first vertex, active from the
    # start, and a negative gap tolerance fails even a gap of exactly 0:
    # the solver can only stop with no new vertex, carrying its iterate.
    first = []

    def stuck(oracle, elems, order):
        if not first:
            first.append(greedy_vertex_local(oracle, elems, order))
        return first[0].copy()

    monkeypatch.setattr(fairness_module, "ORACLE_GAP", -1.0)
    monkeypatch.setattr(fairness_module, "greedy_vertex_local", stuck)
    with pytest.raises(ConvergenceError,
                       match="stopped at duality gap 0 above -1") as err:
        egalitarian_oracle_fw(three_users, skew_weights)
    assert np.array_equal(err.value.best.rates, first[0])
    assert err.value.best.subset_mask == three_users.ground_mask


def test_fw_matches_split_on_random_instances():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, _ = split(src, w)
        fw = egalitarian_oracle_fw(src, w)
        assert np.allclose(rates.rates, fw.rates, atol=1e-4)


def test_exchange_capacity_local_optimality():
    rng = np.random.default_rng(59)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, _ = split(src, w)
        ratios = rates.ratios(w)
        for i, ui in enumerate(src.ground.users):
            for j, uj in enumerate(src.ground.users):
                if ratios[i] > ratios[j] + 1e-7:
                    cap = exchange_capacity(src, rates, donor=ui, receiver=uj)
                    assert cap == pytest.approx(0.0, abs=1e-7)


@settings(max_examples=15, deadline=None)
@given(bit_pool_views(), st.integers(0, 2**32 - 1))
def test_exchange_capacity_of_bit_pool_views_equals_the_sweep(f, seed):
    """One SFM of the view contracted at the receiver gives the sweep's
    minimum over the sets with the receiver and without the donor."""
    rng = np.random.default_rng(seed)
    elems = bit_indices(f.ground_mask)
    assume(len(elems) > 1)
    rates = shapley_exact(f).rates + rng.normal(0.0, 0.1 * f.scale, f.ground.n)
    i, j = (f.ground.users[k] for k in rng.choice(elems, 2, replace=False))
    got = exchange_capacity(f, rates, donor=i, receiver=j)
    swept = exchange_capacity(OpaquePool(f), rates, donor=i, receiver=j)
    assert got == pytest.approx(swept, rel=0.0, abs=1e-12 * f.scale)


def brute_exchange_capacity(f, rates, donor, receiver):
    """min of f(X) - r(X) over the X of f's ground with the receiver and
    without the donor, one value call per X."""
    i, j = f.ground.index[receiver], f.ground.index[donor]
    others = bit_indices(f.ground_mask & ~(1 << i | 1 << j))
    sets = (1 << i | global_mask(s, others) for s in range(1 << len(others)))
    return min(f.value(x) - float(rates[bit_indices(x)].sum()) for x in sets)


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_exchange_capacity_is_its_definition(n):
    """On tables and on bit-pool views (the pool, restrict, add_modular and
    minor_after), 2 users included, exchange_capacity equals its definition
    enumerated set by set, within 1e-12 times f's scale."""
    rng = np.random.default_rng(n)
    for _ in range(4):
        src = random_bit_pool(rng, n + 1)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n + 1))
        pool = random_bit_pool(rng, n)
        for f in (coverage_table(pool), pool,
                  restrict(src, src.ground_mask & ~1),
                  add_modular(pool, rng.uniform(-0.5, 0.5, n)),
                  minor_after(src, 1, w),
                  minor_after(add_modular(src, rng.uniform(-0.5, 0.5, n + 1)),
                              1, w)):
            elems = bit_indices(f.ground_mask)
            rates = (shapley_exact(f).rates
                     + rng.normal(0.0, 0.1 * f.scale, f.ground.n))
            i, j = (f.ground.users[k]
                    for k in rng.choice(elems, 2, replace=False))
            assert exchange_capacity(f, rates, donor=i, receiver=j) == \
                pytest.approx(brute_exchange_capacity(f, rates, i, j),
                              rel=0.0, abs=1e-12 * f.scale)


def test_exchange_capacity_answers_at_64_users():
    """Beyond the sweep's 20 users: no rate moves from a higher-ratio user
    to a lower-ratio one at the egalitarian point, and a capacity is never
    above f(X) - r(X) for a set X it ranges over."""
    n = 64
    src = generate_instance(n, ExperimentConfig(seed=2), 0)
    rng = np.random.default_rng(n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    rates = egalitarian(src, w)
    ratios = rates.ratios(w)
    donor, receiver = int(np.argmax(ratios)), int(np.argmin(ratios))
    users = src.ground.users
    assert ratios[donor] > ratios[receiver] + 1e-6
    assert exchange_capacity(src, rates, users[donor], users[receiver]
                             ) == pytest.approx(0.0, abs=1e-9 * src.scale)
    cap = exchange_capacity(src, rates, users[receiver], users[donor])
    for _ in range(20):
        picked = rng.random(n) < 0.5
        picked[donor], picked[receiver] = True, False
        x = src.ground.mask_of(np.asarray(users)[picked])
        assert cap <= (src.value(x) - rates.rates[bit_indices(x)].sum()
                       + 1e-12 * src.scale)
    with pytest.raises(GroundSetTooLargeError,
                       match="SFM of an oracle other than a bit pool is "
                       "exhaustive; 64 elements exceeds limit 20$"):
        exchange_capacity(OpaquePool(src), rates, users[0], users[1])
    with pytest.raises(ValueError, match="two users"):
        exchange_capacity(src, rates, users[0], users[0])


def test_efficiency_sums(three_users, skew_weights):
    shap = shapley_exact(three_users)
    assert shap.total() == pytest.approx(2.1, abs=1e-9)
    rates, _ = split(three_users, skew_weights)
    assert rates.total() == pytest.approx(2.1, abs=1e-8)


def test_build_report(three_users, unit_weights):
    egal, _ = split(three_users, unit_weights)
    shap = shapley_exact(three_users)
    report = build_report(three_users, unit_weights,
                          {"egalitarian": egal, "shapley": shap})
    assert report.in_region == {"egalitarian": True, "shapley": True}
    assert report.max_ratio["shapley"] == pytest.approx(1.5)
    assert report.max_ratio["egalitarian"] == pytest.approx(1.0)
    # moving to the egalitarian point halves the peak rate: lifetime 1/1 vs 1/1.5
    assert report.lifetime_proxy["egalitarian"] == pytest.approx(1.0)
    assert report.lifetime_proxy["shapley"] == pytest.approx(2.0 / 3.0)
    text = report.to_text()
    assert "egalitarian" in text and "shapley" in text
    doc = report.to_dict()
    assert doc["shapley"]["sum_rate"] == pytest.approx(2.1)


@pytest.mark.parametrize("n", [64, 256])
def test_egalitarian_beats_shapley_at_paper_scale(n):
    """The paper's comparison on weighted sensor networks of 64 and 256
    users: both allocations lie in the region, and the egalitarian one has
    the smaller peak ratio r_i / w_i.  The Shapley value of a submodular
    cost game is a mean of greedy vertices, so it lies in the base
    polyhedron, where the egalitarian point minimizes that peak."""
    for seed in range(3):
        src = generate_instance(n, ExperimentConfig(seed=seed), 0)
        w = WeightVector(src.ground,
                         np.random.default_rng([seed, n]).uniform(0.5, 4.0, n))
        report = build_report(src, w, {"egalitarian": egalitarian(src, w),
                                       "shapley": shapley_exact(src)})
        assert report.in_region == {"egalitarian": True, "shapley": True}
        assert report.sum_rate["shapley"] == pytest.approx(src.scale,
                                                           rel=1e-12)
        assert (report.max_ratio["egalitarian"]
                <= report.max_ratio["shapley"] * (1.0 + 1e-9))
