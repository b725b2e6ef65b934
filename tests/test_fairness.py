import tracemalloc

import numpy as np
import pytest

import swfair.fairness as fairness_module
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.setfn import (
    GroundSet,
    GroundSetTooLargeError,
    BitPoolSource,
    TableSource,
    WeightVector,
    bit_indices,
    greedy_vertex_local,
    restrict,
)
from swfair.fairness import (
    build_report,
    egalitarian_oracle_fw,
    exchange_capacity,
    shapley_exact,
    shapley_permutation_average,
    shapley_sampled,
    verify_membership,
)
from swfair.sfm import ConvergenceError
from swfair.split import egalitarian, split
from conftest import random_bit_pool, scaled_source


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
    sampled, se = shapley_sampled(src, samples=5, seed=1)
    assert np.allclose(sampled.rates, [0.9, 0.2, 0.5], atol=1e-12)
    assert np.allclose(se[np.isfinite(se)], 0.0, atol=1e-12)


def test_shapley_symmetric_users():
    g = GroundSet(["1", "2"])
    src = BitPoolSource(g, {"a": 0.8, "b": 0.3},
                        {"1": ["a", "b"], "2": ["a", "b"]})
    r = shapley_exact(src)
    assert r.rates[0] == pytest.approx(r.rates[1], abs=1e-12)


def test_shapley_size_refusal():
    g = GroundSet([str(i) for i in range(22)])
    src = BitPoolSource(g, {"a": 1.0}, {u: ["a"] for u in g})
    with pytest.raises(GroundSetTooLargeError, match="shapley_sampled"):
        shapley_exact(src)


def test_shapley_sampled_reproducible(three_users):
    a, se_a = shapley_sampled(three_users, samples=50, seed=123)
    b, se_b = shapley_sampled(three_users, samples=50, seed=123)
    assert np.array_equal(a.rates, b.rates)
    assert np.array_equal(se_a, se_b)
    with pytest.raises(ValueError):
        shapley_sampled(three_users, samples=0)


def test_shapley_sampled_running_moments_match_two_pass():
    # the running mean and variance against both moments of the same
    # seeded draws, kept in full; positions outside the view stay 0
    rng = np.random.default_rng(17)
    src = random_bit_pool(rng, 12)
    f = restrict(src, src.ground_mask & ~0b100101)
    elems = np.asarray(bit_indices(f.ground_mask), dtype=np.intp)
    samples = 300
    draws = np.zeros((samples, f.ground.n))
    orders = np.random.default_rng(5)
    for s in range(samples):
        draws[s, elems] = greedy_vertex_local(
            f, elems, orders.permutation(len(elems)))
    rates, se = shapley_sampled(f, samples, seed=5)
    np.testing.assert_allclose(rates.rates, draws.mean(axis=0),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        se, draws.std(axis=0, ddof=1) / np.sqrt(samples), rtol=0.0, atol=1e-12)


def test_shapley_sampled_memory_does_not_grow_with_samples():
    src = generate_instance(256, ExperimentConfig(), 0)
    tracemalloc.start()
    try:
        shapley_sampled(src, 2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_shapley_sampled_error_shrinks(three_users):
    # the standard-error estimate scales as samples^(-1/2): monotone
    # decreasing over sample doublings, roughly halving per quadrupling
    sizes = [50, 100, 200, 400, 800]
    ses = []
    for m in sizes:
        _, se = shapley_sampled(three_users, samples=m, seed=7)
        ses.append(float(se.max()))
    assert all(a > b for a, b in zip(ses, ses[1:]))
    assert ses[-1] < 0.55 * ses[0]

    # the estimate itself also closes in on the exact value
    exact = shapley_exact(three_users).rates
    errs = [np.abs(shapley_sampled(three_users, samples=m, seed=7)[0].rates
                   - exact).max() for m in (40, 2560)]
    assert errs[1] < errs[0]


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
