import numpy as np
import pytest

from swfair.setfn import (
    BitPoolSource,
    GroundSet,
    TableSource,
    WeightVector,
    bit_indices,
)
from swfair.sfm import ConvergenceError, SolverConfig
from swfair.split import (
    Decomposition,
    InternalConsistencyError,
    RateVector,
    adaptation_path,
    decompose,
    recursion_metrics,
    split,
)
from conftest import random_bit_pool


def test_split_skew_weights_matches_worked_example(three_users, skew_weights):
    rates, tree = split(three_users, skew_weights)
    assert np.allclose(rates.rates, [1.125, 0.375, 0.6], atol=1e-12)
    assert tree.root.sfm.maximal_minimizer == {"3"}
    assert rates.total() == pytest.approx(2.1, abs=1e-12)


def test_split_unit_weights_matches_worked_example(three_users, unit_weights):
    rates, tree = split(three_users, unit_weights)
    assert np.allclose(rates.rates, [1.0, 0.55, 0.55], atol=1e-12)
    assert tree.root.sfm.maximal_minimizer == {"2", "3"}


def test_split_singleton(three_users, unit_weights):
    rates, tree = split(three_users, unit_weights, subset=["1"])
    assert rates.as_dict() == {"1": pytest.approx(2.0)}
    assert tree.root.is_leaf
    path = adaptation_path(tree)
    assert len(path) == 2
    assert path[0].as_dict() == {"1": 0.0}
    assert path[1].as_dict() == {"1": pytest.approx(2.0)}


def test_split_rejects_bad_input(three_users, unit_weights):
    with pytest.raises(ValueError):
        split(three_users, unit_weights, subset=[])
    with pytest.raises(ValueError):
        split(three_users, unit_weights, mode="sideways")


def test_split_refuses_nan_weight():
    from swfair.experiment import ExperimentConfig, generate_instance

    src = generate_instance(6, ExperimentConfig(), 0)
    w = np.ones(6)
    w[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        split(src, WeightVector(src.ground, w))


def test_split_annotates_convergence_failures():
    rng = np.random.default_rng(67)
    src = random_bit_pool(rng, 8)
    w = WeightVector.ones(src.ground)
    starved = SolverConfig(exhaustive_threshold=2, max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        split(src, w, config=starved)
    assert err.value.recursion_path is not None
    assert err.value.recursion_path[0].startswith("{u0,")


def test_adaptation_path_guard_above_64_users():
    rng = np.random.default_rng(71)
    users = ["u%d" % i for i in range(70)]
    ground = GroundSet(users)
    bits = {"b%d" % i: float(rng.uniform(0.1, 1.0)) for i in range(70)}
    observes = {u: ["b%d" % i, "b%d" % ((i + 1) % 70)]
                for i, u in enumerate(users)}
    src = BitPoolSource(ground, bits, observes)
    _, tree = split(src, WeightVector.ones(ground),
                    config=SolverConfig(exhaustive_threshold=12))
    with pytest.raises(ValueError, match="force=True"):
        adaptation_path(tree)
    path = adaptation_path(tree, force=True)
    assert np.array_equal(path[-1].rates, tree.rates.rates)


def test_adaptation_path_unit_weights(three_users, unit_weights):
    _, tree = split(three_users, unit_weights)
    path = [v.rates for v in adaptation_path(tree)]
    expected = [(0, 0, 0), (0.55, 0, 0), (1.0, 0.55, 0.55)]
    assert len(path) == 3
    for got, want in zip(path, expected):
        assert np.allclose(got, want, atol=1e-12)


def test_adaptation_path_skew_weights(three_users, skew_weights):
    _, tree = split(three_users, skew_weights)
    path = [v.rates for v in adaptation_path(tree)]
    expected = [(0, 0, 0), (0.6, 0.2, 0), (1.125, 0.375, 0.6)]
    assert len(path) == 3
    for got, want in zip(path, expected):
        assert np.allclose(got, want, atol=1e-12)


def test_adaptation_path_stays_in_polyhedron(three_users, unit_weights,
                                             skew_weights):
    for w in (unit_weights, skew_weights):
        _, tree = split(three_users, w)
        for vec in adaptation_path(tree):
            for mask in range(8):
                assert vec.rates[bit_indices(mask)].sum() \
                    <= three_users.value(mask) + 1e-12


def test_trace_disabled(three_users, unit_weights):
    rates, tree = split(three_users, unit_weights, trace=False)
    assert np.allclose(rates.rates, [1.0, 0.55, 0.55], atol=1e-12)
    with pytest.raises(ValueError):
        adaptation_path(tree)
    assert recursion_metrics(tree)["node_count"] == 3


def test_recursion_metrics_examples(three_users, unit_weights, skew_weights):
    for w in (skew_weights, unit_weights):
        _, tree = split(three_users, w)
        m = recursion_metrics(tree)
        assert m["sum_size"] == 3
        assert m["max_size"] == 2
        assert m["node_count"] == 3
        assert m["depth"] == 2

    _, tree = split(three_users, unit_weights, subset=["2"])
    m = recursion_metrics(tree)
    assert m == {"sum_size": 0, "max_size": 0, "node_count": 1, "depth": 1}


def test_parallel_mode_is_bit_identical(three_users, skew_weights):
    seq_rates, seq_tree = split(three_users, skew_weights, mode="sequential")
    par_rates, par_tree = split(three_users, skew_weights, mode="parallel")
    assert np.array_equal(seq_rates.rates, par_rates.rates)
    assert seq_tree.events == par_tree.events
    assert seq_tree.leaves == par_tree.leaves
    seq_doc = seq_tree.to_dict()
    par_doc = par_tree.to_dict()
    seq_doc["mode"] = par_doc["mode"] = None
    assert seq_doc == par_doc


def test_parallel_mode_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        seq = split(src, w, mode="sequential")
        par = split(src, w, mode="parallel")
        assert np.array_equal(seq[0].rates, par[0].rates)
        assert seq[1].events == par[1].events


def test_split_region_membership_and_recursion_bound():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, tree = split(src, w)
        assert rates.total() == pytest.approx(src.value(src.ground_mask), abs=1e-8)
        for mask in range(1 << n):
            r_x = rates.rates[bit_indices(mask)].sum()
            assert r_x <= src.value(mask) + 1e-8
            # equivalent conditional form
            cond = src.value(src.ground_mask) - src.value(src.ground_mask & ~mask)
            assert r_x >= cond - 1e-8
        assert recursion_metrics(tree)["node_count"] <= 2 * n - 1
        for vec in adaptation_path(tree):
            for mask in range(1 << n):
                assert vec.rates[bit_indices(mask)].sum() <= src.value(mask) + 1e-8


def test_split_on_proper_subset(three_users, unit_weights):
    rates, tree = split(three_users, unit_weights, subset=["2", "3"])
    # over {2,3} alone the entropy is symmetric: each gets H({2,3})/2
    assert rates.as_dict() == {"2": pytest.approx(0.55), "3": pytest.approx(0.55)}
    assert tree.root.is_leaf


def test_decompose_unit_weights(three_users, unit_weights):
    dec = decompose(three_users, unit_weights)
    assert np.allclose(dec.critical_values, [0.55, 1.0], atol=1e-12)
    assert dec.chain == (frozenset({"2", "3"}), frozenset({"1", "2", "3"}))


def test_decompose_skew_weights(three_users, skew_weights):
    dec = decompose(three_users, skew_weights)
    assert np.allclose(dec.critical_values, [0.2, 0.375], atol=1e-12)
    assert dec.chain == (frozenset({"3"}), frozenset({"1", "2", "3"}))
    doc = dec.to_dict()
    assert doc["chain"] == [["3"], ["1", "2", "3"]]


def test_decompose_modular_function():
    g = GroundSet(["1", "2", "3"])
    singles = {"1": 0.9, "2": 0.2, "3": 0.5}
    table = {}
    for mask in range(1, 8):
        users = g.users_of(mask)
        table[",".join(users)] = sum(singles[u] for u in users)
    src = TableSource(g, table)
    w = WeightVector.ones(g)
    dec = decompose(src, w)
    assert len(dec.critical_values) == 3
    assert np.allclose(dec.critical_values, [0.2, 0.5, 0.9], atol=1e-12)
    assert dec.chain == (frozenset({"2"}), frozenset({"2", "3"}),
                         frozenset({"1", "2", "3"}))


def test_decompose_reconstruction_is_exact():
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, _ = split(src, w)
        dec = decompose(src, w)
        rebuilt = dec.reconstruct()
        assert np.array_equal(rebuilt.rates, rates.rates)
        assert list(dec.critical_values) == sorted(dec.critical_values)
        assert len(dec.critical_values) <= n


def test_split_tree_serialization(three_users, skew_weights):
    _, tree = split(three_users, skew_weights)
    doc = tree.to_dict()
    assert doc["root"]["subset"] == ["1", "2", "3"]
    assert doc["root"]["sfm"]["maximal_minimizer"] == ["3"]
    assert not doc["root"]["is_leaf"]
    block, rest = doc["root"]["children"]
    assert block["subset"] == ["3"] and block["is_leaf"]
    assert rest["subset"] == ["1", "2"] and rest["is_leaf"]
    assert doc["metrics"]["sum_size"] == 3
    assert len(doc["adaptation_path"]) == 3
