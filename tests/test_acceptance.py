"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 4 and 8 share one batch of 200 seeded random instances
(|V| in 3..8, weights uniform in [0.5, 4]) built once per session.
Criterion 7 checked the threaded split mode, which no longer exists; the
numbers of the others are kept.
"""

import functools
import time

import numpy as np
import pytest

from swfair.experiment import ExperimentConfig, run_experiment
from swfair.fairness import (
    egalitarian_oracle_fw,
    exchange_capacity,
    shapley_exact,
    shapley_permutation_average,
    verify_membership,
)
from swfair.setfn import WeightVector, add_modular, bit_indices
from swfair.sfm import _solve_exhaustive, solve_sfm
from swfair.split import adaptation_path, decompose, recursion_metrics, split
from conftest import random_bit_pool


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("\nACCEPTANCE %d: FAIL - %s" % (num, desc))
                raise
            print("\nACCEPTANCE %d: PASS - %s" % (num, desc))
        return wrapper
    return deco


@pytest.fixture(scope="module")
def suite4():
    """200 seeded instances with their split results."""
    rng = np.random.default_rng(20240)
    out = []
    for k in range(200):
        n = 3 + k % 6
        src = random_bit_pool(rng, n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, tree = split(src, w)
        out.append((src, w, rates, tree))
    return out


@criterion(1, "exact reproduction of the worked three-user example")
def test_criterion_1(three_users, skew_weights, unit_weights):
    t0 = time.perf_counter()
    rates_w, tree_w = split(three_users, skew_weights)
    rates_1, tree_1 = split(three_users, unit_weights)
    elapsed = time.perf_counter() - t0
    assert np.all(np.abs(rates_w.rates - [1.125, 0.375, 0.6]) <= 1e-9)
    assert np.all(np.abs(rates_1.rates - [1.0, 0.55, 0.55]) <= 1e-9)
    assert tree_w.root.sfm.maximal_minimizer == {"3"}
    assert tree_1.root.sfm.maximal_minimizer == {"2", "3"}
    assert elapsed < 1.0


@criterion(2, "Shapley value matches and equals the permutation average")
def test_criterion_2(three_users):
    exact = shapley_exact(three_users)
    assert np.all(np.abs(exact.rates - [1.5, 0.3, 0.3]) <= 1e-12)
    avg = shapley_permutation_average(three_users)
    assert np.all(np.abs(exact.rates - avg.rates) <= 1e-12)


@criterion(3, "adaptation paths reproduce the worked sequences, all feasible")
def test_criterion_3(three_users, skew_weights, unit_weights):
    cases = [
        (unit_weights, [(0, 0, 0), (0.55, 0, 0), (1.0, 0.55, 0.55)]),
        (skew_weights, [(0, 0, 0), (0.6, 0.2, 0), (1.125, 0.375, 0.6)]),
    ]
    for w, expected in cases:
        _, tree = split(three_users, w)
        path = adaptation_path(tree)
        assert len(path) == len(expected)
        for vec, want in zip(path, expected):
            assert np.all(np.abs(vec.rates - np.asarray(want)) <= 1e-9)
            for mask in range(8):
                assert vec.rates[bit_indices(mask)].sum() \
                    <= three_users.value(mask) + 1e-9


@criterion(4, "optimality suite on 200 random weighted instances")
def test_criterion_4(suite4):
    t0 = time.perf_counter()
    for src, w, rates, tree in suite4:
        n = src.ground.n
        report = verify_membership(src, rates, tolerance=1e-8)
        assert report.in_region and report.slack >= -1e-8            # (a)
        assert abs(rates.total() - src.value(src.ground_mask)) <= 1e-8  # (b)
        fw = egalitarian_oracle_fw(src, w)
        assert np.all(np.abs(rates.rates - fw.rates) <= 1e-4)        # (c)
        ratios = rates.ratios(w)
        for i, ui in enumerate(src.ground.users):                    # (d)
            for j, uj in enumerate(src.ground.users):
                if ratios[i] > ratios[j] + 1e-7:
                    cap = exchange_capacity(src, rates, donor=ui, receiver=uj)
                    assert abs(cap) <= 1e-7
        assert recursion_metrics(tree)["node_count"] <= 2 * n - 1    # (e)
    assert time.perf_counter() - t0 < 120.0


@criterion(5, "min cut and exhaustive SFM agree on 200 random instances")
def test_criterion_5():
    rng = np.random.default_rng(20241)
    for k in range(200):
        n = 3 + k % 10  # sizes 3..12
        src = random_bit_pool(rng, n)
        w = rng.uniform(0.5, 4.0, n)
        lam = rng.uniform(0.1, 1.0) * src.value(src.ground_mask) / w.sum()
        f = add_modular(src, lam * w)
        elems = bit_indices(f.ground_mask)
        ex = _solve_exhaustive(f, elems)
        cut = solve_sfm(f)
        assert cut.solver_used == "min_cut"
        assert abs(cut.min_value - ex.min_value) <= 1e-7
        assert cut.minimal_minimizer == ex.minimal_minimizer
        assert cut.maximal_minimizer == ex.maximal_minimizer


@criterion(6, "experiment sweep has the expected growth shape, deterministic")
def test_criterion_6():
    t0 = time.perf_counter()
    cfg = dict(n_min=3, n_max=40, repetitions=30, seed=0,
               measure_time=False)
    rows, csv_a = run_experiment(ExperimentConfig(**cfg))
    _, csv_b = run_experiment(ExperimentConfig(**cfg))
    assert csv_a == csv_b  # byte-identical under a fixed seed

    ns = np.array([r.n for r in rows], dtype=float)
    sums = np.array([r.mean_sum_size for r in rows])
    maxes = np.array([r.mean_max_size for r in rows])
    for r in rows:
        if r.n >= 4:
            assert r.mean_max_size < r.mean_sum_size
        if r.mean_sum_size > 0:
            ratio = r.mean_max_size / r.mean_sum_size
            assert 0.5 < ratio < 1.0
    assert spearman(ns, sums) > 0.95
    assert spearman(ns, maxes) > 0.95
    assert time.perf_counter() - t0 < 600.0


@criterion(8, "decomposition chain verified by exhaustive SFM, rebuilt exactly")
def test_criterion_8(suite4):
    for src, w, rates, tree in suite4:
        dec = decompose(src, w)
        crit = np.asarray(dec.critical_values)
        assert np.all(np.diff(crit) > 0)
        for lam_j, s_j in zip(dec.critical_values, dec.chain_masks):
            res = _solve_exhaustive(add_modular(src, lam_j * w.values),
                                    bit_indices(src.ground_mask))
            assert res.maximal_mask == s_j
        assert np.array_equal(dec.reconstruct().rates, rates.rates)


def spearman(x, y):
    """Rank correlation with average ranks on ties."""
    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        vals, inv, counts = np.unique(v, return_inverse=True,
                                      return_counts=True)
        sums = np.zeros(len(vals))
        np.add.at(sums, inv, r)
        return (sums / counts)[inv]
    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))
