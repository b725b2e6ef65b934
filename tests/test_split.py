import importlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swfair.cli import main
from swfair.experiment import ExperimentConfig, generate_instance
from swfair.fairness import egalitarian_oracle_fw, verify_membership
from swfair.setfn import (
    TIE_EPSILON,
    BitPoolSource,
    GroundSet,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    contract,
    mask_array,
    mask_from_indices,
    minor,
    restrict,
    source_to_dict,
)
from swfair.sfm import ConvergenceError, SfmResult, solve_sfm
from swfair.split import (
    CertificationError,
    Decomposition,
    InternalConsistencyError,
    _chain,
    adaptation_path,
    certify,
    decompose,
    egalitarian,
    recursion_metrics,
    split,
    subset_label,
)
from conftest import (OpaquePool, coverage_table, minor_after, partition_of,
                      random_bit_pool, scaled_source, twin_bit_pool,
                      weight_of)

# the package re-exports the function split under the module's name
split_module = importlib.import_module("swfair.split")
sfm_module = importlib.import_module("swfair.sfm")


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
    rates, tree = split(restrict(three_users, ["1"]), unit_weights)
    assert rates.as_dict() == {"1": pytest.approx(2.0)}
    assert tree.root.is_leaf
    path = adaptation_path(tree)
    assert len(path) == 2
    assert path[0].as_dict() == {"1": 0.0}
    assert path[1].as_dict() == {"1": pytest.approx(2.0)}


def test_split_rejects_bad_input(three_users, unit_weights):
    with pytest.raises(ValueError):
        split(restrict(three_users, []), unit_weights)


def test_split_refuses_nan_weight():
    src = generate_instance(6, ExperimentConfig(), 0)
    w = np.ones(6)
    w[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        split(src, WeightVector(src.ground, w))


def test_split_annotates_convergence_failures(request):
    # Bit pools take the exact min cut, which has no iteration cap, so
    # Wolfe is starved on an opaque oracle of the same values.
    rng = np.random.default_rng(67)
    src = random_bit_pool(rng, 20, observe_prob=1.5 / 20)
    w = WeightVector.ones(src.ground)
    expected = split(src, w)[0].rates
    request.getfixturevalue("wolfe_capped")
    with pytest.raises(ConvergenceError) as err:
        split(OpaquePool(src), w)
    assert err.value.recursion_path is not None
    assert err.value.recursion_path[0].startswith("{u0,")
    assert str(err.value).endswith(
        " at " + " > ".join(err.value.recursion_path))
    rates, _ = split(src, w)
    assert np.array_equal(rates.rates, expected)


def test_split_min_norm_steps_match_exhaustive():
    """On an oracle the min cut does not recognise, split's steps above 16
    users run Wolfe; they must give the tree of the bit pool itself, whose
    steps take the min cut and the exhaustive sweep."""
    rng = np.random.default_rng(71)
    for n in (17, 20, 24, 17, 20, 24):
        src = random_bit_pool(rng, n, observe_prob=1.5 / n)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
        rates, tree = split(OpaquePool(src), w)
        assert "min_norm_point" in {node.sfm.solver_used
                                    for node in tree_nodes(tree)}
        ref_rates, ref_tree = split(src, w)
        assert tree.leaves == ref_tree.leaves
        assert np.array_equal(rates.rates, ref_rates.rates)


def tree_nodes(tree):
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children or ())
    return nodes


def test_split_runs_min_cut_not_wolfe_on_bit_pools(monkeypatch, capsys,
                                                   tmp_path):
    """split, decompose and egalitarian, in the library and through
    ``swfair egalitarian`` and ``swfair decompose``, solve a 64-user
    weighted pool and a 12-user table without one Wolfe cycle: every cycle
    asks greedy_vertex_local for a vertex, and here it raises."""
    rng = np.random.default_rng(5)
    n = 64
    src = random_bit_pool(rng, n, observe_prob=1.5 / n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    table = coverage_table(random_bit_pool(rng, 12))
    w_table = WeightVector(table.ground, rng.uniform(0.5, 4.0, 12))

    def no_wolfe(*args, **kwargs):
        raise AssertionError("Wolfe ran on a bit pool or a small table")

    monkeypatch.setattr(sfm_module, "greedy_vertex_local", no_wolfe)
    _, tree = split(src, w)
    # a one-user block is a leaf with no solve, reported as a sweep's
    for node in tree_nodes(tree):
        assert node.sfm.solver_used == (
            "min_cut" if node.subset_mask.bit_count() > 1 else "exhaustive")
    for f, weights in ((src, w), (table, w_table)):
        chain = decompose(f, weights).chain_masks
        assert egalitarian(f, weights).subset_mask == chain[-1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(source_to_dict(f)))
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(json.dumps(
            dict(zip(f.ground.users, weights.values.tolist()))))
        for command in ("egalitarian", "decompose"):
            assert main([command, str(model), "--weights",
                         str(weights_file), "--json"]) == 0
    capsys.readouterr()


def spy_on_oracles(monkeypatch):
    """Record every bit-pool oracle call, every block_values call, and
    every coverage_cut, solve_sfm and bipartite_flow call split makes, in
    order, as (name, arguments); arrays are copied when called, as the
    refinement loop reorders its positions in place."""
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append((name, [np.array(a) if isinstance(a, np.ndarray)
                                 else a for a in args]))
            return real(*args, **kwargs)
        return call

    for name in ("value", "all_values", "prefix_values"):
        monkeypatch.setattr(BitPoolSource, name,
                            spy(name, getattr(BitPoolSource, name)))
    monkeypatch.setattr(SetFunction, "block_values",
                        spy("block_values", SetFunction.block_values))
    for module, name in ((split_module, "coverage_cut"),
                         (split_module, "solve_sfm"),
                         (sfm_module, "bipartite_flow")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


def passes_of(calls):
    """The calls of each pass of the refinement loop, split at its prefix
    walks; each pass's list starts with its walk."""
    passes = [[]]
    for call in calls:
        if call[0] == "prefix_values":
            passes.append([])
        passes[-1].append(call)
    return passes


def check_pass(calls, n):
    """One pass on a bit pool: at most one walk, over all n positions,
    then at most one coverage_cut of blocks of 2 or more users and the
    one bipartite_flow that settles them all; nothing else.  Returns the
    masks of the blocks the cut takes."""
    names = [name for name, _ in calls]
    if names[:1] == ["prefix_values"]:
        assert len(calls[0][1][1]) == n
        names, calls = names[1:], calls[1:]
    if not names:
        return []
    assert names == ["coverage_cut", "bipartite_flow"]
    order, sizes, wanted = calls[0][1][1:4]
    starts = np.cumsum([0, *sizes])
    cut = [mask_from_indices(order[starts[j]:starts[j + 1]].tolist())
           for j in wanted]
    assert all(m.bit_count() > 1 for m in cut)
    return cut


def nodes_by_depth(tree):
    depths, level = [], [tree.root]
    while level:
        depths.append(level)
        level = [c for node in level for c in node.children or ()]
    return depths


def test_one_user_blocks_are_leaves_without_a_solve(monkeypatch):
    """split runs one depth of its recursion per pass: one prefix walk,
    then one coverage_cut and one bipartite_flow for all of the depth's
    blocks of 2 or more users; its last walk is _chain's, over the
    leaves.  No oracle call serves a one-user block, which is a leaf with
    the result an exhaustive sweep gives, and on a bit pool split makes no
    value, all_values, block_values or solve_sfm call."""
    rng = np.random.default_rng(9)
    n = 64
    src = random_bit_pool(rng, n, observe_prob=1.5 / n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    calls = spy_on_oracles(monkeypatch)
    _, tree = split(src, w)
    monkeypatch.undo()
    names = {name for name, _ in calls}
    assert not names & {"value", "all_values", "block_values", "solve_sfm"}
    passes = passes_of(calls)
    assert passes[0] == [] and passes[-1] == [calls[-1]]
    depths = nodes_by_depth(tree)
    assert len(passes) == len(depths) + 2
    for nodes, made in zip(depths, passes[1:]):
        assert check_pass(made, n) == [node.subset_mask for node in nodes
                                       if node.subset_mask.bit_count() > 1]
    singles = [node for node in tree_nodes(tree)
               if node.subset_mask.bit_count() == 1]
    assert singles and len(depths) > 2
    assert "bipartite_flow" in names
    for node in singles:
        assert node.is_leaf
        assert (node.sfm.min_value, node.sfm.minimal_mask,
                node.sfm.maximal_mask) == (0.0, 0, node.subset_mask)


def ring_tree(n):
    rng = np.random.default_rng(71)
    users = ["u%d" % i for i in range(n)]
    ground = GroundSet(users)
    bits = {"b%d" % i: float(rng.uniform(0.1, 1.0)) for i in range(n)}
    observes = {u: ["b%d" % i, "b%d" % ((i + 1) % n)]
                for i, u in enumerate(users)}
    src = BitPoolSource(ground, bits, observes)
    return split(src, WeightVector.ones(ground))[1]


def test_adaptation_path_guard_above_64_users():
    with pytest.raises(ValueError, match="above 64 users"):
        adaptation_path(ring_tree(70))
    tree = ring_tree(64)
    path = adaptation_path(tree)
    assert np.array_equal(path[-1].rates, tree.rates.rates)
    assert "adaptation_path" in tree.to_dict()


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


def test_recursion_metrics_examples(three_users, unit_weights, skew_weights):
    for w in (skew_weights, unit_weights):
        _, tree = split(three_users, w)
        m = recursion_metrics(tree)
        assert m["sum_size"] == 3
        assert m["max_size"] == 2
        assert m["node_count"] == 3
        assert m["depth"] == 2

    _, tree = split(restrict(three_users, ["2"]), unit_weights)
    m = recursion_metrics(tree)
    assert m == {"sum_size": 0, "max_size": 0, "node_count": 1, "depth": 1}


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
    rates, tree = split(restrict(three_users, ["2", "3"]), unit_weights)
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


# ---------------------------------------------------------------------------
# The egalitarian engine against split and the conditional-gradient oracle
# ---------------------------------------------------------------------------

def split_chain(tree):
    """Cumulative leaf sets of a split tree, in recursion order."""
    masks, acc = [], 0
    for mask, _ in tree.leaves:
        acc |= mask
        masks.append(acc)
    return tuple(masks)


def levels_of(chain):
    return [b & ~a for a, b in zip((0,) + chain[:-1], chain)]


def check_engine(src, w):
    rates, tree = split(src, w)
    got = egalitarian(src, w)
    scale = max(1.0, src.value(src.ground_mask))
    assert np.abs(got.rates - rates.rates).max() <= 1e-9 * scale
    assert got.subset_mask == rates.subset_mask
    assert decompose(src, w).chain_masks == split_chain(tree)
    if src.ground.n <= 12:   # the oracle's run time grows fast beyond
        # its gap bounds |r - fw|^2 by gap * max(w) <= 4e-9
        fw = egalitarian_oracle_fw(src, w)
        assert np.abs(got.rates - fw.rates).max() <= 1e-4


@st.composite
def weighted_bit_pools(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = min(1.0, draw(st.floats(0.5, 3.0)) / n)
    src = random_bit_pool(rng, n, observe_prob=p)
    return src, WeightVector(src.ground, rng.uniform(0.5, 4.0, n))


@st.composite
def weighted_tables(draw, min_n=1, max_n=8):
    """Sums of truncated modular functions and a concave function of |X|:
    submodular tables that are not coverage functions."""
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ground = GroundSet(["t%d" % i for i in range(n)])
    masks = np.arange(1, 1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1
    a = rng.uniform(0.0, 1.0, (3, n))
    caps = rng.uniform(0.2, 1.0, 3) * a.sum(axis=1)
    vals = np.minimum(member @ a.T, caps).sum(axis=1)
    vals += rng.uniform(0.0, 1.0) * np.sqrt(member.sum(axis=1))
    table = {",".join(ground.users_of(int(m))): float(v)
             for m, v in zip(masks, vals)}
    src = TableSource(ground, table)
    return src, WeightVector(ground, rng.uniform(0.5, 4.0, n))


@settings(max_examples=30, deadline=None)
@given(weighted_bit_pools())
def test_egalitarian_matches_split_on_bit_pools(model):
    check_engine(*model)


@settings(max_examples=30, deadline=None)
@given(weighted_tables())
def test_egalitarian_matches_split_on_tables(model):
    check_engine(*model)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_engine_chain_is_splits_on_weighted_pools_to_64_users(n, seed):
    """On pools drawn like the benchmark's, whose depths hold many blocks
    of 2 to 12 users, the engine's shared min cuts settle split's chain and
    bit-identical rates."""
    rng = np.random.default_rng(seed)
    src = random_bit_pool(rng, n, observe_prob=min(1.0, 1.5 / n))
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    rates, tree = split(src, w)
    dec = decompose(src, w)
    assert dec.chain_masks == split_chain(tree)
    assert np.array_equal(dec.reconstruct().rates, rates.rates)


@st.composite
def split_inputs(draw):
    """A bit pool of 3 to 40 users, whose blocks take the min cut, or a
    table of 2 to 8 users; weights on [0.5, 4]."""
    if draw(st.booleans()):
        return draw(weighted_tables(min_n=2, max_n=8))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = min(1.0, draw(st.floats(0.5, 3.0)) / n)
    src = random_bit_pool(rng, n, observe_prob=p)
    return src, WeightVector(src.ground, rng.uniform(0.5, 4.0, n))


@settings(max_examples=40, deadline=None)
@given(split_inputs())
def test_split_nodes_are_the_solves_of_their_own_functions(model):
    """Every node of split's tree holds solve_sfm's minimizers of the
    node's function, built here from the source alone: for its block C
    after the union S of the blocks before it at its depth, f(S | X) -
    f(S) - rho w(X) with rho = (f(S | C) - f(S)) / w(C), as restrict or
    minor and add_modular give it, or for a one-user block, which no solve
    serves, the exhaustive sweep's; its minimum agrees within twice the
    tie tolerance.  Its lam is rho less the base_coeffs of the splits whose
    rest it lies in, and a leaf's ratio is rho."""
    src, w = model
    _, tree = split(src, w)
    tol = 2 * TIE_EPSILON * src.scale
    leaves = dict(tree.leaves)
    stack = [(tree.root, 0, 0.0)]
    while stack:
        node, pivot, carry = stack.pop()
        c = node.subset_mask
        f_s, in_c = src.value(pivot), bit_indices(c)
        rho = (src.value(pivot | c) - f_s) / weight_of(w, c)
        if pivot:
            view = minor(src, pivot, c, f_s, weight_of(w, pivot), w)
            shift = rho - f_s / weight_of(w, pivot)
        else:
            view, shift = restrict(src, c), rho
        coeffs = np.zeros(src.ground.n)
        coeffs[in_c] = shift * w.values[in_c]
        objective = add_modular(view, coeffs)
        want = (solve_sfm(objective) if len(in_c) > 1 else
                sfm_module._solve_exhaustive(objective, in_c))
        got = node.sfm
        assert (got.minimal_mask, got.maximal_mask, got.solver_used) == \
            (want.minimal_mask, want.maximal_mask, want.solver_used)
        assert abs(got.min_value - want.min_value) <= tol
        assert abs(node.lam + carry - rho) <= tol / weight_of(w, c)
        if node.is_leaf:
            assert abs(leaves[c] - rho) <= tol / weight_of(w, c)
        else:
            block, rest = node.children
            assert node.base_coeff == block.lam
            stack += [(block, pivot, carry),
                      (rest, pivot | block.subset_mask,
                       carry + node.base_coeff)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["source", "modular", "minor", "modular minor"]))
def test_one_flow_settles_each_block_of_a_depth(n, seed, view):
    """The shared flow of a depth gives each tested block the masks that
    solve_sfm gives on the block's own objective, f contracted by the
    blocks before it less rho_j w, and its minimum within twice the tie
    tolerance; up to 10 users, the exhaustive sweep's masks too.  f is a
    restriction of a bit pool or a minor after a pivot, of the pool or of
    a view with coefficients of its own; each ratio is its block's split
    ratio, at which its empty and full sets tie, or another."""
    rng = np.random.default_rng(seed)
    src = random_bit_pool(rng, n + 3,
                          observe_prob=min(1.0, rng.uniform(0.5, 3.0) / n))
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n + 3))
    f = src
    if "modular" in view:
        f = add_modular(f, rng.uniform(-0.3, 0.3, n + 3) * src.scale / n)
    spare = mask_from_indices(rng.permutation(n + 3)[:3].tolist())
    f = (minor_after(f, spare, w) if "minor" in view
         else restrict(f, src.ground_mask & ~spare))
    users = rng.permutation(bit_indices(f.ground_mask)).tolist()
    blocks = []
    while users:
        c = int(rng.integers(1, 15))
        blocks.append(mask_from_indices(users[:c]))
        users = users[c:]
    order, sizes = partition_of(blocks)
    starts = np.cumsum([0, *sizes]).tolist()
    walk = f.prefix_values(order)[starts]
    rho = [float(walk[j + 1] - walk[j]) / weight_of(w, b)
           * (1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.5))
           for j, b in enumerate(blocks)]
    tests = [j for j, b in enumerate(blocks)
             if b.bit_count() > 1 and rng.random() < 0.8]
    got = split_module._sweeps(f, w, order, sizes, starts, blocks, tests,
                               rho)
    assert sorted(got) == tests
    tol = 2 * TIE_EPSILON * src.scale
    for j in tests:
        before = mask_from_indices(order[:starts[j]].tolist())
        objective = add_modular(
            contract(f, before, blocks[j], f.value(before)),
            w.times(rho[j], mask_array(blocks[j], src.ground.n)))
        want = solve_sfm(objective)
        res = got[j]
        assert (res.minimal_mask, res.maximal_mask, res.solver_used) == \
            (want.minimal_mask, want.maximal_mask, "min_cut")
        assert abs(res.min_value - want.min_value) <= tol
        assert res.ground_size == sizes[j] and res.flow_rounds >= 1
        if sizes[j] <= 10:
            swept = sfm_module._solve_exhaustive(objective,
                                                 bit_indices(blocks[j]))
            assert (res.minimal_mask, res.maximal_mask) == \
                (swept.minimal_mask, swept.maximal_mask)


def test_egalitarian_worked_examples(three_users, unit_weights, skew_weights):
    for w, want in ((unit_weights, [1.0, 0.55, 0.55]),
                    (skew_weights, [1.125, 0.375, 0.6])):
        rates = egalitarian(three_users, w)
        assert np.allclose(rates.rates, want, atol=1e-12)
    sub = egalitarian(restrict(three_users, ["2", "3"]), unit_weights)
    assert sub.as_dict() == {"2": pytest.approx(0.55), "3": pytest.approx(0.55)}
    with pytest.raises(ValueError):
        egalitarian(restrict(three_users, []), unit_weights)


def test_confirm_refuses_decreasing_fallback_leaves(monkeypatch):
    """decompose merges the loop's leaves into levels in their order, so
    leaves out of _refine whose ratios decrease are inconsistent, and the
    error names the ground."""
    rng = np.random.default_rng(53)
    src, w = twin_bit_pool(rng, 5)
    _, tree = split(src, w)
    assert len(levels_of(split_chain(tree))) > 1
    masks, ratios = zip(*tree.leaves[::-1])
    backwards = (*partition_of(masks), ratios, [])
    monkeypatch.setattr(split_module, "_refine", lambda f, w: backwards)
    label = subset_label(src.ground, src.ground_mask)
    with pytest.raises(InternalConsistencyError,
                       match="decrease on " + re.escape(label)):
        decompose(src, w)


@pytest.mark.parametrize("n", [8, 30, 64])
def test_scaled_weights_give_the_same_chain_and_rates(n):
    """Weights c * w, whether c is tiny or huge, give w's chain and rates:
    ties among ratios are judged relative to the ratios themselves, so a
    scale that puts every ratio below the tie tolerance merges nothing."""
    src = generate_instance(n, ExperimentConfig(seed=0))
    for w in (np.ones(n), np.random.default_rng(n).uniform(0.5, 4.0, n)):
        ref = decompose(src, WeightVector(src.ground, w))
        ref_rates = egalitarian(src, WeightVector(src.ground, w)).rates
        assert len(ref.chain_masks) > 1
        for c in (1e-6, 1e9, 1e12, 1e100):
            scaled = WeightVector(src.ground, c * w)
            dec = decompose(src, scaled)
            assert dec.chain_masks == ref.chain_masks
            for rates in (dec.reconstruct().rates,
                          egalitarian(src, scaled).rates):
                assert np.allclose(rates, ref_rates, rtol=1e-12, atol=0.0)


def scale_cases():
    """(id, source, weights): seed-0 instances at 8, 30 and 64 users, at
    unit and random weights, and 12-user coverage tables."""
    for n in (8, 30, 64):
        src = generate_instance(n, ExperimentConfig(seed=0))
        yield "pool-%d-unit" % n, src, np.ones(n)
        yield ("pool-%d-weighted" % n, src,
               np.random.default_rng(n).uniform(0.5, 4.0, n))
    for seed in (0, 1):
        src = coverage_table(generate_instance(12, ExperimentConfig(seed=seed)))
        yield ("table-12-seed-%d" % seed, src,
               np.random.default_rng(seed).uniform(0.5, 4.0, 12))


@pytest.mark.parametrize("name, src, w", list(scale_cases()),
                         ids=[case[0] for case in scale_cases()])
def test_scaled_sources_give_scaled_rates_and_the_same_chain(
        capsys, tmp_path, name, src, w):
    """Entropies or table values times c, from 1e-150 to 1e150, give c times
    the rates and the same chain from decompose, egalitarian and split:
    every tie is judged against the source's scale.  Up to 20 users,
    ``swfair verify`` accepts the scaled rates at its default tolerance."""
    w = WeightVector(src.ground, w)
    ref = decompose(src, w)
    ref_rates = ref.reconstruct().rates
    _, ref_tree = split(src, w)
    assert len(ref.chain_masks) > 1
    for c in (1e-150, 1e-12, 1e-8, 1.0, 1e12, 1e150):
        f = scaled_source(src, c)
        dec = decompose(f, w)
        assert dec.chain_masks == ref.chain_masks
        rates, tree = split(f, w)
        assert [m for m, _ in tree.leaves] == [m for m, _ in ref_tree.leaves]
        for got in (dec.reconstruct().rates, egalitarian(f, w).rates,
                    rates.rates):
            assert np.allclose(got, c * ref_rates, rtol=1e-12, atol=0.0)
        if src.ground.n <= 20:
            model = tmp_path / "model.json"
            model.write_text(json.dumps(source_to_dict(f)))
            rates_file = tmp_path / "rates.json"
            rates_file.write_text(json.dumps(rates.as_dict()))
            code, out = main(["verify", str(model), str(rates_file),
                              "--json"]), capsys.readouterr().out
            assert code == 0 and json.loads(out)["in_region"] is True



def one_level_pool(n):
    """n users, each on a bit of its own and one bit they all share: every
    user's egalitarian rate is (n + 1) / n, on a chain of one level."""
    g = GroundSet(["u%d" % i for i in range(n)])
    bits = {"b%d" % i: 1.0 for i in range(n)}
    bits["shared"] = 1.0
    return BitPoolSource(g, bits, {"u%d" % i: ["b%d" % i, "shared"]
                                   for i in range(n)})


@pytest.mark.parametrize("oracle, n", [(OpaquePool, 17), (OpaquePool, 20),
                                       (coverage_table, 17)],
                         ids=["opaque-17", "opaque-20", "table-17"])
def test_one_level_grounds_above_the_sweep_solve_at_every_scale(oracle, n):
    """Above 16 users a ground no min cut reads goes to Wolfe, and on one
    level its block f - lam w has the minimum-norm point 0, which rounding
    keeps a little off 0: the solve still converges, at every scale."""
    pool = one_level_pool(n)
    w = WeightVector.ones(pool.ground)
    for c in (1e-150, 1e-12, 1e-8, 1.0, 1e12, 1e150):
        f = oracle(scaled_source(pool, c))
        assert decompose(f, w).chain_masks == (pool.ground_mask,)
        rates, tree = split(f, w)
        assert tree.leaves == [(pool.ground_mask, tree.root.lam)]
        for got in (rates.rates, egalitarian(f, w).rates):
            assert np.allclose(got, c * (n + 1) / n, rtol=1e-12, atol=0.0)


def test_egalitarian_refuses_non_submodular_table():
    g = GroundSet(["1", "2", "3"])
    table = {"1": 1.0, "2": 1.0, "3": 1.0, "1,2": 3.0, "1,3": 1.0,
             "2,3": 1.0, "1,2,3": 3.0}
    src = TableSource(g, table)
    w = WeightVector.ones(g)
    with pytest.raises(CertificationError, match="submodular"):
        egalitarian(src, w)
    with pytest.raises(CertificationError):
        decompose(src, w)
    rates, _ = split(src, w)
    with pytest.raises(CertificationError):
        certify(src, rates)


def test_corrupted_chains_are_refused(monkeypatch, capsys, tmp_path):
    """A chain the level merge gets wrong is refused, whichever of
    decompose and egalitarian (library or CLI) returns it: two adjacent
    levels merged lie outside the region (CertificationError, exit 4); a
    level cut into two equal-ratio halves, or levels in reverse order, do
    not increase strictly (InternalConsistencyError, exit 3)."""
    rng = np.random.default_rng(59)
    checked = 0
    for k in range(8):
        n = 3 + k % 8                           # twins of 6 to 20 users
        src, w = twin_bit_pool(rng, n)
        levels = levels_of(decompose(src, w).chain_masks)
        if len(levels) < 2:
            continue
        half = src.ground.full_mask >> n        # the first copy's users
        corrupted = [
            ([levels[0] | levels[1]] + levels[2:], CertificationError, 4),
            ([levels[0] & half, levels[0] & ~half] + levels[1:],
             InternalConsistencyError, 3),
            (levels[::-1], InternalConsistencyError, 3),
        ]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(source_to_dict(src)))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({u: w[u] for u in src.ground.users}))
        for bad, error, code in corrupted:
            monkeypatch.setattr(split_module, "_levels",
                                lambda order, sizes, ratios, bad=bad:
                                partition_of(bad))
            with pytest.raises(error):
                decompose(src, w)
            with pytest.raises(error):
                egalitarian(src, w)
            for command in ("egalitarian", "decompose"):
                assert main([command, str(model), "--weights",
                             str(weights)]) == code
            monkeypatch.undo()
        capsys.readouterr()
        checked += 1
    assert checked >= 4


@st.composite
def large_weighted_bit_pools(draw):
    n = draw(st.integers(13, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = min(1.0, draw(st.floats(0.5, 3.0)) / n)
    src = random_bit_pool(rng, n, observe_prob=p)
    return src, WeightVector(src.ground, rng.uniform(0.5, 4.0, n))


@settings(max_examples=8, deadline=None)
@given(large_weighted_bit_pools())
def test_engine_is_certified_by_min_cut_beyond_the_oracle(model):
    """Where the conditional-gradient oracle is too slow, the engine's rates
    are checked by Fujishige's certificate: membership (r(V) = H(V), and
    min H - r = 0 by one min cut in verify_membership), and every lower
    level set of r/w tight.  Merging two adjacent levels of the same chain
    breaks membership."""
    src, w = model
    dec = decompose(src, w)
    rates = dec.reconstruct()
    h = src.value(src.ground_mask)
    tol = 1e-9 * max(1.0, h)
    assert verify_membership(src, rates, tol).in_region

    ratio = rates.rates / w.values
    order = np.argsort(ratio, kind="stable")
    prefix = src.prefix_values(order)
    sums = np.cumsum(rates.rates[order])
    gaps = np.diff(ratio[order]) > 1e-12 * max(1.0, ratio.max())
    ends = [*np.flatnonzero(gaps), len(order) - 1]  # last user of each level
    assert np.abs(prefix[np.add(ends, 1)] - sums[ends]).max() <= tol

    levels = levels_of(dec.chain_masks)
    if len(levels) > 1:
        # merge the pair whose merged rates overshoot H(S_j) the most:
        # by w(D_j) w(D_j+1) (lam_j+1 - lam_j) / w(D_j | D_j+1)
        wd = np.array([weight_of(w, d) for d in levels])
        over = (wd[:-1] * wd[1:] * np.diff(dec.critical_values)
                / (wd[:-1] + wd[1:]))
        j = int(np.argmax(over))
        merged = levels[:j] + [levels[j] | levels[j + 1]] + levels[j + 2:]
        bad = _chain(restrict(src, src.ground_mask), w,
                     *partition_of(merged)).reconstruct()
        report = verify_membership(src, bad, tol)
        assert not report.in_region and report.slack < -tol


def test_egalitarian_iteration_cap_is_a_convergence_error(wolfe_capped):
    """The engine runs Wolfe only on a block above 16 users that no min cut
    reads; its iteration cap on the ground's block is a ConvergenceError
    that carries the solve's best result and names that block."""
    rng = np.random.default_rng(67)
    src = OpaquePool(random_bit_pool(rng, 20, observe_prob=1.5 / 20))
    with pytest.raises(ConvergenceError,
                       match=r"iteration cap \(1\) at relative gap") as err:
        egalitarian(src, WeightVector.ones(src.ground))
    assert isinstance(err.value.best, SfmResult)
    assert err.value.recursion_path == (
        subset_label(src.ground, src.ground_mask),)
