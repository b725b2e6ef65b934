import importlib
import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swfair.cli import main
from swfair.fairness import egalitarian_oracle_fw
from swfair.setfn import (
    BitPoolSource,
    GroundSet,
    TableSource,
    WeightVector,
    add_modular,
    bit_indices,
    mask_from_indices,
    restrict,
    source_to_dict,
)
from swfair.sfm import MIN_CUT_ABOVE, ConvergenceError, solve_sfm
from swfair.split import (
    PROPOSAL_GAP,
    CertificationError,
    Decomposition,
    InternalConsistencyError,
    RateVector,
    _chain,
    _confirm,
    adaptation_path,
    certify,
    decompose,
    egalitarian,
    recursion_metrics,
    split,
    subset_label,
)
from conftest import OpaquePool, random_bit_pool, twin_bit_pool

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
    from swfair.experiment import ExperimentConfig, generate_instance

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


def test_split_runs_min_cut_not_wolfe_on_bit_pools(monkeypatch):
    rng = np.random.default_rng(5)
    n = 64
    src = random_bit_pool(rng, n, observe_prob=1.5 / n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))

    def no_wolfe(*args, **kwargs):
        raise AssertionError("split ran Wolfe on a bit pool")

    monkeypatch.setattr(sfm_module, "_wolfe", no_wolfe)
    _, tree = split(src, w)
    assert tree.root.sfm.solver_used == "min_cut"
    assert {node.sfm.solver_used for node in tree_nodes(tree)} \
        <= {"min_cut", "exhaustive"}


def test_one_user_blocks_are_leaves_without_a_solve(monkeypatch):
    rng = np.random.default_rng(9)
    src = random_bit_pool(rng, 10)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, 10))
    sizes = []
    real = split_module.solve_sfm

    def spy(f, method=None):
        sizes.append(f.ground_mask.bit_count())
        return real(f, method)

    monkeypatch.setattr(split_module, "solve_sfm", spy)
    _, tree = split(src, w)
    singles = [node for node in tree_nodes(tree)
               if node.subset_mask.bit_count() == 1]
    assert singles and min(sizes) > 1
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


def test_egalitarian_worked_examples(three_users, unit_weights, skew_weights):
    for w, want in ((unit_weights, [1.0, 0.55, 0.55]),
                    (skew_weights, [1.125, 0.375, 0.6])):
        rates = egalitarian(three_users, w)
        assert np.allclose(rates.rates, want, atol=1e-12)
    sub = egalitarian(restrict(three_users, ["2", "3"]), unit_weights)
    assert sub.as_dict() == {"2": pytest.approx(0.55), "3": pytest.approx(0.55)}
    with pytest.raises(ValueError):
        egalitarian(restrict(three_users, []), unit_weights)


def test_confirm_adversarial_proposals(monkeypatch, caplog):
    """Proposals that are right, too coarse, too fine or out of order
    all come back as split's chain and rates.  Each fallback to split
    logs one record naming the subset."""
    caplog.set_level(logging.INFO, logger="swfair.split")
    fallbacks = []
    real_split = split_module.split

    def spy(*args, **kwargs):
        fallbacks.append(args)
        return real_split(*args, **kwargs)

    rng = np.random.default_rng(53)
    reversed_with_levels = 0
    for k in range(16):
        n = 3 + k % 5
        src, w = twin_bit_pool(rng, n)
        rates, tree = split(src, w)
        chain = split_chain(tree)
        levels = levels_of(chain)
        half = src.ground.full_mask >> n        # the first copy's users
        f_c = restrict(src, src.ground_mask)

        proposals = [levels, levels[::-1]]
        if len(levels) > 1:
            proposals.append([levels[0] | levels[1]] + levels[2:])
        cut = [j for j, d in enumerate(levels) if d & half and d & ~half]
        assert cut, "every level of a twin holds both copies"
        j = cut[0]
        proposals.append(levels[:j] + [levels[j] & half, levels[j] & ~half]
                         + levels[j + 1:])

        for blocks in proposals:
            before = len(fallbacks)
            caplog.clear()
            monkeypatch.setattr(split_module, "split", spy)
            dec = _confirm(f_c, w, blocks)
            monkeypatch.setattr(split_module, "split", real_split)
            assert dec.chain_masks == chain
            assert np.array_equal(dec.reconstruct().rates, rates.rates)
            if blocks is not proposals[1]:
                assert len(fallbacks) == before
            label = subset_label(src.ground, src.ground_mask)
            assert [(r.name, r.getMessage()) for r in caplog.records] == \
                [("swfair.split", "proposed leaf ratios decrease on %s; "
                  "running split" % label)] * (len(fallbacks) - before)
        reversed_with_levels += len(levels) > 1
    assert reversed_with_levels > 0
    assert len(fallbacks) > 0


def test_confirm_refuses_decreasing_fallback_leaves(monkeypatch):
    """split's leaves go through the same level rule as the proposal's, so
    a fallback whose leaf ratios decrease is inconsistent."""
    rng = np.random.default_rng(53)
    src, w = twin_bit_pool(rng, 5)
    rates, tree = split(src, w)
    levels = levels_of(split_chain(tree))
    assert len(levels) > 1
    backwards = SimpleNamespace(leaves=tree.leaves[::-1])
    monkeypatch.setattr(split_module, "split",
                        lambda *args, **kwargs: (rates, backwards))
    with pytest.raises(InternalConsistencyError, match="decrease"):
        _confirm(restrict(src, src.ground_mask), w, levels[::-1])


def test_confirm_cost_guard(monkeypatch):
    """The confirm step makes no oracle or weight call for a one-user
    level: its ratio comes from the one prefix walk.  Each multi-user level
    costs the value and weight of its own leaf test, and a level that is
    split further costs what split's recursion costs on it.  _chain, which
    builds the rates of the final levels, is not counted."""
    rng = np.random.default_rng(3)
    n = 96
    src = random_bit_pool(rng, n, observe_prob=1.5 / n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    f_c = restrict(src, src.ground_mask)
    values, weights, nodes = [], [], []
    real_value, real_of_mask = BitPoolSource.value, WeightVector.of_mask
    real_split_block, real_chain = split_module._split_block, _chain
    live = [True]

    def value(self, mask):
        if live[0]:
            values.append(mask)
        return real_value(self, mask)

    def of_mask(self, mask):
        if live[0]:
            weights.append(mask)
        return real_of_mask(self, mask)

    def uncounted_chain(*args):
        live[0] = False
        try:
            return real_chain(*args)
        finally:
            live[0] = True

    def split_block(*args):
        out = real_split_block(*args)
        nodes.append(out[0])
        return out

    def run(blocks):
        values.clear(), weights.clear(), nodes.clear()
        monkeypatch.setattr(BitPoolSource, "value", value)
        monkeypatch.setattr(WeightVector, "of_mask", of_mask)
        monkeypatch.setattr(split_module, "_split_block", split_block)
        monkeypatch.setattr(split_module, "_chain", uncounted_chain)
        dec = _confirm(f_c, w, blocks)
        monkeypatch.undo()
        before = [0]                    # S_{j-1} of each block D_j
        for block in blocks[:-1]:
            before.append(before[-1] | block)
        multi = [j for j, b in enumerate(blocks) if b.bit_count() > 1]
        for mask in values:             # S_{j-1} plus users of D_j
            j = max(k for k, b in enumerate(blocks) if mask & b)
            assert j in multi and mask & before[j] == before[j]
            assert mask & ~(before[j] | blocks[j]) == 0
        for mask in weights:            # users of D_j only
            assert any(mask & ~blocks[j] == 0 for j in multi)
        internal = sum(not node.is_leaf for node in nodes)
        # per node one value and one weight; per split one more of each,
        # f(block) and w(block), which also build the contraction
        assert len(nodes) == len(multi) + 2 * internal
        assert len(values) == len(nodes) + internal
        assert len(weights) == len(nodes) + internal
        return dec, len(multi), internal

    rates, tree = split(src, w)
    chain = split_chain(tree)
    levels = levels_of(chain)
    dec, multi, internal = run(levels)
    assert (len(values), len(weights), internal) == (multi, multi, 0)
    proposal = split_module._propose(f_c, w)
    dec, multi, internal = run(proposal)
    assert internal > 0 and 0 < multi < len(proposal)
    assert dec.chain_masks == chain
    assert np.array_equal(dec.reconstruct().rates, rates.rates)


@st.composite
def confirm_cases(draw):
    """A bit pool of 3 to 14 users or a table of 2 to 7, split's levels of
    it, and proposals drawn from them: the levels shuffled, a merged pair,
    a level cut in halves, a multi-user and a one-user first block, and the
    levels reversed, which must take the fallback to split."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 14))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = min(1.0, draw(st.floats(0.5, 3.0)) / n)
        src = random_bit_pool(rng, n, observe_prob=p)
        w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    else:
        src, w = draw(weighted_tables(min_n=2, max_n=7))
    rates, tree = split(src, w)
    chain = split_chain(tree)
    levels = levels_of(chain)
    assume(len(levels) > 1)
    j = draw(st.integers(0, len(levels) - 2))
    k = draw(st.integers(0, len(levels) - 1))
    users = bit_indices(levels[k])
    halves = (mask_from_indices(users[:len(users) // 2]),
              mask_from_indices(users[len(users) // 2:]))
    lead = levels[0] & -levels[0]       # lowest user of the first level
    proposals = {
        "levels": levels,
        "shuffled": draw(st.permutations(levels)),
        "merged": levels[:j] + [levels[j] | levels[j + 1]] + levels[j + 2:],
        "halves": levels[:k] + [h for h in halves if h] + levels[k + 1:],
        "multi-user first": [levels[0] | levels[1]] + levels[2:],
        "one-user first": [d for d in (lead, levels[0] ^ lead) if d]
                          + levels[1:],
        "reversed": levels[::-1],
    }
    return src, w, rates, chain, proposals


@settings(max_examples=40, deadline=None)
@given(confirm_cases())
def test_confirm_returns_splits_chain_for_any_proposal(case):
    """Whatever ordered partition is proposed, the confirm step returns
    split's chain and bit-identical rates; a proposal out of order takes
    the fallback to split."""
    src, w, rates, chain, proposals = case
    fallbacks = []
    real_split = split_module.split

    def spy(*args, **kwargs):
        fallbacks.append(args)
        return real_split(*args, **kwargs)

    f_c = restrict(src, src.ground_mask)
    for name, blocks in proposals.items():
        fallbacks.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_module, "split", spy)
            dec = _confirm(f_c, w, blocks)
        assert dec.chain_masks == chain, name
        assert np.array_equal(dec.reconstruct().rates, rates.rates), name
        if name == "levels":
            assert not fallbacks
        if name == "reversed":
            assert fallbacks
    assert proposals["multi-user first"][0].bit_count() > 1
    assert proposals["one-user first"][0].bit_count() == 1


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
    """A chain the confirm step gets wrong is refused, whichever of
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
            monkeypatch.setattr(split_module, "_confirm",
                                lambda f, w, blocks, bad=bad:
                                _chain(f, w, bad))
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


def min_cut_slack(src, rates):
    """min over X of H(X) - r(X), by one min cut at any ground size."""
    objective = add_modular(src, rates.rates)
    res = solve_sfm(objective)
    assert res.solver_used == "min_cut"
    return res.min_value


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
    are checked by Fujishige's certificate: r(V) = H(V), min H - r = 0 by
    one min cut, and every lower level set of r/w tight.  Merging two
    adjacent levels of the same chain breaks membership."""
    src, w = model
    dec = decompose(src, w)
    rates = dec.reconstruct()
    h = src.value(src.ground_mask)
    tol = 1e-9 * max(1.0, h)
    assert abs(rates.total() - h) <= tol
    assert min_cut_slack(src, rates) >= -tol

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
        wd = np.array([w.of_mask(d) for d in levels])
        over = (wd[:-1] * wd[1:] * np.diff(dec.critical_values)
                / (wd[:-1] + wd[1:]))
        j = int(np.argmax(over))
        merged = levels[:j] + [levels[j] | levels[j + 1]] + levels[j + 2:]
        bad = _chain(restrict(src, src.ground_mask), w, merged).reconstruct()
        assert min_cut_slack(src, bad) < -tol


def test_egalitarian_iteration_cap_is_a_convergence_error(wolfe_capped):
    rng = np.random.default_rng(67)
    src = random_bit_pool(rng, 8)
    with pytest.raises(ConvergenceError,
                       match=r"iteration cap \(1\) at relative gap") as err:
        egalitarian(src, WeightVector.ones(src.ground))
    assert isinstance(err.value.best, RateVector)


def test_proposal_stops_at_its_own_gap(monkeypatch):
    """The proposal's Wolfe run stops at PROPOSAL_GAP; a block it leaves
    above MIN_CUT_ABOVE users is settled by the confirm step's min-cut SFM,
    and the rates are split's."""
    rng = np.random.default_rng(1)
    n = 96
    src = random_bit_pool(rng, n, observe_prob=1.5 / n)
    w = WeightVector(src.ground, rng.uniform(0.5, 4.0, n))
    gaps, blocks = [], []
    real_wolfe, real_confirm = split_module._wolfe, split_module._confirm

    def wolfe(f, elems, gap, scale=None):
        gaps.append(gap)
        return real_wolfe(f, elems, gap, scale=scale)

    def confirm(f, w, proposal):
        blocks.extend(proposal)
        return real_confirm(f, w, proposal)

    monkeypatch.setattr(split_module, "_wolfe", wolfe)
    monkeypatch.setattr(split_module, "_confirm", confirm)
    got = egalitarian(src, w)
    assert gaps == [PROPOSAL_GAP]
    assert (max(b.bit_count() for b in blocks)
            > MIN_CUT_ABOVE)
    rates, _ = split(src, w)
    assert np.array_equal(got.rates, rates.rates)
