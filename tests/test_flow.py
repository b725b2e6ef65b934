import math

import numpy as np
import pytest

from swfair.flow import max_flow

SOURCE, SINK = 0, 1


def random_network(rng, n_inner):
    """Edges over a source, a sink and n_inner nodes, with float capacities.

    Only edges between inner nodes may be uncapped, so every source-sink
    path starts with a finite edge.  Parallel edges, edges into the source
    and edges out of the sink may occur.
    """
    n = n_inner + 2
    tails, heads, caps = [], [], []
    for _ in range(int(rng.integers(n_inner, 4 * n_inner + 2))):
        t, h = (int(v) for v in rng.choice(n, 2, replace=False))
        tails.append(t)
        heads.append(h)
        inner = t > SINK and h > SINK
        caps.append(math.inf if inner and rng.random() < 0.2
                    else float(rng.uniform(0.05, 1.0)))
    return n, tails, heads, caps


def brute_force_cuts(n, tails, heads, caps, tol):
    """(minimum cut value, its minimal and maximal source sides) over every
    s-t cut, the source sides as node masks; cuts within tol of the minimum
    tie."""
    inner = n - 2
    masks = np.arange(1 << inner)
    # source side per cut: the source and the chosen inner nodes
    side = np.zeros((len(masks), n), dtype=bool)
    side[:, SOURCE] = True
    side[:, 2:] = (masks[:, None] >> np.arange(inner)) & 1
    crossing = side[:, tails] & ~side[:, heads]
    values = np.where(crossing, np.asarray(caps), 0.0).sum(axis=1)
    best = values.min()
    tied = masks[values <= best + tol]
    return (float(best), int(np.bitwise_and.reduce(tied)) << 2 | 1,
            int(np.bitwise_or.reduce(tied)) << 2 | 1)


def node_mask(flags, keep=True):
    return sum(1 << v for v, flag in enumerate(flags) if flag == keep)


def path_flow(tails, heads, caps, reverse):
    """Edge flows from shortest augmenting paths: a maximum flow when
    paths may use reverse residuals (Edmonds-Karp), else a greedy one."""
    flow = [0.0] * len(caps)
    while True:
        parent = {SOURCE: None}
        queue = [SOURCE]
        for u in queue:
            for k, (t, h) in enumerate(zip(tails, heads)):
                if t == u and h not in parent and caps[k] - flow[k] > 1e-12:
                    parent[h] = (k, 1)
                    queue.append(h)
                elif (reverse and h == u and t not in parent
                      and flow[k] > 1e-12):
                    parent[t] = (k, -1)
                    queue.append(t)
        if SINK not in parent:
            return flow
        steps, v = [], SINK
        while parent[v] is not None:
            k, sign = parent[v]
            steps.append((k, sign))
            v = tails[k] if sign > 0 else heads[k]
        push = min(caps[k] - flow[k] if sign > 0 else flow[k]
                   for k, sign in steps)
        for k, sign in steps:
            flow[k] += sign * push


@pytest.mark.parametrize("n_inner", range(1, 10))
def test_max_flow_matches_brute_force_cuts(n_inner):
    rng = np.random.default_rng(n_inner)
    for _ in range(15):
        n, tails, heads, caps = random_network(rng, n_inner)
        tol = 1e-9 * max(1.0, sum(c for c in caps if c < math.inf))
        flow, from_source, to_sink, _, _ = max_flow(n, tails, heads, caps,
                                                    SOURCE, SINK, tol)
        best, minimal, maximal = brute_force_cuts(n, tails, heads, caps, tol)
        assert flow == pytest.approx(best, abs=tol)
        assert node_mask(from_source) == minimal
        assert node_mask(to_sink, keep=False) == maximal


@pytest.mark.parametrize("n_inner", range(1, 10))
def test_warm_starts_reach_the_cold_answer(n_inner):
    """Zero, greedy and scaled-down maximum flows are all feasible starts;
    each ends at the cold start's value and both of its reach sets."""
    rng = np.random.default_rng(100 + n_inner)
    for _ in range(8):
        n, tails, heads, caps = random_network(rng, n_inner)
        tol = 1e-9 * max(1.0, sum(c for c in caps if c < math.inf))
        cold = max_flow(n, tails, heads, caps, SOURCE, SINK, tol)
        scale = float(rng.uniform(0.0, 1.0))
        starts = ([0.0] * len(caps),
                  path_flow(tails, heads, caps, reverse=False),
                  [scale * x for x in path_flow(tails, heads, caps,
                                                reverse=True)])
        for start in starts:
            warm = max_flow(n, tails, heads, caps, SOURCE, SINK, tol, start)
            assert warm[0] == pytest.approx(cold[0], abs=tol)
            assert warm[1:3] == cold[1:3]


def project_selection(rng, n_users, n_bits):
    """A min-cut network of the shape swfair.sfm builds: source -> user i
    (capacity c_i) or user i -> sink, user -> each bit it observes
    (uncapped), bit -> sink (its entropy).  Node 2 + i is user i and
    2 + n_users + j bit j."""
    tails, heads, caps = [], [], []
    for i in range(n_users):
        c = float(rng.uniform(-0.5, 1.5))
        tails.append(SOURCE if c > 0.0 else 2 + i)
        heads.append(2 + i if c > 0.0 else SINK)
        caps.append(abs(c))
        for j in rng.choice(n_bits, int(rng.integers(1, 5)), replace=False):
            tails.append(2 + i)
            heads.append(2 + n_users + int(j))
            caps.append(math.inf)
    for j in range(n_bits):
        tails.append(2 + n_users + j)
        heads.append(SINK)
        caps.append(float(rng.uniform(0.05, 1.0)))
    return 2 + n_users + n_bits, tails, heads, caps


def cut_capacity(tails, heads, caps, side):
    return sum(c for t, h, c in zip(tails, heads, caps)
               if side[t] and not side[h])


@pytest.mark.parametrize("seed", range(5))
def test_project_selection_beyond_brute_force(seed):
    """20-60 users and 40-150 bits, cold and warm: the value is the
    Edmonds-Karp reference's, and both extreme cuts carry exactly it."""
    rng = np.random.default_rng(200 + seed)
    n_users = int(rng.integers(20, 61))
    n_bits = int(rng.integers(2 * n_users, min(150, 3 * n_users) + 1))
    n, tails, heads, caps = project_selection(rng, n_users, n_bits)
    tol = 1e-9 * max(1.0, sum(c for c in caps if c < math.inf))
    reference = path_flow(tails, heads, caps, reverse=True)
    value = sum(x for t, x in zip(tails, reference) if t == SOURCE)
    greedy = path_flow(tails, heads, caps, reverse=False)
    for start in (None, greedy, [0.5 * x for x in reference]):
        flow, from_source, to_sink, _, _ = max_flow(n, tails, heads, caps,
                                                    SOURCE, SINK, tol, start)
        assert flow == pytest.approx(value, abs=tol)
        for side in (from_source, [not t for t in to_sink]):
            assert cut_capacity(tails, heads, caps, side) == pytest.approx(
                flow, abs=tol)


def check_edge_flows(n, tails, heads, caps, value, flows, tol):
    """Each edge's flow lies within its capacity, every inner node passes
    on what it takes in, and the source's net out-flow is the value."""
    assert len(flows) == len(caps)
    for x, c in zip(flows, caps):
        assert -tol <= x <= c + tol
    net = [0.0] * n
    for t, h, x in zip(tails, heads, flows):
        net[t] += x
        net[h] -= x
    assert net[2:] == pytest.approx([0.0] * (n - 2), abs=tol)
    assert net[SOURCE] == pytest.approx(value, abs=tol)


@pytest.mark.parametrize("seed", range(6))
def test_edge_flows_are_a_maximum_flow(seed):
    """On random networks and project-selection ones, cold and warm."""
    rng = np.random.default_rng(300 + seed)
    for network in (random_network(rng, int(rng.integers(1, 10))),
                    project_selection(rng, int(rng.integers(2, 30)),
                                      int(rng.integers(4, 60)))):
        n, tails, heads, caps = network
        tol = 1e-9 * max(1.0, sum(c for c in caps if c < math.inf))
        greedy = path_flow(tails, heads, caps, reverse=False)
        for start in (None, greedy):
            value, _, _, _, flows = max_flow(n, tails, heads, caps, SOURCE,
                                             SINK, tol, start)
            check_edge_flows(n, tails, heads, caps, value, flows, tol)


def disjoint_union(networks):
    """The networks side by side, sharing the source and the sink: node v
    > SINK of network t is renumbered past the inner nodes of the ones
    before it.  Returns the union and, per network, its edges' indices in
    the union and the union's numbers of its nodes."""
    tails, heads, caps, edges, nodes = [], [], [], [], []
    shift = 0
    for n, t, h, c in networks:
        def at(v, shift=shift):
            return v if v <= SINK else v + shift
        edges.append(range(len(caps), len(caps) + len(c)))
        nodes.append([at(v) for v in range(n)])
        tails += [at(v) for v in t]
        heads += [at(v) for v in h]
        caps += c
        shift += n - 2
    return (shift + 2, tails, heads, caps), edges, nodes


@pytest.mark.parametrize("seed", range(6))
def test_a_disjoint_union_carries_each_parts_own_maximum_flow(seed):
    """One flow over networks that share only the source and the sink
    gives each part, on its own edges, the value of its solo maximum flow,
    and both of its solo reach sets."""
    rng = np.random.default_rng(400 + seed)
    parts = [project_selection(rng, int(rng.integers(1, 12)),
                               int(rng.integers(4, 20)))
             for _ in range(int(rng.integers(2, 6)))]
    union, edges, nodes = disjoint_union(parts)
    tol = 1e-9 * max(1.0, sum(c for c in union[3] if c < math.inf))
    value, from_source, to_sink, _, flows = max_flow(*union, SOURCE, SINK,
                                                     tol)
    check_edge_flows(*union, value, flows, tol)
    total = 0.0
    for (n, tails, heads, caps), own, at in zip(parts, edges, nodes):
        solo = max_flow(n, tails, heads, caps, SOURCE, SINK, tol)
        part = sum(flows[k] for k in own if union[1][k] == SOURCE)
        assert part == pytest.approx(solo[0], abs=tol)
        assert [from_source[v] for v in at[2:]] == solo[1][2:]
        assert [to_sink[v] for v in at[2:]] == solo[2][2:]
        total += part
    assert total == pytest.approx(value, abs=tol)


def test_a_path_whose_bottleneck_an_earlier_path_took_is_skipped():
    """The second round's tree reaches the sink through node 3 and node 4,
    both behind the source edge 0 -> 2 of capacity 1.  The path via 3
    saturates that edge, so the path via 4 holds nothing and is skipped.
    Node 5's edges tie, so the two extreme cuts differ."""
    tails = [0, 0, 2, 2, 3, 4, 5]
    heads = [2, 5, 3, 4, 1, 1, 1]
    caps = [1.0, 2.0, 5.0, 5.0, 5.0, 5.0, 2.0]
    flow, from_source, to_sink, rounds, _ = max_flow(6, tails, heads, caps,
                                                     0, 1, 1e-12)
    best, minimal, maximal = brute_force_cuts(6, tails, heads, caps, 1e-12)
    assert flow == best == 3.0
    # two rounds that augment, and the one that finds no path
    assert rounds == 3
    assert node_mask(from_source) == minimal == 0b000001
    assert node_mask(to_sink, keep=False) == maximal == 0b100001


def test_a_residue_at_tol_does_not_connect_the_sides():
    """0.1 + 0.2 in, 0.3 out: node 2 keeps a residue of an ulp on its
    source edge.  Above tol it would join the source side; at tol node 2
    ties, outside the minimal cut and inside the maximal one.  Node 3's
    path holds less than tol and carries nothing."""
    tails, heads = [0, 2, 0, 3], [2, 1, 3, 1]
    caps = [0.1 + 0.2, 0.3, 1e-13, 1.0]
    flow, from_source, to_sink, _, _ = max_flow(4, tails, heads, caps, 0, 1,
                                                1e-12)
    assert flow == 0.3
    assert from_source == [True, False, False, False]
    assert to_sink == [False, True, False, True]
    assert max_flow(4, tails, heads, caps, 0, 1)[1][2]


def test_a_start_through_the_source_counts_its_net_outflow():
    """A start may circulate through the source; the value counts only
    what leaves it net.  A maximum start leaves one round, which finds no
    path."""
    tails, heads, caps = [0, 2, 2], [2, 0, 1], [1.0, 1.0, 0.5]
    for start, want in (([0.0, 0.0, 0.0], 2), ([0.7, 0.7, 0.0], 3),
                        ([1.0, 0.5, 0.5], 1)):
        flow, from_source, to_sink, rounds, _ = max_flow(
            3, tails, heads, caps, 0, 1, 1e-12, start)
        assert rounds == want
        assert flow == pytest.approx(0.5, abs=1e-12)
        assert from_source == [True, False, True]
        assert to_sink == [False, True, False]
