import math

import numpy as np
import pytest

from swfair.flow import bipartite_flow

SOURCE, SINK = 0, 1
# residual capacities at or below TOL count as zero; some capacities of
# the random networks are TOL or half of it
TOL = 1e-9


def selection_network(rng, n_users, n_bits):
    """A random network of the shape swfair.sfm builds, as the arguments
    of bipartite_flow: per user a supply or a sink capacity (or neither),
    per bit its room, and the observations in a random order.

    Among the users are sink-only ones, ones with no observation, and ones
    whose capacity is TOL or half of it; bits that no user with supply
    observes occur too.
    """
    supply, sink_cap = [0.0] * n_users, [0.0] * n_users
    for i in range(n_users):
        kind = rng.integers(7)
        cap = float(rng.uniform(0.05, 1.5))
        if kind in (4, 5):
            cap = TOL / float(rng.integers(1, 3))
        if kind in (0, 1, 4):
            supply[i] = cap
        elif kind in (2, 3, 5):
            sink_cap[i] = cap
    room = [float(rng.uniform(0.05, 1.0)) for _ in range(n_bits)]
    user, bit = [], []
    for i in range(n_users):
        seen = int(rng.integers(0, min(3, n_bits) + 1))
        for b in rng.choice(n_bits, seen, replace=False):
            user.append(i)
            bit.append(int(b))
    order = rng.permutation(len(user)).tolist()
    return (supply, sink_cap, room, [user[k] for k in order],
            [bit[k] for k in order])


def arcs(network):
    """The network as arc lists: node 0 the source, 1 the sink, 2 + i user
    i and 2 + len(users) + b bit b; user -> bit arcs are uncapped."""
    supply, sink_cap, room, user, bit = network
    n_users = len(supply)
    tails, heads, caps = [], [], []

    def arc(tail, head, cap):
        tails.append(tail)
        heads.append(head)
        caps.append(cap)

    for i, (a, s) in enumerate(zip(supply, sink_cap)):
        if a > 0.0:
            arc(SOURCE, 2 + i, a)
        if s > 0.0:
            arc(2 + i, SINK, s)
    for i, b in zip(user, bit):
        arc(2 + i, 2 + n_users + b, math.inf)
    for b, r in enumerate(room):
        arc(2 + n_users + b, SINK, r)
    return 2 + n_users + len(room), tails, heads, caps


def brute_force_cuts(n, tails, heads, caps, tol):
    """(minimum cut value, its minimal and maximal source sides) over every
    s-t cut, the source sides as masks over the inner nodes; cuts within
    tol of the minimum tie."""
    inner = n - 2
    masks = np.arange(1 << inner)
    side = np.zeros((len(masks), n), dtype=bool)
    side[:, SOURCE] = True
    side[:, 2:] = (masks[:, None] >> np.arange(inner)) & 1
    crossing = side[:, tails] & ~side[:, heads]
    values = np.where(crossing, np.asarray(caps), 0.0).sum(axis=1)
    best = values.min()
    tied = masks[values <= best + tol]
    return (float(best), int(np.bitwise_and.reduce(tied)),
            int(np.bitwise_or.reduce(tied)))


def user_mask(flags, keep=True):
    return sum(1 << i for i, flag in enumerate(flags) if flag == keep)


def path_flow(n, tails, heads, caps):
    """Arc flows of Edmonds and Karp's search from the zero flow, one
    shortest augmenting path at a time: the cold reference."""
    flow = [0.0] * len(caps)
    while True:
        parent = {SOURCE: None}
        queue = [SOURCE]
        for u in queue:
            for k, (t, h) in enumerate(zip(tails, heads)):
                if t == u and h not in parent and caps[k] - flow[k] > 1e-12:
                    parent[h] = (k, 1)
                    queue.append(h)
                elif h == u and t not in parent and flow[k] > 1e-12:
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


def residual_reach(n, tails, heads, caps, flow, tol):
    """Per node: does the source reach it, and does it reach the sink,
    through arcs of residual capacity above tol?"""
    def reach(start, forward):
        seen = [False] * n
        seen[start] = True
        queue = [start]
        for u in queue:
            for t, h, c, x in zip(tails, heads, caps, flow):
                a, b = (t, h) if forward else (h, t)
                # the arc a -> b, then its reverse b -> a
                for v, w, room in ((a, b, c - x), (b, a, x)):
                    if v == u and not seen[w] and room > tol:
                        seen[w] = True
                        queue.append(w)
        return seen
    return reach(SOURCE, True), reach(SINK, False)


def value_of(network, unused):
    return sum(network[0]) - sum(unused)


def slack(network):
    """How far below a maximum flow's value a flow may stop: each arc may
    keep a residual capacity of TOL, which counts as none."""
    return TOL * sum(map(len, network))


@pytest.mark.parametrize("n_inner", range(1, 10))
def test_max_flow_matches_brute_force_cuts(n_inner):
    """Over every cut of networks with n_inner users and bits: the flow's
    value is the minimum, the users the source reaches are the minimal
    source side's and the users that do not reach the sink the maximal
    one's."""
    rng = np.random.default_rng(n_inner)
    for _ in range(15):
        n_users = int(rng.integers(1, n_inner + 1))
        network = selection_network(rng, n_users, n_inner - n_users)
        unused, from_source, to_sink, rounds, _ = bipartite_flow(*network,
                                                                 TOL)
        best, minimal, maximal = brute_force_cuts(*arcs(network), TOL)
        everyone = (1 << n_users) - 1
        assert rounds >= 1
        assert value_of(network, unused) == pytest.approx(
            best, abs=slack(network))
        assert user_mask(from_source) == minimal & everyone
        assert user_mask(to_sink, keep=False) == maximal & everyone


def shuffled(rng, network):
    supply, sink_cap, room, user, bit = network
    order = rng.permutation(len(user)).tolist()
    return (supply, sink_cap, room, [user[k] for k in order],
            [bit[k] for k in order])


@pytest.mark.parametrize("n_inner", range(1, 10))
def test_warm_starts_reach_the_cold_answer(n_inner):
    """The greedy start of each order of the observations is a warm start;
    each ends at the value and at both reach sets of a cold Edmonds-Karp
    search from the zero flow."""
    rng = np.random.default_rng(100 + n_inner)
    for _ in range(8):
        network = selection_network(rng, int(rng.integers(1, n_inner + 1)),
                                    n_inner)
        n, tails, heads, caps = arcs(network)
        cold = path_flow(n, tails, heads, caps)
        value = sum(x for t, x in zip(tails, cold) if t == SOURCE)
        from_source, to_sink = residual_reach(n, tails, heads, caps, cold,
                                              TOL)
        users = slice(2, 2 + len(network[0]))
        for start in (network, shuffled(rng, network),
                      shuffled(rng, network)):
            warm = bipartite_flow(*start, TOL)
            assert value_of(network, warm[0]) == pytest.approx(
                value, abs=slack(network))
            assert warm[1] == from_source[users]
            assert warm[2] == to_sink[users]


def cut_capacity(tails, heads, caps, side):
    return sum(c for t, h, c in zip(tails, heads, caps)
               if side[t] and not side[h])


def sides(network, users_in):
    """The source side, as node flags, of the cheapest cut whose users are
    users_in: the source, users_in and the bits they observe."""
    supply, _, room, user, bit = network
    side = [True, False] + list(users_in) + [False] * len(room)
    for i, b in zip(user, bit):
        side[2 + len(supply) + b] |= users_in[i]
    return side


@pytest.mark.parametrize("seed", range(5))
def test_project_selection_beyond_brute_force(seed):
    """20-60 users on half as many bits to as many, in two orders: the
    value is the cold Edmonds-Karp reference's, and both extreme cuts
    carry exactly it."""
    rng = np.random.default_rng(200 + seed)
    n_users = int(rng.integers(20, 61))
    n_bits = int(rng.integers(n_users // 2, n_users + 1))
    network = selection_network(rng, n_users, n_bits)
    n, tails, heads, caps = arcs(network)
    reference = path_flow(n, tails, heads, caps)
    value = sum(x for t, x in zip(tails, reference) if t == SOURCE)
    for start in (network, shuffled(rng, network)):
        unused, from_source, to_sink, _, _ = bipartite_flow(*start, TOL)
        assert value_of(network, unused) == pytest.approx(
            value, abs=slack(network))
        for users_in in (from_source, [not t for t in to_sink]):
            side = sides(network, users_in)
            assert cut_capacity(tails, heads, caps, side) == pytest.approx(
                value, abs=slack(network))


def check_flows(network, unused, flows, tol):
    """Each observation's flow is nonnegative and only a user with supply
    carries any; each bit takes at most its room, each user sends at most
    its supply and keeps the rest unused."""
    supply, _, room, user, bit = network
    assert len(flows) == len(user)
    sent, took = [0.0] * len(supply), [0.0] * len(room)
    for i, b, x in zip(user, bit, flows):
        assert x >= -tol
        assert supply[i] > 0.0 or x == 0.0
        sent[i] += x
        took[b] += x
    for t, r in zip(took, room):
        assert t <= r + tol
    for s, a, left in zip(sent, supply, unused):
        assert s <= a + tol
        assert left == pytest.approx(a - s, abs=tol)


@pytest.mark.parametrize("seed", range(6))
def test_edge_flows_are_a_maximum_flow(seed):
    """Small and larger networks, in two orders: the flows fit their
    capacities, pass on what each user takes in, and reach the cold
    reference's value."""
    rng = np.random.default_rng(300 + seed)
    for sizes in ((int(rng.integers(1, 10)), int(rng.integers(1, 10))),
                  (int(rng.integers(2, 30)), int(rng.integers(4, 60)))):
        network = selection_network(rng, *sizes)
        n, tails, heads, caps = arcs(network)
        reference = path_flow(n, tails, heads, caps)
        value = sum(x for t, x in zip(tails, reference) if t == SOURCE)
        for start in (network, shuffled(rng, network)):
            unused, _, _, _, flows = bipartite_flow(*start, TOL)
            check_flows(start, unused, flows, TOL)
            assert sum(flows) == pytest.approx(value_of(start, unused),
                                               abs=TOL)
            assert sum(flows) == pytest.approx(value, abs=slack(network))


def disjoint_union(rng, networks):
    """The networks side by side, users and bits renumbered past those of
    the ones before, their observations interleaved at random.  Returns
    the union and, per network, the union's numbers of its users."""
    supply, sink_cap, room, obs, users = [], [], [], [], []
    for a, s, r, user, bit in networks:
        users.append(range(len(supply), len(supply) + len(a)))
        obs += [(i + len(supply), b + len(room)) for i, b in zip(user, bit)]
        supply, sink_cap, room = supply + a, sink_cap + s, room + r
    order = rng.permutation(len(obs)).tolist()
    return (supply, sink_cap, room, [obs[k][0] for k in order],
            [obs[k][1] for k in order]), users


@pytest.mark.parametrize("seed", range(6))
def test_a_disjoint_union_carries_each_parts_own_maximum_flow(seed):
    """One flow over networks that share only the source and the sink
    gives each part, on its own users, the value of its solo maximum flow
    and both of its solo reach sets."""
    rng = np.random.default_rng(400 + seed)
    parts = [selection_network(rng, int(rng.integers(1, 12)),
                               int(rng.integers(4, 20)))
             for _ in range(int(rng.integers(2, 6)))]
    union, users = disjoint_union(rng, parts)
    unused, from_source, to_sink, _, flows = bipartite_flow(*union, TOL)
    check_flows(union, unused, flows, TOL)
    total = 0.0
    for part, own in zip(parts, users):
        solo = bipartite_flow(*part, TOL)
        value = sum(part[0][i] - unused[u] for i, u in enumerate(own))
        assert value == pytest.approx(value_of(part, solo[0]), abs=TOL)
        assert [from_source[u] for u in own] == solo[1]
        assert [to_sink[u] for u in own] == solo[2]
        total += value
    assert total == pytest.approx(value_of(union, unused), abs=TOL)


def test_a_path_whose_bottleneck_an_earlier_path_took_is_skipped():
    """After the greedy start, user 0 has one unit of supply left and an
    ulp-sized residue, and its bits x and y are full, with users 1 and 2
    behind them.  The round's tree reaches bits p and q, with room,
    through x and y.  The path via x takes user 0's unit, so the path via
    y holds only the residue, less than tol, and is skipped.  User 3 fills
    its bit z, so the two extreme cuts differ."""
    # users 0-3; bits x, y, p, q, z = 0, 1, 2, 3, 4
    supply, sink_cap = [1.0 + 1e-13, 1.0, 1.0, 1.0], [0.0] * 4
    room = [1.0, 1.0, 5.0, 5.0, 1.0]
    user = [1, 2, 0, 0, 1, 2, 3]
    bit = [0, 1, 0, 1, 2, 3, 4]
    network = supply, sink_cap, room, user, bit
    unused, from_source, to_sink, rounds, flows = bipartite_flow(*network,
                                                                 1e-12)
    best, minimal, maximal = brute_force_cuts(*arcs(network), 1e-12)
    assert value_of(network, unused) == pytest.approx(4.0, abs=1e-15)
    assert best == pytest.approx(4.0 + 1e-13, abs=1e-15)
    # one round that augments, and the one that finds no path
    assert rounds == 2
    assert flows == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert user_mask(from_source) == minimal & 0b1111 == 0b0000
    assert user_mask(to_sink, keep=False) == maximal & 0b1111 == 0b1000


def test_a_residue_at_tol_does_not_connect_the_sides():
    """0.1 + 0.2 of supply into a room of 0.3: user 0 keeps a residue of
    an ulp.  Above tol it would join the source side; at tol user 0 ties,
    outside the minimal cut and inside the maximal one.  User 1's supply
    is less than tol, and so is the room it fills."""
    supply, sink_cap = [0.1 + 0.2, 1e-13], [0.0, 0.0]
    room, user, bit = [0.3, 1e-13], [0, 1], [0, 1]
    unused, from_source, to_sink, _, _ = bipartite_flow(
        supply, sink_cap, room, user, bit, 1e-12)
    assert sum(supply) - sum(unused) == pytest.approx(0.3 + 1e-13,
                                                      abs=1e-15)
    assert from_source == [False, False]
    assert to_sink == [False, False]
    assert bipartite_flow(supply, sink_cap, room, user, bit)[1][0]


def test_a_room_at_tol_is_no_path():
    """User 0 fills bit 0 and leaves bit 1 a room of less than tol; user
    1, with all of its supply left, reaches that room through user 0.  It
    is no path: one round, which finds none, and bit 1 does not reach the
    sink."""
    supply, sink_cap = [1.0, 1.0], [0.0, 0.0]
    room, user, bit = [0.5, 0.5 + 1e-13], [0, 0, 1], [0, 1, 0]
    unused, from_source, to_sink, rounds, flows = bipartite_flow(
        supply, sink_cap, room, user, bit, 1e-12)
    assert rounds == 1
    assert flows == [0.5, 0.5, 0.0]
    assert unused == [0.0, 1.0]
    assert from_source == [True, True]
    assert to_sink == [False, False]


def test_the_greedy_start_counts_and_a_maximum_one_leaves_one_round():
    """The value counts what the greedy start sent.  An order whose greedy
    start is already maximum leaves one round, which finds no path; the
    other order leaves a path of three arcs to a second round.  A
    sink-only user carries nothing on its observation."""
    supply, sink_cap, room = [1.0, 1.0, 0.0], [0.0, 0.0, 0.5], [1.0, 1.0]
    for user, bit, want in (([1, 0, 0, 2], [0, 0, 1, 1], 1),
                            ([0, 1, 0, 2], [0, 0, 1, 1], 2)):
        unused, from_source, to_sink, rounds, flows = bipartite_flow(
            supply, sink_cap, room, user, bit, 1e-12)
        assert rounds == want
        assert unused == [0.0, 0.0, 0.0]
        assert flows[3] == 0.0
        assert from_source == [False, False, False]
        assert to_sink == [False, False, True]


def test_one_round_reaches_rooms_at_every_level():
    """After the greedy start, senders 0 and 1 keep supply and every bit
    they observe is full.  The nearest bit with room is p, one user level
    from sender 0 (0 -> z -> 2 -> p), and q, two levels from sender 1 (1
    -> x -> 3 -> y -> 4 -> q).  One round reaches both and augments both
    paths; the second finds none.  Sender 0 keeps a unit it cannot send
    and q keeps a unit of room, so the two extreme cuts differ."""
    # users 0-4; bits z, p, x, y, q = 0, 1, 2, 3, 4
    supply, sink_cap = [2.0, 1.0, 1.0, 1.0, 1.0], [0.0] * 5
    room = [1.0, 1.0, 1.0, 1.0, 2.0]
    user = [2, 3, 4, 2, 0, 1, 3, 4]
    bit = [0, 2, 3, 1, 0, 2, 3, 4]
    network = supply, sink_cap, room, user, bit
    unused, from_source, to_sink, rounds, flows = bipartite_flow(*network,
                                                                 TOL)
    best, minimal, maximal = brute_force_cuts(*arcs(network), TOL)
    assert value_of(network, unused) == best == 5.0
    assert rounds == 2
    assert flows == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert unused == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert user_mask(from_source) == minimal & 0b11111 == 0b00001
    assert user_mask(to_sink, keep=False) == maximal & 0b11111 == 0b01111
