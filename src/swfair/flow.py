"""Maximum flow of a user-bit project-selection network.

:func:`bipartite_flow` solves the network :func:`swfair.sfm.cut_results`
builds: source -> user i with capacity a_i, its supply; user i -> each bit
it observes, uncapped; bit b -> sink with capacity h_b, its room; and user
i -> sink with capacity s_i.  In the residual graph of a maximum flow, the
users the source reaches are the minimal minimum cut's source side and
those that do not reach the sink the maximal one's (Picard and Queyranne);
a disjoint union of such networks carries each part's own maximum flow.
Both sides are per-user lists, which ``cut_results`` hands on: split's
refinement loop reads ``to_sink`` alone, and only a tree builds masks.

The flow is kept per observation, with each user's unused supply and each
bit's free room, and per user and per bit the list of its observations.
Residual arcs are read from those: user -> bit always, bit -> user where
the observation carries flow, so no arc has a reverse to pair with it, the
source and the sink have no adjacency, and no capacity test runs on a user
-> bit arc.  No user has both a supply and a sink capacity (every cut pays
min(a_i, s_i) on either side, and ``cut_results`` takes it off both).  A
user without supply then has no arc in but the reverses of its own
observations, which carry nothing until flow enters it; so it carries no
flow, stays out of the search, and reaches the sink iff s_i is above
``tol`` or one of its bits reaches it.

A greedy pass over the observations, in the caller's order, starts the
flow: each pushes as much of its user's unused supply as its bit has room
for.  Neither the value nor the two reach sets depend on the start, since
the extreme minimum cuts are unique, so the order moves only the rounds.
Each round is one breadth-first search from the users with unused supply,
level by level through their bits, the users with flow into the full ones,
and so on until no new user is labeled; a bit with free room ends its
branch and is collected.  Each collected bit, in the order found, augments
along its tree path, skipped if an earlier path left it at most ``tol``:
one walk from the bit back to the user at the path's root takes the path's
bottleneck, the least of the bit's room, that user's unused supply and the
flows on the path's bit -> user arcs, and a second walk pushes it, so no
path is stored.  The levels are distances in the residual graph without
the arcs out of bits with room.  Tree paths climb one level per arc and
augmenting adds only arcs one level down, so no distance falls and each
path stays admissible until it augments, except when a bit's room runs out:
its arcs to the users that fill it may shorten distances.  Room only
falls, so that happens once per bit at most, and between the rounds where
it does, Edmonds and Karp's argument holds: each observation drains O(V)
times, so O(VE) augmentations.  With at most V such rounds of at most V
paths each, O(V^2 E) augmentations and O(V^2 E^2) time, strongly
polynomial.  Stopping each round at the first level with room kept Edmonds
and Karp's O(VE) but took about twice the rounds.  The last round collects
no bit, so its labels are all the users the source reaches, and one reverse
pass from the bits with room finds those that reach the sink.

A residual capacity at or below ``tol`` counts as zero: a saturated arc may
keep a residue of a few ulps that must not carry flow or join the sides.
References: Edmonds and Karp, "Theoretical improvements in algorithmic
efficiency for network flow problems" (J. ACM 1972); Picard and Queyranne,
"On the structure of all minimum cuts in a network and applications"
(Math. Prog. Study 1980).
"""

from __future__ import annotations

from typing import Sequence


def bipartite_flow(supply: Sequence[float], sink_cap: Sequence[float],
                   room: Sequence[float], user: Sequence[int],
                   bit: Sequence[int], tol: float = 0.0) -> tuple:
    """Maximum flow from the users' supply, through the bits they observe,
    into the bits' room and the users' sink capacities.

    Observation k is user[k] observing bit[k]; the greedy start takes the
    observations in this order.  A user may have supply or a sink capacity,
    not both.  Each round searches every level and augments each bit with
    room that it reaches.  Returns (unused, from_source, to_sink, rounds,
    flows): per user, its supply the maximum flow leaves unused, and
    whether the source reaches it and whether it reaches the sink through
    residual arcs of capacity above ``tol``; the breadth-first rounds
    searched, the last one, which finds no path, included; and per
    observation, its flow.
    """
    left = list(supply)
    free = list(room)
    flows = [0.0] * len(user)
    by_user = [[] for _ in left]
    # only the observations of users with supply can carry flow
    by_bit = [[] for _ in free]
    has = [a > 0.0 for a in supply]
    for k, i in enumerate(user):
        by_user[i].append(k)
        if has[i]:
            b = bit[k]
            by_bit[b].append(k)
            # plain comparisons: min and max calls triple this loop's cost
            x = left[i]
            if free[b] < x:
                x = free[b]
            if x > 0.0:
                left[i] -= x
                free[b] -= x
                flows[k] = x
    senders = [i for i, h in enumerate(has) if h]

    rounds = 0
    while True:
        rounds += 1
        # via_user[i]: -2 unlabeled, -1 labeled from the source, else the
        # observation whose flow labeled it; via_bit[b]: the observation
        # that labeled bit b, or -1
        via_user = [-2] * len(left)
        via_bit = [-1] * len(free)
        # unused supply only falls, so a sender that ran out stays out
        senders = [i for i in senders if left[i] > tol]
        level = senders
        for i in level:
            via_user[i] = -1
        hits = []
        while level:
            bits = []
            for i in level:
                for k in by_user[i]:
                    b = bit[k]
                    if via_bit[b] < 0:
                        via_bit[b] = k
                        # the search goes on past full bits only
                        if free[b] > tol:
                            hits.append(b)
                        else:
                            bits.append(b)
            level = []
            for b in bits:
                for k in by_bit[b]:
                    if flows[k] > tol:
                        i = user[k]
                        if via_user[i] == -2:
                            via_user[i] = k
                            level.append(i)
        if not hits:
            break
        for b in hits:
            # the tree path into b, walked from b to the user at its root
            # twice: once for its least residual capacity, once to push
            k = via_bit[b]
            push = free[b]
            i = user[k]
            while via_user[i] >= 0:
                j = via_user[i]
                if flows[j] < push:
                    push = flows[j]
                i = user[via_bit[bit[j]]]
            if left[i] < push:
                push = left[i]
            # an earlier path of this round may have saturated this one
            if push > tol:
                left[i] -= push
                free[b] -= push
                flows[k] += push
                i = user[k]
                while via_user[i] >= 0:
                    j = via_user[i]
                    flows[j] -= push
                    k = via_bit[bit[j]]
                    flows[k] += push
                    i = user[k]

    from_source = [v != -2 for v in via_user]
    to_bit = [r > tol for r in free]
    to_sink = [s > tol for s in sink_cap]
    queue = [b for b, r in enumerate(to_bit) if r]
    for b in queue:
        for k in by_bit[b]:
            i = user[k]
            if not to_sink[i]:
                to_sink[i] = True
                for j in by_user[i]:
                    if flows[j] > tol and not to_bit[bit[j]]:
                        to_bit[bit[j]] = True
                        queue.append(bit[j])
    # users without supply are in no bit's list
    for i, a in enumerate(supply):
        if a <= 0.0 and not to_sink[i]:
            to_sink[i] = any(to_bit[bit[k]] for k in by_user[i])
    return left, from_source, to_sink, rounds, flows
