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
Each round is one breadth-first search, level by level: the users with
unused supply, their bits, the users with flow into those bits, their bits,
and so on, up to the first level that holds bits with free room; each of
those bits then augments along its tree path.  Every tree path runs from
one level to the next and augmenting adds only arcs one level down, so no
distance from the source shrinks within a round and every augmentation is
along a shortest path: Edmonds and Karp's bound holds, O(VE) augmentations
and O(VE^2) time, strongly polynomial.  The last round's labels are the
users the source reaches, and one reverse pass from the bits with room
finds those that reach the sink.

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
    not both.  Returns (unused, from_source, to_sink, rounds, flows): per
    user, its supply the maximum flow leaves unused, and whether the source
    reaches it and whether it reaches the sink through residual arcs of
    capacity above ``tol``; the breadth-first rounds searched, the last
    one, which finds no path, included; and per observation, its flow.
    """
    left = list(supply)
    free = list(room)
    flows = [0.0] * len(user)
    by_user = [[] for _ in left]
    # only the observations of users with supply can carry flow
    by_bit = [[] for _ in free]
    for k, (i, b) in enumerate(zip(user, bit)):
        by_user[i].append(k)
        if supply[i] > 0.0:
            by_bit[b].append(k)
            # plain comparisons: min and max calls triple this loop's cost
            x = left[i]
            if free[b] < x:
                x = free[b]
            if x > 0.0:
                left[i] -= x
                free[b] -= x
                flows[k] = x
    senders = [i for i, a in enumerate(supply) if a > 0.0]

    rounds = 0
    while True:
        rounds += 1
        # via_user[i]: -2 unlabeled, -1 labeled from the source, else the
        # observation whose flow labeled it; via_bit[b]: the observation
        # that labeled bit b, or -1
        via_user = [-2] * len(left)
        via_bit = [-1] * len(free)
        level = [i for i in senders if left[i] > tol]
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
                        bits.append(b)
            hits = [b for b in bits if free[b] > tol]
            if hits:
                break
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
            # the tree path into b: ahead its user -> bit arcs, back the
            # bit -> user ones, and i the user at its root
            ahead, back = [via_bit[b]], []
            i = user[ahead[0]]
            while via_user[i] >= 0:
                back.append(via_user[i])
                ahead.append(via_bit[bit[back[-1]]])
                i = user[ahead[-1]]
            push = min(free[b], left[i], *[flows[k] for k in back])
            # an earlier path of this round may have saturated this one
            if push > tol:
                left[i] -= push
                free[b] -= push
                for k in ahead:
                    flows[k] += push
                for k in back:
                    flows[k] -= push

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
