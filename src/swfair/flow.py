"""Maximum flow with float capacities (shortest augmenting paths).

:func:`max_flow` takes a network as parallel edge arrays and returns the
flow value together with both sides of the residual graph, the nodes the
source still reaches and the nodes that still reach the sink, and the
number of breadth-first rounds it searched.  By the
max-flow/min-cut theorem the first set is the source side of the minimal
minimum cut and the complement of the second the source side of the
maximal one, which is what :func:`swfair.sfm.solve_sfm` reads its two
lattice-extreme minimizers from.

The search is Edmonds and Karp's, with the augmenting paths of one round
taken from one breadth-first tree.  Each round labels every node's distance
from the source and the residual edge that reached it, stopping at the
sink.  Then each node u one step short of the sink whose edge u -> sink
still has room sends its tree path plus that edge's bottleneck.  Every such
path runs along edges from one level to the next, and augmenting along
them adds only reverse edges that go one level down, so no distance from
the source shrinks within the round: a path of the sink's length that
still has room is a current shortest path.  So every augmentation is along
a shortest path, and Edmonds and Karp's bound holds: O(VE) augmentations
and O(VE^2) time, strongly polynomial.

The search may start from any feasible flow the caller already has, such
as a greedy one: each edge then begins with residual capacity cap - flow
forward and flow backward, and the value counts the start's own.  A
maximum flow's value does not depend on where the search started, and
neither do both residual reach sets, because the minimal and the maximal
minimum cut are unique; so a warm start only saves rounds.

Capacities are floats, so a residual capacity at or below ``tol`` counts
as zero: after rounding, a saturated edge may keep a residue of a few ulps
that must not carry flow or connect the two sides.  Uncapped edges take
``math.inf``.  References: Edmonds and Karp, "Theoretical improvements in
algorithmic efficiency for network flow problems" (J. ACM 1972); Picard
and Queyranne, "On the structure of all minimum cuts in a network and
applications" (Math. Prog. Study 1980), for the extreme cuts.
"""

from __future__ import annotations

from typing import Sequence


def max_flow(n_nodes: int, tails: Sequence[int], heads: Sequence[int],
             caps: Sequence[float], source: int, sink: int,
             tol: float = 0.0, start: Sequence[float] | None = None,
             ) -> tuple[float, list[bool], list[bool], int]:
    """Maximum source-sink flow; edge k runs tails[k] -> heads[k].

    Returns (flow, from_source, to_sink, rounds): the flow value; per node,
    whether the source reaches it and whether it reaches the sink through
    edges of residual capacity above ``tol`` once the flow is maximum; and
    the breadth-first rounds searched, the last one, which finds no path,
    included.
    Every source-sink path must hold a finite capacity.  ``start`` is a
    feasible flow per edge to begin from (zero if None): within each
    edge's capacity and conserved at every node but the source and sink.
    """
    # Edge 2k is the k-th input edge and 2k+1 its reverse, so e ^ 1 pairs
    # them; cap holds residual capacities, so cap[2k+1] is edge k's flow.
    to = [0] * (2 * len(caps))
    to[0::2] = heads
    to[1::2] = tails
    cap = [0.0] * (2 * len(caps))
    if start is None:
        cap[0::2] = caps
    else:
        cap[0::2] = [c - x for c, x in zip(caps, start)]
        cap[1::2] = start
    adj = [[] for _ in range(n_nodes)]
    for e in range(len(to)):
        adj[to[e ^ 1]].append(e)

    rounds = 0
    while True:
        rounds += 1
        level, via = _tree(adj, to, cap, source, sink, n_nodes, tol)
        if level[sink] < 0:
            break
        for back in adj[sink]:
            # back runs sink -> u, so back ^ 1 is the edge u -> sink
            u = to[back]
            if level[u] != level[sink] - 1 or cap[back ^ 1] <= tol:
                continue
            path = [back ^ 1]
            while u != source:
                path.append(via[u])
                u = to[via[u] ^ 1]
            push = min(cap[e] for e in path)
            # an earlier path of this round may have saturated this one
            if push > tol:
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
    # the source's out-flow less its in-flow
    flow = sum(-cap[e] if e & 1 else cap[e ^ 1] for e in adj[source])
    return (flow, [d >= 0 for d in level],
            _reaches(adj, to, cap, sink, n_nodes, tol), rounds)


def _tree(adj, to, cap, source, sink, n_nodes, tol):
    """Breadth-first tree from the source in the residual graph.

    Returns each node's distance from the source (-1 if unlabeled) and the
    edge that labeled it.  The search stops once it labels the sink: every
    node nearer the source is labeled by then.
    """
    level = [-1] * n_nodes
    via = [0] * n_nodes
    level[source] = 0
    queue = [source]
    for u in queue:
        d = level[u] + 1
        for e in adj[u]:
            v = to[e]
            if level[v] < 0 and cap[e] > tol:
                level[v] = d
                via[v] = e
                if v == sink:
                    return level, via
                queue.append(v)
    return level, via


def _reaches(adj, to, cap, sink, n_nodes, tol) -> list[bool]:
    """Per node: does some residual path lead from it to the sink?"""
    seen = [False] * n_nodes
    seen[sink] = True
    queue = [sink]
    for v in queue:
        for e in adj[v]:
            u = to[e]
            # e runs v -> u, so e ^ 1 is the edge u -> v
            if not seen[u] and cap[e ^ 1] > tol:
                seen[u] = True
                queue.append(u)
    return seen
