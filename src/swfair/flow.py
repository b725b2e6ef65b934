"""Maximum flow with float capacities (Dinic's algorithm).

:func:`max_flow` takes a network as parallel edge arrays and returns the
flow value together with both sides of the residual graph: the nodes the
source still reaches, and the nodes that still reach the sink.  By the
max-flow/min-cut theorem the first set is the source side of the minimal
minimum cut and the complement of the second the source side of the
maximal one, which is what :func:`swfair.sfm.solve_sfm` reads its two
lattice-extreme minimizers from.

The search may start from any feasible flow the caller already has, such
as a greedy one: each edge then begins with residual capacity cap - flow
forward and flow backward, and the value counts the start's own.  A
maximum flow's value does not depend on where the search started, and
neither do both residual reach sets, because the minimal and the maximal
minimum cut are unique; so a warm start only saves phases.

Capacities are floats, so a residual capacity at or below ``tol`` counts
as zero: after rounding, a saturated edge may keep a residue of a few ulps
that must not carry flow or connect the two sides.  Uncapped edges take
``math.inf``.  References: Dinic, "Algorithm for solution of a problem of
maximum flow in a network with power estimation" (Soviet Math. Dokl.
1970); Picard and Queyranne, "On the structure of all minimum cuts in a
network and applications" (Math. Prog. Study 1980), for the extreme cuts.
"""

from __future__ import annotations

from typing import Sequence


def max_flow(n_nodes: int, tails: Sequence[int], heads: Sequence[int],
             caps: Sequence[float], source: int, sink: int,
             tol: float = 0.0, start: Sequence[float] | None = None,
             ) -> tuple[float, list[bool], list[bool]]:
    """Maximum source-sink flow; edge k runs tails[k] -> heads[k].

    Returns (flow, from_source, to_sink): the flow value and, per node,
    whether the source reaches it and whether it reaches the sink through
    edges of residual capacity above ``tol`` once the flow is maximum.
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

    while True:
        level = _levels(adj, to, cap, source, sink, n_nodes, tol)
        if level[sink] < 0:
            break
        _blocking_flow(adj, to, cap, level, source, sink, tol)
    # the source's out-flow less its in-flow
    flow = sum(-cap[e] if e & 1 else cap[e ^ 1] for e in adj[source])
    return flow, [d >= 0 for d in level], _reaches(adj, to, cap, sink,
                                                   n_nodes, tol)


def _levels(adj, to, cap, source, sink, n_nodes, tol) -> list[int]:
    """Breadth-first distance from the source in the residual graph, or -1.

    The search stops once it labels the sink: every node nearer the source
    is labeled by then, and no shortest path uses another node as far.
    """
    level = [-1] * n_nodes
    level[source] = 0
    queue = [source]
    for u in queue:
        d = level[u] + 1
        for e in adj[u]:
            v = to[e]
            if level[v] < 0 and cap[e] > tol:
                level[v] = d
                if v == sink:
                    return level
                queue.append(v)
    return level


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


def _blocking_flow(adj, to, cap, level, source, sink, tol) -> None:
    """Saturate every shortest augmenting path of the level graph.

    One depth-first walk with a current-arc pointer per node: it advances
    along level edges, augments on reaching the sink, retreats to the tail
    of the first edge that saturated, and drops a node once its edges run
    out.
    """
    pos = [0] * len(adj)
    path = []
    u = source
    while True:
        if u == sink:
            push = min(cap[e] for e in path)
            for e in path:
                cap[e] -= push
                cap[e ^ 1] += push
            for k, e in enumerate(path):
                if cap[e] <= tol:
                    break
            del path[k:]
            u = to[path[-1]] if path else source
            continue
        edges = adj[u]
        i = pos[u]
        end = len(edges)
        nxt = level[u] + 1
        while i < end:
            e = edges[i]
            if cap[e] > tol and level[to[e]] == nxt:
                break
            i += 1
        pos[u] = i
        if i < end:
            path.append(e)
            u = to[e]
        elif u == source:
            return
        else:
            level[u] = -1
            u = to[path.pop() ^ 1]
            pos[u] += 1
