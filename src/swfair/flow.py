"""Maximum flow with float capacities (Dinic's algorithm).

:func:`max_flow` takes a network as parallel edge arrays and returns the
flow value together with both sides of the residual graph: the nodes the
source still reaches, and the nodes that still reach the sink.  By the
max-flow/min-cut theorem the first set is the source side of the minimal
minimum cut and the complement of the second the source side of the
maximal one, which is what :func:`swfair.sfm.solve_sfm` reads its two
lattice-extreme minimizers from.

Capacities are floats, so a residual capacity at or below ``tol`` counts
as zero: after rounding, a saturated edge may keep a residue of a few ulps
that must not carry flow or connect the two sides.  Uncapped edges take
``math.inf``.  Reference: Dinic, "Algorithm for solution of a problem of
maximum flow in a network with power estimation" (Soviet Math. Dokl. 1970).
"""

from __future__ import annotations

from typing import Sequence


def max_flow(n_nodes: int, tails: Sequence[int], heads: Sequence[int],
             caps: Sequence[float], source: int, sink: int,
             tol: float = 0.0) -> tuple[float, list[bool], list[bool]]:
    """Maximum source-sink flow; edge k runs tails[k] -> heads[k].

    Returns (flow, from_source, to_sink): the flow value and, per node,
    whether the source reaches it and whether it reaches the sink through
    edges of residual capacity above ``tol`` once the flow is maximum.
    Every source-sink path must hold a finite capacity.
    """
    # Edge 2k is the k-th input edge and 2k+1 its reverse, so e ^ 1 pairs
    # them; cap holds residual capacities.
    to = [0] * (2 * len(caps))
    to[0::2] = heads
    to[1::2] = tails
    cap = [0.0] * (2 * len(caps))
    cap[0::2] = caps
    adj = [[] for _ in range(n_nodes)]
    for e in range(len(to)):
        adj[to[e ^ 1]].append(e)

    flow = 0.0
    while True:
        level = _levels(adj, to, cap, source, n_nodes, tol)
        if level[sink] < 0:
            break
        flow += _blocking_flow(adj, to, cap, level, source, sink, tol)
    return flow, [d >= 0 for d in level], _reaches(adj, to, cap, sink,
                                                   n_nodes, tol)


def _levels(adj, to, cap, source, n_nodes, tol) -> list[int]:
    """Breadth-first distance from the source in the residual graph, or -1."""
    level = [-1] * n_nodes
    level[source] = 0
    queue = [source]
    for u in queue:
        d = level[u] + 1
        for e in adj[u]:
            v = to[e]
            if level[v] < 0 and cap[e] > tol:
                level[v] = d
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


def _blocking_flow(adj, to, cap, level, source, sink, tol) -> float:
    """Saturate every shortest augmenting path of the level graph.

    One depth-first walk with a current-arc pointer per node: it advances
    along level edges, augments on reaching the sink, retreats to the tail
    of the first edge that saturated, and drops a node once its edges run
    out.
    """
    pos = [0] * len(adj)
    path = []
    total = 0.0
    u = source
    while True:
        if u == sink:
            push = min(cap[e] for e in path)
            for e in path:
                cap[e] -= push
                cap[e ^ 1] += push
            total += push
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
            return total
        else:
            level[u] = -1
            u = to[path.pop() ^ 1]
            pos[u] += 1
