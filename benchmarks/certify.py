"""Certificates for swfair's outputs, computed apart from the program.

Only numpy and the generated arrays are used: no swfair code runs here.
Each check returns ``None`` when the output is certified and a one-line
reason otherwise.

* Membership r in B(f): r(V) = f(V), and a max-flow from a source through
  users (capacity r_i) and the bits they observe (uncapped) into a sink
  (capacity h_b) carries all of r(V); by max-flow/min-cut that holds iff
  r(X) <= f(X) for every X.  At n <= 16 every subset is also checked.
* Weighted egalitarian point: a base is the minimizer of sum r_i^2 / w_i
  iff every lower level set {i : r_i / w_i <= t} is tight, r(L) = f(L)
  (Fujishige, Math. OR 1980).
* Shapley value of a coverage function: r_i = sum_b h_b [i observes b] /
  |observers(b)|.
* Decomposition: strictly increasing critical values whose chain is the
  level sets of the certified rates and rebuilds them.
"""

from __future__ import annotations

import numpy as np

from models import Model, subset_values

REL_TOL = 1e-9
EXHAUSTIVE_LIMIT = 16


def _tol(model: Model) -> float:
    return REL_TOL * max(1.0, float(model.h @ model.obs.any(axis=0)))


def entropy(model: Model, members: np.ndarray) -> float:
    """H of the users selected by the boolean vector ``members``."""
    return float(model.h @ model.obs[members].any(axis=0))


def max_flow(model: Model, r: np.ndarray, eps: float) -> float:
    """Largest flow source -> user i (cap r_i) -> bit b -> sink (cap h_b)."""
    n, m = model.obs.shape
    source, sink = n + m, n + m + 1
    adj = [[] for _ in range(n + m + 2)]
    head, cap = [], []

    def edge(u, v, c):
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0.0)

    for i in range(n):
        if r[i] > eps:
            edge(source, i, float(r[i]))
    for i, b in zip(*np.nonzero(model.obs)):
        edge(int(i), n + int(b), np.inf)
    for b in np.nonzero(model.obs.any(axis=0))[0]:
        edge(n + int(b), sink, float(model.h[b]))

    total = 0.0
    while True:                      # Dinic: BFS levels, then blocking flow
        level = [-1] * len(adj)
        level[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for e in adj[u]:
                    v = head[e]
                    if level[v] < 0 and cap[e] > eps:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        if level[sink] < 0:
            return total
        it = [0] * len(adj)
        path = []
        u = source
        while True:
            if u == sink:
                d = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= d
                    cap[e ^ 1] += d
                total += d
                path.clear()
                u = source
                continue
            edges = adj[u]
            while it[u] < len(edges):
                e = edges[it[u]]
                if cap[e] > eps and level[head[e]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if u == source:
                    break
                level[u] = -1        # dead end for the rest of this phase
                e = path.pop()
                u = head[e ^ 1]
                it[u] += 1
                continue
            path.append(e)
            u = head[e]


def membership(model: Model, r) -> str | None:
    r = np.asarray(r, dtype=float)
    n = model.obs.shape[0]
    tol = _tol(model)
    if r.shape != (n,) or not np.all(np.isfinite(r)):
        return "rates are not %d finite numbers" % n
    if r.min() < -tol:
        return "negative rate %.6g" % r.min()
    r = np.maximum(r, 0.0)
    f_v = entropy(model, np.ones(n, dtype=bool))
    if abs(r.sum() - f_v) > tol:
        return "r(V) = %.12g but f(V) = %.12g" % (r.sum(), f_v)
    flow = max_flow(model, r, eps=1e-3 * tol)
    if flow < r.sum() - tol:
        return "a set is over its entropy: flow %.12g < r(V) %.12g" % (
            flow, r.sum())
    if n <= EXHAUSTIVE_LIMIT:
        vals = subset_values(model)
        masks = np.arange(1 << n)
        r_sub = np.zeros(1 << n)
        for i in range(n):
            r_sub[(masks >> i & 1) == 1] += r[i]
        worst = int(np.argmax(r_sub - vals))
        if r_sub[worst] - vals[worst] > tol:
            return "r(X) exceeds f(X) by %.6g at mask %#x" % (
                r_sub[worst] - vals[worst], worst)
    return None


def level_sets(ratio: np.ndarray):
    """Lower level sets of ``ratio`` as boolean vectors, ascending."""
    order = np.argsort(ratio, kind="stable")
    sorted_ratio = ratio[order]
    gap = REL_TOL * max(1.0, float(np.abs(sorted_ratio).max()))
    ends = list(np.nonzero(np.diff(sorted_ratio) > gap)[0] + 1)
    ends.append(len(order))
    sets = []
    for end in ends:
        members = np.zeros(len(ratio), dtype=bool)
        members[order[:end]] = True
        sets.append((float(sorted_ratio[end - 1]), members))
    return sets


def egalitarian(model: Model, r) -> str | None:
    """r is the weighted egalitarian point of the model's region."""
    reason = membership(model, r)
    if reason:
        return reason
    r = np.asarray(r, dtype=float)
    tol = _tol(model)
    for level, members in level_sets(r / model.w):
        slack = entropy(model, members) - float(r[members].sum())
        if abs(slack) > tol:
            return "level set at ratio %.6g is not tight (slack %.6g)" % (
                level, slack)
    return None


def shapley(model: Model, r) -> str | None:
    observers = model.obs.sum(axis=0)
    share = np.where(observers > 0, model.h / np.maximum(observers, 1), 0.0)
    expected = model.obs.astype(float) @ share
    r = np.asarray(r, dtype=float)
    if r.shape != expected.shape:
        return "Shapley vector has the wrong length"
    err = float(np.max(np.abs(r - expected)))
    if err > _tol(model):
        return "Shapley value off by %.6g" % err
    return None


def decomposition(model: Model, r, critical_values, chain) -> str | None:
    """chain[j] (boolean vectors) against certified egalitarian rates r."""
    r = np.asarray(r, dtype=float)
    lam = np.asarray(critical_values, dtype=float)
    if len(lam) == 0 or len(lam) != len(chain):
        return "chain and critical values differ in length"
    if np.any(np.diff(lam) <= 0.0):
        return "critical values do not increase strictly"
    expected = level_sets(r / model.w)
    if len(expected) != len(lam):
        return "%d critical values but the rates have %d levels" % (
            len(lam), len(expected))
    tol = _tol(model)
    rebuilt = np.zeros_like(r)
    previous = np.zeros(len(r), dtype=bool)
    for j, ((level, members), got) in enumerate(zip(expected, chain)):
        if not np.array_equal(members, got):
            return "chain set %d is not the level set at ratio %.6g" % (
                j + 1, level)
        rebuilt[got & ~previous] = lam[j] * model.w[got & ~previous]
        previous = got
    err = float(np.max(np.abs(rebuilt - r)))
    if err > tol:
        return "chain rebuilds the rates only to %.6g" % err
    return None
