"""Reference computations for the benchmark's correctness checks.

Nothing here imports powergraph: the checks must not trust the code they
check.  Graphs are plain ``(n, edges, weights)`` triples, with ``weights``
either None or a list of numbers indexed by vertex.
"""

import heapq
import math
from fractions import Fraction


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def square_adjacency(n, edges):
    """G^2 by a depth-2 breadth-first search from every vertex."""
    adj = adjacency(n, edges)
    sq = []
    for s in range(n):
        seen = {s}
        frontier = [s]
        for _depth in range(2):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        seen.discard(s)
        sq.append(seen)
    return sq


def edges_of(adj):
    return [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]


def weight_of(members, weights):
    if weights is None:
        return len(members)
    return sum((Fraction(weights[v]) for v in members), Fraction(0))


def is_vertex_cover(adj, members):
    members = set(members)
    return all(u in members or v in members for u, v in edges_of(adj))


def is_dominating_set(adj, members):
    members = set(members)
    return all(v in members or adj[v] & members for v in range(len(adj)))


def clique_partition_bound(adj, weights=None):
    """Lower bound on the minimum vertex cover of a square graph.

    ``adj`` is the adjacency of G (not G^2).  Each closed neighbourhood N[c]
    of G is a clique of G^2, and a cover holds all but at most one vertex of
    a clique, so a partition of V into parts P_1..P_t with each P_i inside
    some N[c] bounds the optimum below by sum(w(P_i) - max w in P_i).  The
    parts are picked greedily, largest remaining neighbourhood first.
    """
    n = len(adj)
    w = [1] * n if weights is None else [Fraction(x) for x in weights]
    free = [True] * n
    heap = [(-(len(adj[c]) + 1), c) for c in range(n)]
    heapq.heapify(heap)
    bound = Fraction(0)
    while heap:
        neg, c = heapq.heappop(heap)
        part = [v for v in adj[c] | {c} if free[v]]
        if not part:
            continue
        if len(part) != -neg:  # stale key: re-queue with the current size
            heapq.heappush(heap, (-len(part), c))
            continue
        for v in part:
            free[v] = False
        bound += sum(w[v] for v in part) - max(w[v] for v in part)
    return bound


def harmonic(k):
    return sum(Fraction(1, i) for i in range(1, k + 1))


def _milp(n, rows, weights, time_limit):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    c = np.ones(n) if weights is None else np.array([float(x) for x in weights])
    data, cols, ptr = [], [], [0]
    for row in rows:
        cols.extend(row)
        data.extend([1.0] * len(row))
        ptr.append(len(cols))
    a = csr_matrix((data, cols, ptr), shape=(len(rows), n))
    res = milp(
        c,
        constraints=LinearConstraint(a, lb=np.ones(len(rows)), ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    if res.status != 0:
        raise RuntimeError(f"milp did not reach an optimum: {res.message}")
    value = round(res.fun)
    if abs(res.fun - value) > 1e-6:
        raise RuntimeError(f"fractional optimum {res.fun} for integer weights")
    return value


def min_vertex_cover(adj, weights=None, time_limit=60.0):
    """Exact optimum by integer programming (HiGHS through scipy)."""
    return _milp(len(adj), [[u, v] for u, v in edges_of(adj)], weights, time_limit)


def min_dominating_set(adj, weights=None, time_limit=60.0):
    rows = [sorted(adj[v] | {v}) for v in range(len(adj))]
    return _milp(len(adj), rows, weights, time_limit)


def word_bits(n):
    return max(1, math.ceil(math.log2(n + 1)))


def parse_graph_file(path):
    """Independent reader for the ``p``/``w``/``e`` graph format."""
    n = None
    weights = None
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[1])
                if len(parts) == 4:
                    weights = [None] * n
            elif parts[0] == "w":
                weights[int(parts[1])] = Fraction(parts[2])
            elif parts[0] == "e":
                edges.append((int(parts[1]), int(parts[2])))
    return n, edges, weights


def threshold_errors(label, opt, thresholds, intersect):
    """The optimum must cross the family's threshold exactly when the two
    strings intersect."""
    if "value" in thresholds:
        if (opt <= thresholds["value"]) != intersect:
            return [f"{label}: optimum {opt} vs threshold "
                    f"{thresholds['value']} with intersect={intersect}"]
        return []
    if intersect and opt > thresholds["low"]:
        return [f"{label}: optimum {opt} above low {thresholds['low']}"]
    if not intersect and opt < thresholds["high"]:
        return [f"{label}: optimum {opt} below high {thresholds['high']}"]
    return []
