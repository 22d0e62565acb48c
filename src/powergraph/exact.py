"""Exact minimum (weighted) vertex cover and dominating set solvers.

Both are branch-and-bound searches with standard reductions; they are meant
for desk-scale instances and refuse anything larger than a configurable
vertex cap.  With a fixed input the returned optimum is deterministic: the
first optimal solution found under the (deterministic) branch order is kept.
"""

from fractions import Fraction

from .errors import SizeCapError
from .graph import DS1, VC1, make_solution

DEFAULT_CAP = 64


def exact_mvc(g, cap=DEFAULT_CAP):
    """Minimum-weight vertex cover of g itself (apply to square(g) for VC2).

    The size guard counts non-isolated vertices, since isolated vertices
    never enter a cover.
    """
    active = [v for v in range(g.n) if g.adj[v]]
    if len(active) > cap:
        raise SizeCapError(
            f"{len(active)} non-isolated vertices exceeds cap {cap}"
        )
    adj = {v: set(g.adj[v]) for v in active}
    chosen = set()
    # zero-weight vertices are free: take any that covers an edge
    if g.weights is not None:
        for v in sorted(adj):
            if v in adj and g.weight(v) == 0 and adj[v]:
                _take_into_cover(adj, chosen, v)

    best = _MvcBest()
    _mvc_branch(g, adj, chosen, g.total_weight(chosen), best)
    return make_solution(g, VC1, best.members)


class _MvcBest:
    def __init__(self):
        self.weight = None
        self.members = None

    def offer(self, weight, members):
        if self.weight is None or weight < self.weight:
            self.weight = weight
            self.members = set(members)


def _take_into_cover(adj, chosen, v):
    chosen.add(v)
    for u in list(adj[v]):
        adj[u].discard(v)
        if not adj[u]:
            del adj[u]
    del adj[v]


def _mvc_reduce(g, adj, chosen):
    """Apply degree-0/degree-1/domination rules until none fires."""
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v not in adj:
                continue
            deg = len(adj[v])
            if deg == 0:
                del adj[v]
                changed = True
            elif deg == 1:
                u = next(iter(adj[v]))
                # the edge needs v or u; u is never worse when not heavier
                if g.weight(u) <= g.weight(v):
                    _take_into_cover(adj, chosen, u)
                    changed = True
        if changed:
            continue
        # domination: edge (u,v) with N(v)\{u} subseteq N(u) and w(u)<=w(v)
        for v in sorted(adj):
            if v not in adj:
                continue
            for u in sorted(adj[v]):
                if u not in adj:
                    continue
                if g.weight(u) <= g.weight(v) and adj[v] - {u} <= adj[u]:
                    _take_into_cover(adj, chosen, u)
                    changed = True
                    break
            if changed:
                break


def _mvc_lower_bound(g, adj):
    """Greedy matching bound: disjoint edges each need min-endpoint weight."""
    used = set()
    lb = Fraction(0)
    for v in sorted(adj):
        if v in used:
            continue
        for u in adj[v]:
            if u not in used and u > v:
                lb += min(g.weight(u), g.weight(v))
                used.add(u)
                used.add(v)
                break
    return lb


def _mvc_branch(g, adj, chosen, weight, best):
    adj = {v: set(s) for v, s in adj.items()}
    chosen = set(chosen)
    _mvc_reduce(g, adj, chosen)
    weight = g.total_weight(chosen)
    if not adj:
        best.offer(weight, chosen)
        return
    if best.weight is not None and weight + _mvc_lower_bound(g, adj) >= best.weight:
        return
    # branch on a max-degree vertex (smallest id on ties)
    v = max(sorted(adj), key=lambda u: len(adj[u]))
    v = min(u for u in adj if len(adj[u]) == len(adj[v]))
    # branch 1: v in the cover
    a1 = {u: set(s) for u, s in adj.items()}
    c1 = set(chosen)
    _take_into_cover(a1, c1, v)
    _mvc_branch(g, a1, c1, weight + g.weight(v), best)
    # branch 2: v excluded, so all its neighbors join
    a2 = {u: set(s) for u, s in adj.items()}
    c2 = set(chosen)
    for u in sorted(adj[v]):
        if u in a2:
            _take_into_cover(a2, c2, u)
    _mvc_branch(g, a2, c2, g.total_weight(c2), best)


def exact_mds(g, cap=DEFAULT_CAP):
    """Minimum-weight dominating set of g itself (use square(g) for DS2)."""
    if g.n > cap:
        raise SizeCapError(f"{g.n} vertices exceeds cap {cap}")
    closed = {v: frozenset(g.adj[v]) | {v} for v in range(g.n)}
    candidates = {v: set(closed[v]) for v in range(g.n)}
    uncovered = set(range(g.n))
    chosen = set()
    # zero-weight candidates are free
    if g.weights is not None:
        for v in range(g.n):
            if g.weight(v) == 0:
                chosen.add(v)
                uncovered -= closed[v]

    best = _MvcBest()
    _mds_branch(g, candidates, uncovered, chosen, best)
    return make_solution(g, DS1, best.members)


def _mds_reduce(g, candidates, uncovered, chosen):
    """Forced-choice and dominance reductions for the covering search."""
    changed = True
    while changed:
        changed = False
        for v in list(candidates):
            candidates[v] &= uncovered
        # forced: an uncovered element with a single remaining candidate
        for e in sorted(uncovered):
            covers = [v for v in candidates if e in candidates[v]]
            if len(covers) == 1:
                v = covers[0]
                chosen.add(v)
                uncovered -= candidates[v]
                del candidates[v]
                changed = True
                break
        if changed:
            continue
        # candidate dominance: drop u when some v covers a superset no heavier
        items = sorted(candidates)
        for u in items:
            cu = candidates[u]
            for v in items:
                if v == u or v not in candidates or u not in candidates:
                    continue
                if cu <= candidates[v] and g.weight(v) <= g.weight(u):
                    if cu == candidates[v] and g.weight(v) == g.weight(u) and v > u:
                        continue  # keep the smaller id
                    del candidates[u]
                    changed = True
                    break
        if changed:
            continue
        # element dominance: drop e when covering e' always covers e too
        cover_of = {
            e: frozenset(v for v in candidates if e in candidates[v])
            for e in uncovered
        }
        for e in sorted(uncovered):
            for e2 in sorted(uncovered):
                if e2 == e:
                    continue
                if cover_of[e2] <= cover_of[e]:
                    if cover_of[e2] == cover_of[e] and e2 > e:
                        continue
                    uncovered.discard(e)
                    changed = True
                    break
            if changed:
                break


def _mds_lower_bound(g, candidates, uncovered):
    """Pick elements with pairwise-disjoint candidate sets; weights add up."""
    cover_of = {}
    for e in uncovered:
        cover_of[e] = [v for v in candidates if e in candidates[v]]
    lb = Fraction(0)
    blocked = set()
    for e in sorted(uncovered, key=lambda e: (len(cover_of[e]), e)):
        cands = cover_of[e]
        if not cands or any(v in blocked for v in cands):
            continue
        lb += min(g.weight(v) for v in cands)
        blocked.update(cands)
    return lb


def _mds_branch(g, candidates, uncovered, chosen, best):
    candidates = {v: set(s) for v, s in candidates.items()}
    uncovered = set(uncovered)
    chosen = set(chosen)
    _mds_reduce(g, candidates, uncovered, chosen)
    weight = g.total_weight(chosen)
    if not uncovered:
        best.offer(weight, chosen)
        return
    if best.weight is not None and weight + _mds_lower_bound(g, candidates, uncovered) >= best.weight:
        return
    # branch on the hardest element: fewest candidates, smallest id on ties
    def key(e):
        return (sum(1 for v in candidates if e in candidates[v]), e)

    e = min(uncovered, key=key)
    covers = sorted(v for v in candidates if e in candidates[v])
    if not covers:
        return  # infeasible along this branch
    for v in covers:
        c2 = {u: set(s) for u, s in candidates.items()}
        u2 = uncovered - c2[v]
        ch2 = chosen | {v}
        del c2[v]
        _mds_branch(g, c2, u2, ch2, best)
