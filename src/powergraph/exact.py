"""Exact minimum (weighted) vertex cover and dominating set solvers.

Both are branch-and-bound searches with standard reductions.  A search
that passes SEARCH_NODES nodes raises SizeCapError; the vertex cover
search is one per connected component, the dominating set search one per
call.  With a fixed input the returned optimum is deterministic: the first
optimal solution found under the (deterministic) branch order is kept.
"""

import math

from .errors import SizeCapError
from .graph import DS1, VC1, make_solution

SEARCH_NODES = 100_000


def exact_mvc(g):
    """Minimum-weight vertex cover of g itself (apply to square(g) for VC2).

    Each connected component is covered by a search of its own, of at most
    SEARCH_NODES nodes; isolated vertices never enter a cover.  The cover is
    the one a search of the whole graph would keep."""
    w = _int_weights(g)
    members = set()
    for comp in _components(g):
        adj = {v: set(g.adj[v]) for v in comp}
        chosen = set()
        # zero-weight vertices are free: take any that covers an edge
        for v in sorted(adj):
            if v in adj and w[v] == 0:
                _take_into_cover(adj, chosen, v)
        best = _Search(f"a component of {len(comp)} vertices")
        _mvc_search(w, adj, chosen, best)
        members |= best.members
    return make_solution(g, VC1, members)


def _int_weights(g):
    """g's weights as ints on one scale: all 1 when g is unweighted, else
    each weight times the lcm of the denominators.  A positive common scale
    keeps every comparison, so the searches keep the same optimum."""
    if g.weights is None:
        return [1] * g.n
    ws = [g.weights[v] for v in range(g.n)]
    scale = math.lcm(*(x.denominator for x in ws))
    return [x.numerator * (scale // x.denominator) for x in ws]


def _components(g):
    """Vertex lists of g's connected components that have an edge."""
    seen = set()
    comps = []
    for root in range(g.n):
        if root in seen or not g.adj[root]:
            continue
        seen.add(root)
        comp = [root]
        for u in comp:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(comp)
    return comps


class _Search:
    """The best solution one search has found, and its count of nodes."""

    def __init__(self, label):
        self.label = label
        self.weight = None
        self.members = None
        self.nodes = 0

    def visit(self):
        self.nodes += 1
        if self.nodes > SEARCH_NODES:
            raise SizeCapError(f"the search of {self.label} passed "
                               f"exact.SEARCH_NODES = {SEARCH_NODES} nodes")

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


def _mvc_reduce(w, adj, chosen):
    """Apply the degree-1 and domination rules until neither fires, in
    place.  A take by the domination rule starts both rules over; a pair
    is rejected on degree before its neighborhoods are compared.  No
    vertex in adj is isolated: _take_into_cover drops one with its last edge."""
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if v not in adj:
                continue
            if len(adj[v]) == 1:
                u = next(iter(adj[v]))
                # the edge needs v or u; u is never worse when not heavier
                if w[u] <= w[v]:
                    _take_into_cover(adj, chosen, u)
                    changed = True
        if changed:
            continue
        # domination: edge (u,v) with N(v)\{u} subseteq N(u) and w(u)<=w(v);
        # the scan stops at its first take, so adj does not change under it.
        # As u is in N(v) but not in N(u), the subset holds when N(v)\N(u)
        # is {u}; as v is in N(u) but not in N(v), it needs |N(u)| >= |N(v)|
        for v in sorted(adj):
            nv = adj[v]
            for u in sorted(nv):
                if (w[u] <= w[v] and len(adj[u]) >= len(nv)
                        and len(nv - adj[u]) == 1):
                    _take_into_cover(adj, chosen, u)
                    changed = True
                    break
            if changed:
                break


def _mvc_lower_bound(w, adj):
    """Greedy matching bound: disjoint edges each need min-endpoint weight."""
    used = set()
    lb = 0
    for v in sorted(adj):
        if v in used:
            continue
        for u in adj[v]:
            if u not in used and u > v:
                lb += min(w[u], w[v])
                used.add(u)
                used.add(v)
                break
    return lb


def _mvc_search(w, adj, chosen, best):
    """Search depth-first from one node; each node's adj and chosen change."""
    todo = [(adj, chosen)]
    while todo:
        adj, chosen = todo.pop()
        best.visit()
        _mvc_reduce(w, adj, chosen)
        weight = sum(w[v] for v in chosen)
        if not adj:
            best.offer(weight, chosen)
            continue
        if best.weight is not None and weight + _mvc_lower_bound(w, adj) >= best.weight:
            continue
        # branch on a max-degree vertex (smallest id on ties)
        v = min(adj, key=lambda u: (-len(adj[u]), u))
        # branch 1: v in the cover
        a1 = {u: set(s) for u, s in adj.items()}
        c1 = set(chosen)
        _take_into_cover(a1, c1, v)
        # branch 2: v excluded, so all its neighbors join
        for u in sorted(adj[v]):
            if u in adj:
                _take_into_cover(adj, chosen, u)
        todo += [(adj, chosen), (a1, c1)]  # branch 1 is searched first


def exact_mds(g):
    """Minimum-weight dominating set of g itself (use square(g) for DS2),
    found by one search of the whole graph, of at most SEARCH_NODES nodes."""
    closed = {v: frozenset(g.adj[v]) | {v} for v in range(g.n)}
    candidates = {v: set(closed[v]) for v in range(g.n)}
    uncovered = set(range(g.n))
    chosen = set()
    w = _int_weights(g)
    # zero-weight candidates are free
    for v in range(g.n):
        if w[v] == 0:
            chosen.add(v)
            uncovered -= closed[v]

    best = _Search(f"{g.n} vertices")
    _mds_search(w, candidates, uncovered, chosen, best)
    return make_solution(g, DS1, best.members)


def _mds_reduce(w, candidates, uncovered, chosen):
    """Forced-choice and dominance reductions for the covering search, in
    place; returns each uncovered element's set of the candidates that
    cover it.

    The rules fire in this order, and each change goes back to the first:
    a forced pick, one sweep of candidate dominance, then element dominance
    one element at a time.  The map is built once and kept current.  Only a
    candidate whose set shrank is tested again: its rivals only shrink or
    leave, so a candidate that was not dominated still is not.  Dropping an
    element changes no other element's candidates, so the element scan
    resumes past it unless a candidate was deleted since."""
    cover = {e: set() for e in uncovered}
    for v, cv in candidates.items():
        cv &= uncovered
        for e in cv:
            cover[e].add(v)
    single = {e for e in uncovered if len(cover[e]) == 1}
    stale = set(candidates)  # candidates to test for dominance
    scan = None  # the element dominance scan, and how far it got
    while True:
        # forced: an uncovered element with a single remaining candidate.
        # A pick changes no cover set that is left, so only a deletion
        # below makes another element single; a pick never comes between
        # two steps of the element scan.
        if single:
            (v,) = cover[min(single)]
            chosen.add(v)
            cv = candidates.pop(v)
            uncovered -= cv
            single -= cv
            stale.discard(v)
            for e in cv:
                for u in cover.pop(e):
                    if u != v:
                        candidates[u].discard(e)
                        stale.add(u)
            continue
        # candidate dominance: drop u when some v covers a superset no
        # heavier, keeping the smaller id of two equals.  Such a v covers
        # each element of u's set, so one element's cover lists them all;
        # an empty set needs the full scan.
        deleted = False
        for u in sorted(stale):
            cu = candidates[u]
            rivals = cover[next(iter(cu))] if cu else candidates
            if any(v != u and v in candidates and w[v] <= w[u]
                   and cu <= candidates[v]
                   and not (cu == candidates[v] and w[v] == w[u] and v > u)
                   for v in rivals):
                del candidates[u]
                for e in cu:
                    cover[e].discard(u)
                    if len(cover[e]) == 1:
                        single.add(e)
                deleted = True
        stale.clear()
        if deleted:
            scan = None
            continue
        # element dominance: drop e when covering e2 always covers e too
        if scan is None:
            scan = iter(sorted(uncovered))
        for e in scan:
            ce = cover[e]
            if any(cover[e2] < ce or (cover[e2] == ce and e2 < e)
                   for e2 in uncovered):
                uncovered.discard(e)
                for u in cover.pop(e):
                    candidates[u].discard(e)
                    stale.add(u)
                break
        else:
            return cover


def _mds_lower_bound(w, cover):
    """Pick elements with pairwise-disjoint candidate sets; weights add up."""
    lb = 0
    blocked = set()
    for e in sorted(cover, key=lambda e: (len(cover[e]), e)):
        cands = cover[e]
        if not cands or not blocked.isdisjoint(cands):
            continue
        lb += min(w[v] for v in cands)
        blocked |= cands
    return lb


def _mds_search(w, candidates, uncovered, chosen, best):
    """Search depth-first from one node; each node's arguments change."""
    todo = [(candidates, uncovered, chosen)]
    while todo:
        candidates, uncovered, chosen = todo.pop()
        best.visit()
        cover = _mds_reduce(w, candidates, uncovered, chosen)
        weight = sum(w[v] for v in chosen)
        if not uncovered:
            best.offer(weight, chosen)
            continue
        if best.weight is not None and weight + _mds_lower_bound(w, cover) >= best.weight:
            continue
        # branch on the hardest element: fewest candidates, smallest id on ties
        e = min(uncovered, key=lambda e: (len(cover[e]), e))
        for v in sorted(cover[e], reverse=True):  # none: infeasible here
            c2 = {u: set(s) for u, s in candidates.items()}
            todo.append((c2, uncovered - c2.pop(v), chosen | {v}))
