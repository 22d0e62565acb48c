"""Core graph type, square-graph construction, and feasibility checks.

Vertices are 0..n-1.  Graphs are simple and undirected; weights, when
present, are nonnegative rationals (stored as Fraction).
"""

from fractions import Fraction

from .errors import ContractError, InputError

# Solution kinds: cover/dominating set of the graph itself or of its square.
VC1 = "vc1"
DS1 = "ds1"
VC2 = "vc2"
DS2 = "ds2"
SOLUTION_KINDS = (VC1, DS1, VC2, DS2)


class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj", "weights", "_m")

    def __init__(self, n, edges, weights=None):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        nbrs = [set() for _ in range(n)]
        m = 0
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if v in nbrs[u]:
                raise InputError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
            m += 1
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self._m = m
        if weights is None:
            self.weights = None
        else:
            w = {}
            for v in range(n):
                if v not in weights:
                    raise InputError(f"missing weight for vertex {v}")
                wv = Fraction(weights[v])
                if wv < 0:
                    raise InputError(f"negative weight at vertex {v}")
                w[v] = wv
            self.weights = w

    @classmethod
    def _from_adjacency(cls, n, adj, m, weights):
        """A graph from adjacency tuples that are sorted, symmetric and
        loop-free by construction, and weights already stored as Fractions."""
        g = cls.__new__(cls)
        g.n, g.adj, g._m, g.weights = n, adj, m, weights
        return g

    @property
    def m(self):
        return self._m

    def edges(self):
        """Yield edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v):
        return len(self.adj[v])

    def weight(self, v):
        if self.weights is None:
            return Fraction(1)
        return self.weights[v]

    def total_weight(self, members):
        """Total weight of a collection of distinct vertices: an int (the
        count) when unweighted, else a Fraction."""
        if self.weights is None:
            return len(members)
        return sum((self.weight(v) for v in members), Fraction(0))

    def is_connected(self):
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


def square(g):
    """Return G^2: same vertices and weights, edge iff dist_G(u,v) <= 2."""
    adj = []
    for u, nbrs in enumerate(g.adj):
        two_hop = set(nbrs).union(*[g.adj[w] for w in nbrs])
        two_hop.discard(u)
        adj.append(tuple(sorted(two_hop)))
    m = sum(map(len, adj)) // 2
    return Graph._from_adjacency(
        g.n, tuple(adj), m, dict(g.weights) if g.weights else None)


class Solution:
    """A candidate vertex set with its kind and total weight."""

    __slots__ = ("kind", "members", "value")

    def __init__(self, kind, members, value):
        if kind not in SOLUTION_KINDS:
            raise InputError(f"unknown solution kind {kind!r}")
        self.kind = kind
        self.members = frozenset(members)
        self.value = value

    def __repr__(self):
        return f"Solution({self.kind}, size={len(self.members)}, value={self.value})"


def make_solution(g, kind, members):
    members = frozenset(members)
    for v in members:
        if not (0 <= v < g.n):
            raise InputError(f"solution member {v} out of range")
    return Solution(kind, members, g.total_weight(members))


def is_feasible(g, kind, members):
    """Check whether `members` is a feasible solution of the given kind on g."""
    if kind not in SOLUTION_KINDS:
        raise InputError(f"unknown solution kind {kind!r}")
    members = set(members)
    for v in members:
        if not (0 <= v < g.n):
            raise InputError(f"solution member {v} out of range")
    if kind == VC1:
        return all(u in members or v in members for (u, v) in g.edges())
    if kind == VC2:
        # the non-members must be independent in G^2: no non-member has a
        # non-member neighbor, and no vertex has two non-member neighbors
        for v, nbrs in enumerate(g.adj):
            outside = [u for u in nbrs if u not in members]
            if len(outside) > 1 or (outside and v not in members):
                return False
        return True
    # near[v]: N[v] holds a member; v is dominated in G^2 iff near holds
    # at v or at one of its neighbors
    near = [v in members or any(u in members for u in nbrs)
            for v, nbrs in enumerate(g.adj)]
    if kind == DS1:
        return all(near)
    return all(near[v] or any(near[u] for u in nbrs)
               for v, nbrs in enumerate(g.adj))


def matching_2approx(g):
    """Greedy maximal matching; both endpoints form a vertex cover <= 2*OPT.

    Edges are scanned in lexicographic order, so the result is deterministic.
    """
    if g.weights is not None:
        raise ContractError("matching_2approx is defined for unweighted graphs")
    matched = [False] * g.n
    cover = set()
    for u in range(g.n):
        if matched[u]:
            continue
        for v in g.adj[u]:
            if v > u and not matched[v]:
                matched[u] = matched[v] = True
                cover.add(u)
                cover.add(v)
                break
    return make_solution(g, VC1, cover)
