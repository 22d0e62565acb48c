"""Polynomial 5/3-approximation for vertex cover on square graphs.

The core routine works on an already-squared graph H in three parts:
greedy removal of vertex-disjoint triangles, elimination of vertices of
degree at most three by fixed case rules, and a matching-based
2-approximation on the residual graph (which has minimum degree 4).
A distributed hybrid runs the same routine at a leader on H = G^2[U]
after the (1+eps) clustering phase with eps = 1/2.
"""

from fractions import Fraction

from .errors import InputError
from .graph import VC2, Graph, make_solution, matching_2approx, square
from .mvc_distributed import check_input, leader_phase2, phase1_unweighted
from .sim import CONGEST, Model


class PhaseTrace:
    """Per-part bookkeeping: cover vertices V1..V3, vertices leaving the
    working graph W1..W3, and residual snapshots R (after part 1) and
    R_prime (after part 2), each a (vertex set, edge set) pair."""

    def __init__(self):
        self.V1 = set()
        self.V2 = set()
        self.V3 = set()
        self.W1 = set()
        self.W2 = set()
        self.W3 = set()
        self.R = (frozenset(), frozenset())
        self.R_prime = (frozenset(), frozenset())

    @property
    def s1(self):
        return len(self.V1)

    @property
    def s2(self):
        return len(self.V2)

    @property
    def s3(self):
        return len(self.V3)

    def cover(self):
        return self.V1 | self.V2 | self.V3


def _snapshot(adj):
    verts = frozenset(adj)
    edges = frozenset(
        (u, v) for u in adj for v in adj[u] if u < v
    )
    return verts, edges


def vc_53_on_square(h):
    """Run the three-part cover routine on a squared graph h, treating
    all its edges alike.  Returns (cover set, PhaseTrace).

    Part 1 reads h's adjacency tuples; only the vertices left after it get
    a mutable neighbor set, so the extra memory is O(n) plus that residual.
    """
    if h.weights is not None:
        raise InputError("g2mvc_53 is unweighted")
    trace = PhaseTrace()
    nbrs = h.adj

    # part 1: remove vertex-disjoint triangles, smallest triple first.
    # Removing vertices never creates a triangle, so one pass in id order
    # takes the same triples as rescanning after every take.  gone[v] marks
    # a taken or isolated vertex, left[v] counts v's neighbors not gone, and
    # near[c] == a while a scans and c is a neighbor of a.  A vertex
    # isolated in h from the start is gone but never joins W1.
    left = [len(t) for t in nbrs]
    gone = bytearray(not d for d in left)
    near = [-1] * h.n
    for a in range(h.n):
        if gone[a]:
            continue
        for c in nbrs[a]:
            near[c] = a
        for b in nbrs[a]:
            if b <= a or gone[b]:
                continue
            c = next((c for c in nbrs[b]
                      if c > b and near[c] == a and not gone[c]), None)
            if c is None:
                continue
            triple = (a, b, c)
            trace.V1.update(triple)
            trace.W1.update(triple)
            for v in triple:
                gone[v] = 1
            for v in triple:
                for u in nbrs[v]:
                    if not gone[u]:
                        left[u] -= 1
                        if not left[u]:
                            gone[u] = 1
                            trace.W1.add(u)
            break
    adj = {v: {u for u in nbrs[v] if not gone[u]}
           for v in range(h.n) if not gone[v]}
    trace.R = _snapshot(adj)

    def take_group(vs, part_v, part_w):
        # all of vs enter the cover together, then isolated leftovers leave;
        # only a dropped vertex's former neighbors can become isolated
        touched = set()
        for v in vs:
            part_v.add(v)
            part_w.add(v)
            us = adj.pop(v, ())
            for u in us:
                adj[u].discard(v)
            touched.update(us)
        for u in touched:
            if u in adj and not adj[u]:
                del adj[u]
                part_w.add(u)

    # part 2: eliminate degrees 1-3, lowest degree first, smallest id ties
    while True:
        low = [(len(adj[v]), v) for v in adj if len(adj[v]) <= 3]
        if not low:
            break
        deg, x = min(low)
        if deg == 1:
            (y,) = adj[x]
            chosen = [y]
        elif deg == 2:
            y1, y2 = sorted(adj[x])
            z_opts = sorted(adj[y1] - {x})
            chosen = z_opts[:1] + [y1, y2]
        else:
            y1, y2, y3 = sorted(adj[x])
            excl = {x, y1, y2, y3}
            z1_opts = sorted(adj[y1] - excl)
            z1 = z1_opts[0] if z1_opts else None
            z2_opts = sorted(adj[y2] - excl - {z1})
            z2 = z2_opts[0] if z2_opts else None
            chosen = [y1, y2, y3] + [z for z in (z1, z2) if z is not None]
        take_group(chosen, trace.V2, trace.W2)
    trace.R_prime = _snapshot(adj)

    # part 3: 2-approximation by maximal matching on the residual graph
    trace.W3 = set(adj)
    rows = [()] * h.n
    for v, us in adj.items():
        rows[v] = tuple(sorted(us))
    residual = Graph._from_adjacency(
        h.n, tuple(rows), len(trace.R_prime[1]), None)
    trace.V3 = set(matching_2approx(residual).members)
    return trace.cover(), trace


def g2mvc_53(g):
    """5/3-approximate vertex cover of G^2, centralized and polynomial."""
    cover, trace = vc_53_on_square(square(g))
    return make_solution(g, VC2, cover), trace


def g2mvc_hybrid(g, model=None, seed=0):
    """Distributed 5/3-approximation in O(n) rounds: clustering phase with
    eps = 1/2, then the leader runs the three-part routine on H = G^2[U].
    Deterministic: `seed` is ignored."""
    check_input(g, "g2mvc_hybrid")
    if model is None:
        model = Model(CONGEST)
    S, _, stats = phase1_unweighted(g, Fraction(1, 2), model)
    return leader_phase2(g, S, model, lambda H: vc_53_on_square(H)[0], stats)
