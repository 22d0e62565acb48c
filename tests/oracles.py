"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (subset enumeration, BFS distances)
so that expected values do not depend on the package's own solvers.
"""

import itertools
import math
import random
from fractions import Fraction


def bfs_dist_le2_edges(n, edges):
    """Edge set of the square graph, computed from BFS distances."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = set()
    for u in range(n):
        reach = set(adj[u])
        for w in adj[u]:
            reach |= adj[w]
        reach.discard(u)
        for v in reach:
            if u < v:
                out.add((u, v))
    return out


def brute_min_vc(n, edges, weights=None):
    """Minimum (weighted) vertex cover value by subset enumeration."""
    best = None
    verts = list(range(n))
    if weights is None:
        for k in range(n + 1):
            for sub in itertools.combinations(verts, k):
                s = set(sub)
                if all(u in s or v in s for u, v in edges):
                    return k
        return n
    for k in range(n + 1):
        for sub in itertools.combinations(verts, k):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                w = sum((Fraction(weights[v]) for v in s), Fraction(0))
                if best is None or w < best:
                    best = w
    return best


def milp_min_vc(g):
    """Minimum vertex cover value of g (integral weights) by scipy's MILP
    solver: a 0/1 variable per vertex and x_u + x_v >= 1 per edge."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges = list(g.edges())
    rows = np.zeros((len(edges), g.n))
    for i, (u, v) in enumerate(edges):
        rows[i, u] = rows[i, v] = 1
    cost = np.array([float(g.weight(v)) for v in range(g.n)])
    res = milp(cost, constraints=LinearConstraint(rows, lb=1),
               integrality=np.ones(g.n), bounds=Bounds(0, 1))
    assert res.success, res.message
    return round(res.fun)


def brute_min_ds(n, edges, weights=None):
    """Minimum (weighted) dominating set value by subset enumeration."""
    adj = {v: {v} for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for k in range(n + 1):
        for sub in itertools.combinations(range(n), k):
            s = set(sub)
            if all(adj[v] & s for v in range(n)):
                if weights is None:
                    return k
                w = sum((Fraction(weights[v]) for v in s), Fraction(0))
                if best is None or w < best:
                    best = w
    return best


def r_covering_holds_by_subsets(sets, universe, r):
    """The r-covering property by walking every r-subset of the 2t sets
    and their complements, skipping those that repeat an index."""
    sets = [frozenset(s) for s in sets]
    full = frozenset(range(1, universe + 1))
    labeled = []
    for i, s in enumerate(sets):
        labeled.append((i, s))
        labeled.append((i, full - s))
    for combo in itertools.combinations(labeled, r):
        indices = [i for i, _ in combo]
        if len(set(indices)) < len(indices):
            continue  # includes a complementary pair (or a repeat)
        union = frozenset().union(*(s for _, s in combo))
        if union == full:
            return False
    return True


def random_connected_gnp(n, p, seed):
    """Seeded G(n,p) conditioned on connectivity (resamples until connected)."""
    rng = random.Random(seed)
    for _ in range(10000):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            return edges
    raise RuntimeError("could not sample a connected graph")


def sparse_connected(n, avg_degree, rng):
    """A random recursive tree plus uniform random edges, up to
    n * avg_degree / 2 edges in total; connected by construction.  Raises
    ValueError when a simple graph on n vertices has fewer edges."""
    target = round(n * avg_degree / 2)
    if target > n * (n - 1) // 2:
        raise ValueError(f"{target} edges do not fit a simple graph on {n} vertices")
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def sampled_2hop_estimates(g, U, r, seed):
    """Minimum-of-exponentials estimates of |N2[v] & U|, computed centrally.

    Each u in U draws r exponentials from random.Random((seed << 32) ^
    0x5EED ^ u), rounded to fixed point with 2 * ceil(log2(n + 1)) - 5
    fraction bits (at least 1) and clamped to [1, 2^(2 bits) - 1].  v's
    estimate is r divided by the sum over samples of the least draw within
    two hops, or 0 when no vertex of U is within two hops.
    """
    bits = max(1, math.ceil(math.log2(g.n + 1)))
    frac = max(1, 2 * bits - 5)
    top = 2 ** (2 * bits) - 1
    draws = {}
    for u in U:
        rng = random.Random((int(seed) << 32) ^ 0x5EED ^ u)
        draws[u] = [
            min(max(round(math.ldexp(-math.log(1.0 - rng.random()), frac)), 1), top)
            for _ in range(r)
        ]
    out = []
    for v in range(g.n):
        ball = {v}.union(g.adj[v], *(g.adj[u] for u in g.adj[v]))
        holders = ball & set(U)
        if not holders:
            out.append(Fraction(0))
            continue
        total = sum(min(draws[u][i] for u in holders) for i in range(r))
        out.append(Fraction(r * 2 ** frac, total))
    return out


def fold_by_zip(msgs, best=None):
    """Reference for `_SampleMinProgram._fold`: the per-sample minimum of
    the (hi, lo) word pairs of msgs and the running best, read with
    zip(i, i) and min, which compares each pair as a tuple.  None when
    there is nothing to fold; a lone message is returned as is."""
    msgs = list(msgs)
    if best is not None:
        msgs.append(best)
    if len(msgs) < 2:  # map(min, pairs) would reduce within each pair
        return msgs[0] if msgs else None
    # zip(i, i) reads i left to right: one (hi, lo) pair per sample
    pairs = [zip(i, i) for i in map(iter, msgs)]
    return tuple(itertools.chain.from_iterable(map(min, *pairs)))


def draw_words_by_divmod(rng, count, frac_bits, bits):
    """Reference for `_draw_words`: count inverse-CDF exponentials from
    rng, rounded to frac_bits fraction bits, clamped to [1, 2^(2 bits) - 1]
    and split by divmod into two words, most significant first."""
    scale, top, base = 1 << frac_bits, (1 << 2 * bits) - 1, 1 << bits
    words = []
    for _ in range(count):
        q = round(-math.log(1.0 - rng.random()) * scale)
        words += divmod(min(max(q, 1), top), base)
    return tuple(words)


def weight_classes(g, c, restrict=None):
    """Return (w_star, {class index -> member list}) for center c.

    w_star is the minimum positive weight in N(c); class i holds the
    neighbors u with w_star * 2^i <= w(u) < w_star * 2^(i+1).  Zero-weight
    vertices are excluded, since they are pre-added to any cover.
    restrict, when given, intersects the class membership (e.g. with the
    uncovered set).
    """
    nbrs = [u for u in g.adj[c] if g.weight(u) > 0]
    if not nbrs:
        return None, {}
    w_star = min(g.weight(u) for u in nbrs)
    if restrict is not None:
        nbrs = [u for u in nbrs if u in restrict]
    classes = {}
    for u in nbrs:
        i = 0
        while g.weight(u) >= w_star * 2 ** (i + 1):
            i += 1
        classes.setdefault(i, []).append(u)
    return w_star, classes


def class_selectable(g, members, eps):
    """Selection test: max weight <= (sum of weights) * eps/(1+eps)."""
    eps = Fraction(eps)
    if not members:
        return False
    w_max = max(g.weight(u) for u in members)
    total = sum((g.weight(u) for u in members), Fraction(0))
    return w_max <= total * eps / (1 + eps)


def dense_run(g, factory, model):
    """Reference for `powergraph.sim.run`: every node is stepped in every
    sweep, mail or not, under the same stop and round-count rules.

    A program whose steps with an empty inbox before its `wake_at` do
    nothing gives the same outputs and RoundStats here as under `run`,
    which steps only nodes with mail or a due timer.
    """
    from powergraph.errors import InputError, RoundCapError
    from powergraph.sim import (
        CONGEST, NodeContext, RoundStats, default_round_cap, post, word_bits,
    )

    n = g.n
    bits = word_bits(n)
    round_cap = default_round_cap(n)
    programs = [factory(NodeContext(v, n, g.adj[v], model, bits)) for v in range(n)]
    congest = model.variant == CONGEST
    stats = RoundStats()
    inboxes = [{} for _ in range(n)]
    timer_due = False
    sweep = 0
    while True:
        if sweep >= round_cap:
            raise RoundCapError(f"no termination within {round_cap} rounds")
        next_inboxes = [{} for _ in range(n)]
        sent = False
        for v, p in enumerate(programs):
            outbox = p.step(sweep, inboxes[v]) or {}
            if outbox:
                longest = post(
                    v, outbox, next_inboxes, sweep, n,
                    set(g.adj[v]) if congest else None, bits, model.bandwidth_words,
                )
                stats.messages += len(outbox)
                stats.max_message_bits = max(stats.max_message_bits, longest * bits)
                sent = True
            if p.wake_at is not None and p.wake_at <= sweep:
                raise InputError(f"node {v} set wake_at {p.wake_at} in sweep {sweep}")
        if sent or timer_due:
            stats.rounds = sweep + 1
        timers = {p.wake_at for p in programs} - {None}
        if not (sent or timers):
            break
        sweep += 1
        timer_due = sweep in timers
        inboxes = next_inboxes
    return [p.output for p in programs], stats


def vc_53_by_sets(h):
    """Reference for `powergraph.mvc_centralized.vc_53_on_square`: the same
    three parts on a copy of h's adjacency as one set per vertex.

    Returns (cover, parts): parts maps V1..V3 and W1..W3 to vertex sets and
    R, R_prime to (vertex frozenset, edge frozenset) pairs.
    """
    parts = {k: set() for k in ("V1", "V2", "V3", "W1", "W2", "W3")}
    adj = {v: set(h.adj[v]) for v in range(h.n) if h.adj[v]}

    def snapshot():
        return (frozenset(adj),
                frozenset((u, v) for u in adj for v in adj[u] if u < v))

    def take_group(vs, part_v, part_w):
        touched = set()
        for v in vs:
            parts[part_v].add(v)
            parts[part_w].add(v)
            nbrs = adj.pop(v, ())
            for u in nbrs:
                adj[u].discard(v)
            touched.update(nbrs)
        for u in touched:
            if u in adj and not adj[u]:
                del adj[u]
                parts[part_w].add(u)

    # part 1: the smallest triangle (a, b, c) of the current graph, in id
    # order of a, then b, then c
    for a in sorted(adj):
        if a not in adj:
            continue
        for b in sorted(adj[a]):
            if b <= a:
                continue
            cands = [c for c in adj[a] & adj[b] if c > b]
            if cands:
                take_group((a, b, min(cands)), "V1", "W1")
                break
    parts["R"] = snapshot()

    # part 2: degrees 1-3, lowest degree first, smallest id ties
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
        take_group(chosen, "V2", "W2")
    parts["R_prime"] = snapshot()

    # part 3: greedy maximal matching, edges in lexicographic order
    parts["W3"] = set(adj)
    matched = set()
    for u, v in sorted(parts["R_prime"][1]):
        if u not in matched and v not in matched:
            matched.update((u, v))
    parts["V3"] = matched
    return parts["V1"] | parts["V2"] | parts["V3"], parts


def traced_peak(fn):
    """Peak bytes that Python allocates while fn() runs, by tracemalloc,
    above what was allocated before; works whether or not tracing is on."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
