"""Seeded graph generators for the benchmark corpus.

Every generator takes a ``random.Random`` and returns plain edge lists, so
the same seed gives the same corpus and the package under test receives
only the generated graphs.
"""


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def sparse_connected(n, avg_degree, rng):
    """A random recursive tree plus uniform random edges, up to
    ``n * avg_degree / 2`` edges in total; connected by construction."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    target = round(n * avg_degree / 2)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def add_hub(n, edges, rng):
    """Join one random vertex to every other vertex."""
    h = rng.randrange(n)
    return sorted(set(edges) | {(min(h, v), max(h, v)) for v in range(n) if v != h})


def gnp_connected(n, p, rng):
    """G(n, p), resampled until connected (p must be well above ln n / n)."""
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        if _connected(n, edges):
            return edges


def vertex_weights(n, top, rng):
    return [rng.randint(1, top) for _ in range(n)]


def bits(length, rng):
    return [rng.randint(0, 1) for _ in range(length)]


def string_pair(length, intersect, rng):
    """Bit strings x, y that share a 1 exactly when ``intersect``."""
    x = bits(length, rng)
    if intersect:
        i = rng.randrange(length)
        x[i] = 1
        y = bits(length, rng)
        y[i] = 1
    else:
        y = [0 if a else rng.randint(0, 1) for a in x]
    return x, y


def to_hex(bitlist):
    """Hex encoding read by ``powergraph gen lb``: bit t is bitlist[t]."""
    return format(sum(b << t for t, b in enumerate(bitlist)), "x")
