"""Lower-bound graph families and hardness-reduction transforms.

Each generator builds a two-party instance: a graph whose edges depend on
two bit strings x and y, a vertex partition (side A sees only x, side B
only y), and a threshold so that the optimum crosses the threshold exactly
when the strings intersect.  The base families pose the problem on the
graph itself; the square families rebuild them out of path gadgets so that
the same question becomes a cover/domination problem on the square graph.

A vertex's side is fixed when it is created.  A gadget hung on existing
vertices (its anchors) takes side A when all its anchors are on side A,
and side B otherwise.

Gadget bookkeeping (which vertices form which path gadget, and what the
gadget is attached to) is kept on the instance so covers can be rewritten
into gadget-normal form and so instances can be serialized with their
structure intact.
"""

import itertools
import random
from fractions import Fraction

from .errors import ContractError, GenerationError, InputError
from .exact import exact_mds, exact_mvc
from .graph import DS2, VC2, Graph, is_feasible, square

SET_SYSTEM_TRIES = 500


def parse_bits(bits, length, label="bit string"):
    """Accept a 0/1 string or int sequence; return a tuple of ints."""
    vals = list(bits)
    if len(vals) != length:
        raise InputError(f"{label} must have length {length}, got {len(vals)}")
    out = []
    for b in vals:
        b = int(b)
        if b not in (0, 1):
            raise InputError(f"{label} entries must be 0 or 1")
        out.append(b)
    return tuple(out)


def disjoint(x, y):
    """Set disjointness: true iff no index carries a 1 in both strings."""
    return not any(a and b for a, b in zip(x, y))


class _Build:
    """Incremental builder mapping vertex names to ids and sides."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.part_a = set()
        self.edge_list = []
        self.edge_set = set()
        self.weights = {}
        self.x_edges = []
        self.y_edges = []

    def vertex(self, name, weight=None, side_a=False):
        if name in self.ids:
            raise InputError(f"duplicate vertex name {name!r}")
        vid = len(self.names)
        self.names.append(name)
        self.ids[name] = vid
        if weight is not None:
            self.weights[vid] = weight
        if side_a:
            self.part_a.add(vid)
        return vid

    def on_side_a(self, names):
        return all(self.ids[name] in self.part_a for name in names)

    def edge(self, a, b, tag=None):
        u, v = self.ids[a], self.ids[b]
        key = (min(u, v), max(u, v))
        if key in self.edge_set:
            raise InputError(f"duplicate edge {a!r}-{b!r}")
        self.edge_set.add(key)
        self.edge_list.append(key)
        if tag == "x":
            self.x_edges.append(key)
        elif tag == "y":
            self.y_edges.append(key)

    def instance(self, family, params, x, y, cut_cap, thresholds,
                 gadgets=None):
        """The finished instance; weighted iff some vertex got a weight."""
        n = len(self.names)
        weights = None
        if self.weights:
            weights = {v: self.weights.get(v, 1) for v in range(n)}
        return LowerBoundInstance(
            family, params, x, y, Graph(n, self.edge_list, weights=weights),
            self.names, self.part_a, cut_cap, thresholds, gadgets or {},
            self.x_edges, self.y_edges,
        )


class LowerBoundInstance:
    """A generated two-party instance with its partition and thresholds.

    thresholds carries: problem ("vc" or "ds"), power (1 = on the graph,
    2 = on its square), and either a single `value` (optimum <= value iff
    the strings intersect) or a `low`/`high` gap pair.
    """

    def __init__(self, family, params, x, y, graph, names, part_a, cut_cap,
                 thresholds, gadgets, x_edges, y_edges):
        self.family = family
        self.params = dict(params)
        self.x = x
        self.y = y
        self.graph = graph
        self.names = tuple(names)
        self.part_a = frozenset(part_a)
        self.part_b = frozenset(range(graph.n)) - self.part_a
        self.cut = tuple(
            e for e in graph.edges()
            if (e[0] in self.part_a) != (e[1] in self.part_a)
        )
        self.cut_cap = cut_cap
        self.thresholds = dict(thresholds)
        self.gadgets = dict(gadgets)
        self.x_edges = tuple(x_edges)
        self.y_edges = tuple(y_edges)

    def id(self, name):
        return self.names.index(name)

    def sidecar(self):
        """JSON-ready description of everything beyond the bare graph."""
        return {
            "family": self.family,
            "params": dict(self.params),
            "x": "".join(str(b) for b in self.x),
            "y": "".join(str(b) for b in self.y),
            "names": list(self.names),
            "partition": {
                "a": sorted(self.part_a),
                "b": sorted(self.part_b),
            },
            "cut": [list(e) for e in self.cut],
            "thresholds": dict(self.thresholds),
            "gadgets": {
                name: dict(meta) for name, meta in sorted(self.gadgets.items())
            },
        }


def _bit(i, j):
    """Bit j (1-based) of the binary representation of i - 1."""
    return (i - 1) >> (j - 1) & 1


_ROW_SETS = ((1, "a1", "b1"), (2, "a2", "b2"))


def _k_family(k, x, y, with_u):
    """Check k, parse x and y, and start a builder with the base vertices:
    rows a1, a2, b1, b2 and the t/f (and u) bit gadgets of both row sets,
    the a rows and A gadgets on side A.  Returns (builder, log2 k, x, y)."""
    if k < 2 or k & (k - 1):
        raise InputError(f"k must be a power of 2 and at least 2, got {k}")
    log_k = k.bit_length() - 1
    x = parse_bits(x, k * k, "x")
    y = parse_bits(y, k * k, "y")
    b = _Build()
    for row in ("a1", "a2", "b1", "b2"):
        for i in range(1, k + 1):
            b.vertex(f"{row}_{i}", side_a=row[0] == "a")
    letters = "tfu" if with_u else "tf"
    for s in (1, 2):
        for j in range(1, log_k + 1):
            for side in "AB":
                for letter in letters:
                    b.vertex(f"{letter}{side}{s}_{j}", side_a=side == "A")
    return b, log_k, x, y


def _pairs(k, bits, keep):
    """Index pairs (i, j), 1-based, whose bit (i-1)*k + (j-1) equals keep."""
    return [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)
            if bits[(i - 1) * k + (j - 1)] == keep]


def _bit_edges(k, ring, one, zero):
    """Bit-gadget-incident edges: per row set and bit j, a cycle through
    the gadget vertices `ring` names in order, then each row vertex i
    joined on its side to the `one` vertex of bit j if bit j of i - 1 is
    set, else to the `zero` vertex."""
    log_k = k.bit_length() - 1
    edges = []
    for s, arow, brow in _ROW_SETS:
        for j in range(1, log_k + 1):
            cycle = [f"{name}{s}_{j}" for name in ring]
            edges += zip(cycle, cycle[1:] + cycle[:1])
        for i in range(1, k + 1):
            for j in range(1, log_k + 1):
                letter = one if _bit(i, j) else zero
                edges.append((f"{arow}_{i}", f"{letter}A{s}_{j}"))
                edges.append((f"{brow}_{i}", f"{letter}B{s}_{j}"))
    return edges


def _mvc_fixed_edges(k):
    """Bit-gadget-incident edges and clique edges of the base VC family."""
    bit_edges = _bit_edges(k, ("tA", "fA", "tB", "fB"), "t", "f")
    clique_edges = []
    for row in ("a1", "a2", "b1", "b2"):
        for i in range(1, k + 1):
            for i2 in range(i + 1, k + 1):
                clique_edges.append((f"{row}_{i}", f"{row}_{i2}"))
    return bit_edges, clique_edges


def _mds_fixed_edges(k):
    """Bit-gadget-incident edges of the base MDS family (rows independent),
    wired to the complement of the binary representation."""
    return _bit_edges(k, ("fA", "tA", "uA", "fB", "tB", "uB"), "f", "t")


def _add_zero_vertex(b, gadgets, name, anchors):
    """A zero-weight single-vertex gadget joined to every anchor."""
    vid = b.vertex(name, weight=0, side_a=b.on_side_a(anchors))
    for a in anchors:
        b.edge(name, a)
    gadgets[name] = {"kind": "vertex",
                     "verts": [vid],
                     "anchors": [b.ids[a] for a in anchors]}


def _add_path_gadget(b, gadgets, name, length, anchors):
    """A path of `length` new vertices whose head is joined to every
    anchor."""
    side_a = b.on_side_a(anchors)
    verts = [b.vertex(f"{name}_{p}", side_a=side_a)
             for p in range(1, length + 1)]
    for p in range(1, length):
        b.edge(f"{name}_{p}", f"{name}_{p + 1}")
    for a in anchors:
        b.edge(f"{name}_1", a)
    gadgets[name] = {"kind": "path",
                     "verts": verts,
                     "anchors": [b.ids[a] for a in anchors]}


def gen_mvc_base(k, x, y):
    """Base family: vertex cover of the graph itself crosses the threshold
    4(k-1) + 4*log2(k) exactly when x and y intersect."""
    b, log_k, x, y = _k_family(k, x, y, with_u=False)
    bit_edges, clique_edges = _mvc_fixed_edges(k)
    for u, v in bit_edges + clique_edges:
        b.edge(u, v)
    for tag, r, bits in (("x", "a", x), ("y", "b", y)):
        for i, j in _pairs(k, bits, 0):
            b.edge(f"{r}1_{i}", f"{r}2_{j}", tag=tag)
    return b.instance(
        "MVC-BASE", {"k": k}, x, y, cut_cap=8 * log_k,
        thresholds={"problem": "vc", "power": 1,
                    "value": 4 * (k - 1) + 4 * log_k},
    )


def gen_mds_base(k, x, y):
    """Base family: dominating set of the graph itself crosses the
    threshold 4*log2(k) + 2 exactly when x and y intersect."""
    b, log_k, x, y = _k_family(k, x, y, with_u=True)
    for u, v in _mds_fixed_edges(k):
        b.edge(u, v)
    for tag, r, bits in (("x", "a", x), ("y", "b", y)):
        for i, j in _pairs(k, bits, 1):
            b.edge(f"{r}1_{i}", f"{r}2_{j}", tag=tag)
    return b.instance(
        "MDS-BASE", {"k": k}, x, y, cut_cap=8 * log_k,
        thresholds={"problem": "ds", "power": 1, "value": 4 * log_k + 2},
    )


def gen_mwvc_square(k, x, y):
    """Weighted square family: each bit-gadget-incident edge becomes a
    zero-weight vertex joined to both endpoints, and each a1/b1 row vertex
    gets one shared zero-weight vertex carrying its row-to-row edges.  The
    square graph then has a cover of the base threshold weight exactly when
    the base graph does."""
    b, log_k, x, y = _k_family(k, x, y, with_u=False)
    bit_edges, clique_edges = _mvc_fixed_edges(k)
    gadgets = {}
    for u, v in clique_edges:
        b.edge(u, v)
    for idx, (u, v) in enumerate(bit_edges):
        _add_zero_vertex(b, gadgets, f"p{idx}", [u, v])
    for tag, r, bits in (("x", "a", x), ("y", "b", y)):
        for i in range(1, k + 1):
            _add_zero_vertex(b, gadgets, f"p_{r}_{i}", [f"{r}1_{i}"])
        for i, j in _pairs(k, bits, 0):
            b.edge(f"p_{r}_{i}", f"{r}2_{j}", tag=tag)
    return b.instance(
        "MWVC-SQ", {"k": k}, x, y, cut_cap=16 * log_k,
        thresholds={"problem": "vc", "power": 2,
                    "value": 4 * (k - 1) + 4 * log_k},
        gadgets=gadgets,
    )


def gen_mvc_square(k, x, y):
    """Unweighted square family: bit-gadget-incident edges are replaced by
    3-vertex dangling paths (edge deleted), and each a1/b1 row vertex gets
    a shared 3-vertex path whose head carries the row-to-row edges.  The
    square optimum is the base threshold plus two per gadget."""
    b, log_k, x, y = _k_family(k, x, y, with_u=False)
    bit_edges, clique_edges = _mvc_fixed_edges(k)
    gadgets = {}
    for u, v in clique_edges:
        b.edge(u, v)
    for idx, (u, v) in enumerate(bit_edges):
        _add_path_gadget(b, gadgets, f"dp{idx}", 3, [u, v])
    for tag, r, bits in (("x", "a", x), ("y", "b", y)):
        for i in range(1, k + 1):
            _add_path_gadget(b, gadgets, f"sh_{r}1_{i}", 3, [f"{r}1_{i}"])
        for i, j in _pairs(k, bits, 0):
            b.edge(f"sh_{r}1_{i}_1", f"{r}2_{j}", tag=tag)
    gadget_count = len(gadgets)
    return b.instance(
        "MVC-SQ", {"k": k, "gadget_count": gadget_count}, x, y,
        cut_cap=16 * log_k,
        thresholds={"problem": "vc", "power": 2,
                    "value": 4 * (k - 1) + 4 * log_k + 2 * gadget_count},
        gadgets=gadgets,
    )


def gen_mds_square_exact(k, x, y):
    """Unweighted square family for exact domination: bit-gadget-incident
    edges are replaced by 5-vertex dangling paths (edge deleted) and every
    row vertex gets a shared 5-vertex path; row-to-row edges run between
    the shared heads.  The square optimum is the base threshold plus one
    per gadget (the recorded gadget_count, not a closed formula)."""
    b, log_k, x, y = _k_family(k, x, y, with_u=True)
    gadgets = {}
    for idx, (u, v) in enumerate(_mds_fixed_edges(k)):
        _add_path_gadget(b, gadgets, f"dp{idx}", 5, [u, v])
    for row in ("a1", "a2", "b1", "b2"):
        for i in range(1, k + 1):
            _add_path_gadget(b, gadgets, f"sh_{row}_{i}", 5, [f"{row}_{i}"])
    for tag, r, bits in (("x", "a", x), ("y", "b", y)):
        for i, j in _pairs(k, bits, 1):
            b.edge(f"sh_{r}1_{i}_1", f"sh_{r}2_{j}_1", tag=tag)
    gadget_count = len(gadgets)
    return b.instance(
        "MDS-SQ-EXACT", {"k": k, "gadget_count": gadget_count}, x, y,
        cut_cap=16 * log_k,
        thresholds={"problem": "ds", "power": 2,
                    "value": 4 * log_k + 2 + gadget_count},
        gadgets=gadgets,
    )


class SetSystem:
    """Sets S_1..S_T over universe {1..l} with the r-covering property:
    any r of {S_i, complement(S_i)} with no complementary pair leave some
    element of the universe uncovered."""

    def __init__(self, universe, sets, r):
        self.universe = int(universe)
        self.sets = tuple(frozenset(s) for s in sets)
        self.r = int(r)

    @property
    def t(self):
        return len(self.sets)

    def complement(self, i):
        return frozenset(range(1, self.universe + 1)) - self.sets[i]


def r_covering_holds(sets, universe, r):
    """Exhaustively check the r-covering property: no r distinct indices,
    each taking its set or the set's complement, cover the universe."""
    full = frozenset(range(1, universe + 1))
    sides = [(frozenset(s), full - frozenset(s)) for s in sets]
    return not any(frozenset().union(*pick) == full
                   for chosen in itertools.combinations(sides, r)
                   for pick in itertools.product(*chosen))


def gen_set_system(universe, t, r, seed=0):
    """Rejection-sample a SetSystem: each element joins each set with
    probability 1/2; retry until the r-covering property verifies."""
    if universe < 1 or t < 1 or r < 1:
        raise InputError("universe, set count, and r must be positive")
    rng = random.Random(seed)
    for _ in range(SET_SYSTEM_TRIES):
        sets = [
            frozenset(e for e in range(1, universe + 1) if rng.random() < 0.5)
            for _ in range(t)
        ]
        if r_covering_holds(sets, universe, r):
            return SetSystem(universe, sets, r)
    raise GenerationError(
        f"no {r}-covering system of {t} sets over {universe} elements "
        f"found in {SET_SYSTEM_TRIES} tries"
    )


def _set_gadget(b, prime, system, weighted, r):
    """One copy of the set gadget; returns nothing, vertices are named
    S/Sb/al/be with a prime suffix.  S, al and alpha are side A."""
    p = "p" if prime else ""
    heavy = r if weighted else None
    for j in range(1, system.t + 1):
        b.vertex(f"S{p}_{j}", side_a=True)
        b.vertex(f"Sb{p}_{j}")
    for i in range(1, system.universe + 1):
        b.vertex(f"al{p}_{i}", weight=heavy, side_a=True)
        b.vertex(f"be{p}_{i}", weight=heavy)
        b.edge(f"al{p}_{i}", f"be{p}_{i}")
    for j in range(1, system.t + 1):
        for i in range(1, system.universe + 1):
            if i in system.sets[j - 1]:
                b.edge(f"S{p}_{j}", f"al{p}_{i}")
            else:
                b.edge(f"Sb{p}_{j}", f"be{p}_{i}")
    if weighted:
        b.vertex(f"alpha{p}", weight=r, side_a=True)
        b.vertex(f"beta{p}", weight=r)
        for j in range(1, system.t + 1):
            b.edge(f"alpha{p}", f"S{p}_{j}")
            b.edge(f"beta{p}", f"Sb{p}_{j}")


def _approx_instance(t, universe, r, x, y, seed, weighted):
    system = gen_set_system(universe, t, r, seed=seed)
    x = parse_bits(x, t * t, "x")
    y = parse_bits(y, t * t, "y")
    b = _Build()
    for row in ("a", "ap", "b", "bp"):
        for i in range(1, t + 1):
            b.vertex(f"{row}_{i}", side_a=row[0] == "a")
    _set_gadget(b, prime=False, system=system, weighted=weighted, r=r)
    _set_gadget(b, prime=True, system=system, weighted=weighted, r=r)
    gadgets = {}
    # merged shared path gadgets: per-row-vertex heads on a common 3-path;
    # Ast hangs on the a rows (side A), Bst on the b rows (side B)
    for star, rows in (("Ast", ("a", "ap")), ("Bst", ("b", "bp"))):
        side_a = star == "Ast"
        common = [
            b.vertex(f"{star}_3", weight=0 if weighted else None,
                     side_a=side_a),
            b.vertex(f"{star}_4", side_a=side_a),
            b.vertex(f"{star}_5", side_a=side_a),
        ]
        b.edge(f"{star}_3", f"{star}_4")
        b.edge(f"{star}_4", f"{star}_5")
        heads = []
        for row in rows:
            prime = row.endswith("p")
            for label in ("row", "set"):
                for i in range(1, t + 1):
                    head = f"{star}_{row}{'S' if label == 'set' else ''}_{i}"
                    h1 = b.vertex(f"{head}_1", side_a=side_a)
                    h2 = b.vertex(f"{head}_2", side_a=side_a)
                    b.edge(f"{head}_1", f"{head}_2")
                    b.edge(f"{head}_2", f"{star}_3")
                    b.edge(f"{head}_1", f"{row}_{i}")
                    heads.append({"verts": [h1, h2],
                                  "anchors": [b.ids[f"{row}_{i}"]]})
                    if label == "set":
                        # heads on the set side reach every other set vertex
                        sv = ("S" if side_a else "Sb") + ("p" if prime else "")
                        for j in range(1, t + 1):
                            if j != i:
                                b.edge(f"{head}_1", f"{sv}_{j}")
        gadgets[star] = {"kind": "merged", "common": common, "heads": heads}
    if not weighted:
        for j in range(1, t + 1):
            for qname, sname, star in (
                (f"q_{j}", f"S_{j}", "Ast"),
                (f"qp_{j}", f"Sp_{j}", "Ast"),
                (f"qb_{j}", f"Sb_{j}", "Bst"),
                (f"qbp_{j}", f"Sbp_{j}", "Bst"),
            ):
                b.vertex(qname, side_a=star == "Ast")
                b.edge(qname, sname)
                b.edge(qname, f"{star}_3")
    for tag, star, row, bits in (("x", "Ast", "a", x), ("y", "Bst", "b", y)):
        for i, j in _pairs(t, bits, 1):
            b.edge(f"{star}_{row}_{i}_1", f"{star}_{row}p_{j}_1", tag=tag)
    low = 6 if weighted else 8
    return b.instance(
        "MWDS-SQ-APPROX" if weighted else "MDS-SQ-APPROX",
        {"T": t, "universe": universe, "r": r, "seed": seed}, x, y,
        cut_cap=4 * universe,
        thresholds={"problem": "ds", "power": 2, "low": low,
                    "high": low + 1},
        gadgets=gadgets,
    )


def gen_mwds_square_approx(t, universe, r, x, y, seed=0):
    """Weighted gap family: the square has a dominating set of weight 6
    when x and y intersect, and none lighter than 7 otherwise."""
    return _approx_instance(t, universe, r, x, y, seed, weighted=True)


def gen_mds_square_approx_unweighted(t, universe, r, x, y, seed=0):
    """Unweighted gap family: square dominating set of size 8 when x and y
    intersect, at least 9 otherwise."""
    return _approx_instance(t, universe, r, x, y, seed, weighted=False)


def dangling_transform(g, length=3):
    """Replace each edge with a dangling path of `length` new vertices
    whose head is adjacent to both endpoints.  With length 3 the square's
    cover optimum is the original optimum plus two per edge."""
    if g.weights is not None:
        raise InputError("dangling_transform expects an unweighted graph")
    if length not in (3, 5):
        raise InputError(f"gadget length must be 3 or 5, got {length}")
    edges = []
    n = g.n
    for u, v in g.edges():
        edges += [(n + p, n + p + 1) for p in range(length - 1)]
        edges += [(n, u), (n, v)]
        n += length
    return Graph(n, edges)


def merged_dangling_transform(g):
    """Replace each edge with a 2-vertex head whose tail joins one common
    3-path; the square's domination optimum is the original plus one."""
    if g.weights is not None:
        raise InputError("merged_dangling_transform expects an unweighted graph")
    base_edges = list(g.edges())
    if not base_edges:
        raise InputError("merged_dangling_transform needs at least one edge")
    n = g.n
    edges = []
    c3 = g.n + 2 * len(base_edges)
    for u, v in base_edges:
        h1, h2 = n, n + 1
        edges += [(h1, u), (h1, v), (h1, h2), (h2, c3)]
        n += 2
    edges += [(c3, c3 + 1), (c3 + 1, c3 + 2)]
    return Graph(n + 3, edges)


def _normalize_vc(inst, cover):
    new = set(cover)
    for meta in inst.gadgets.values():
        if meta["kind"] == "vertex":
            # zero-weight single-vertex gadgets are free to include
            new.add(meta["verts"][0])
        elif meta["kind"] == "path":
            verts = meta["verts"]
            new.difference_update(verts)
            new.update(verts[:2])
    return new


def _uncovered_after(closed, members, check):
    out = []
    for v in check:
        if v in members:
            continue
        if not any(u in members for u in closed[v]):
            out.append(v)
    return out


def _ds_drop(closed, new, drop, anchors):
    """Remove `drop` if domination survives, possibly swapping in one
    anchor; leave it in place otherwise."""
    if drop not in new:
        return
    affected = closed[drop]
    new.discard(drop)
    if not _uncovered_after(closed, new, affected):
        return
    for a in anchors:
        if a in new:
            continue
        trial = new | {a}
        if not _uncovered_after(closed, trial, affected):
            new.add(a)
            return
    new.add(drop)  # no safe single-vertex exchange; keep it


def _normalize_ds(inst, closed, cover):
    new = set(cover)
    for meta in inst.gadgets.values():
        if meta["kind"] == "path":
            verts = meta["verts"]
            new.add(verts[2])
            anchors = sorted(meta["anchors"])
            for p in (4, 3, 1, 0):
                if p < len(verts):
                    _ds_drop(closed, new, verts[p], anchors)
        elif meta["kind"] == "merged":
            common = meta["common"]
            new.add(common[0])
            _ds_drop(closed, new, common[1], [])
            _ds_drop(closed, new, common[2], [])
            for head in meta["heads"]:
                _ds_drop(closed, new, head["verts"][1],
                         sorted(head["anchors"]))
    return new


def normalize_cover(inst, cover):
    """Rewrite a feasible cover into gadget-normal form.

    Vertex-cover instances end with {head, second} inside every path
    gadget; domination instances end with the middle vertex inside every
    gadget, dropping the rest when a single-anchor exchange keeps the set
    feasible.  The result is feasible and never larger; the rewrite is run
    to a fixpoint so it is idempotent.
    """
    kind = VC2 if inst.thresholds["problem"] == "vc" else DS2
    cover = frozenset(cover)
    if not is_feasible(inst.graph, kind, cover):
        raise ContractError("normalize_cover requires a feasible cover")
    if kind == DS2:
        h2 = square(inst.graph)
        closed = [frozenset(h2.adj[v]) | {v} for v in range(h2.n)]
    current = set(cover)
    for _ in range(5):
        if kind == VC2:
            rewritten = _normalize_vc(inst, current)
        else:
            rewritten = _normalize_ds(inst, closed, current)
        if rewritten == current:
            break
        current = rewritten
    result = frozenset(current)
    if inst.graph.total_weight(result) > inst.graph.total_weight(cover):
        raise ContractError("normalization increased the cover weight")
    if not is_feasible(inst.graph, kind, result):
        raise ContractError("normalization broke feasibility")
    return result


def verify_family(inst):
    """Solve the instance exactly and report threshold agreement along
    with partition sanity (x edges inside side A, y edges inside side B,
    cut within its cap)."""
    th = inst.thresholds
    target = square(inst.graph) if th["power"] == 2 else inst.graph
    solve = exact_mvc if th["problem"] == "vc" else exact_mds
    value = solve(target).value
    low = th.get("low", th.get("value"))
    high = th.get("high", low)
    disj = disjoint(inst.x, inst.y)
    predicate = value <= low
    agree = predicate == (not disj)
    if disj and value < high:
        agree = False
    part_ok = all(
        u in inst.part_a and v in inst.part_a for (u, v) in inst.x_edges
    ) and all(
        u in inst.part_b and v in inst.part_b for (u, v) in inst.y_edges
    )
    return {
        "family": inst.family,
        "n": inst.graph.n,
        "oracle_value": value,
        "thresholds": dict(th),
        "predicate": predicate,
        "disj": disj,
        "agree": agree,
        "cut_size": len(inst.cut),
        "cut_cap_ok": len(inst.cut) <= inst.cut_cap,
        "partition_ok": part_ok,
    }
