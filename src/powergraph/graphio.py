"""Text file format for graphs, plus JSON sidecars for generated instances.

Format (0-indexed, DIMACS-adjacent):

    c optional comment
    p <n> <m> [weighted]
    w <v> <num>[/<den>]     (one per vertex, only when weighted)
    e <u> <v>

Round-trips losslessly, including rational weights.
"""

import json
from fractions import Fraction

from .errors import ParseError
from .graph import Graph


def read_graph(path):
    """Parse a graph file, checking each line once as it is read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return _parse_lines(fh)
            except ParseError:
                # a file that is not UTF-8 reports that before any line
                for _ in fh:
                    pass
                raise
    except UnicodeDecodeError:
        raise ParseError("graph file is not UTF-8 text")


def _parse_lines(lines):
    n = None
    m = None
    weighted = False
    nbrs = []
    seen = set()  # u * n + v for each edge, u < v
    weights = {}
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate header", line=lineno)
            if len(parts) not in (3, 4):
                raise ParseError("header must be 'p n m [weighted]'",
                                 line=lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("header counts must be integers",
                                 line=lineno)
            if len(parts) == 4:
                if parts[3] != "weighted":
                    raise ParseError(f"unknown header flag {parts[3]!r}",
                                     line=lineno)
                weighted = True
            if n < 0:
                raise ParseError(
                    f"vertex count must be nonnegative, got {n}", line=lineno)
            nbrs = [[] for _ in range(n)]
        elif kind == "e":
            if n is None:
                raise ParseError("edge before header", line=lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e u v'", line=lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers",
                                 line=lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range", line=lineno)
            if u == v:
                raise ParseError(f"self loop at {u}", line=lineno)
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ParseError(f"duplicate edge ({u},{v})", line=lineno)
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        elif kind == "w":
            if n is None:
                raise ParseError("weight before header", line=lineno)
            if not weighted:
                raise ParseError("weight line in unweighted graph",
                                 line=lineno)
            if len(parts) != 3:
                raise ParseError("weight line must be 'w v num[/den]'",
                                 line=lineno)
            try:
                v = int(parts[1])
                w = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise ParseError("malformed weight", line=lineno)
            if not (0 <= v < n):
                raise ParseError(f"weight vertex {v} out of range",
                                 line=lineno)
            if v in weights:
                raise ParseError(f"duplicate weight for vertex {v}",
                                 line=lineno)
            if w < 0:
                raise ParseError(f"negative weight at vertex {v}",
                                 line=lineno)
            weights[v] = w
        else:
            raise ParseError(f"unknown line kind {kind!r}", line=lineno)
    if n is None:
        raise ParseError("missing 'p' header")
    if len(seen) != m:
        raise ParseError(f"header declares {m} edges, found {len(seen)}")
    if weighted:
        missing = [v for v in range(n) if v not in weights]
        if missing:
            raise ParseError(f"missing weight for vertex {missing[0]}")
        weights = {v: weights[v] for v in range(n)}
    else:
        weights = None
    del seen  # freed before the tuples are built
    for v, us in enumerate(nbrs):
        us.sort()
        nbrs[v] = tuple(us)
    return Graph._from_adjacency(n, tuple(nbrs), m, weights)


def format_graph(g):
    lines = []
    flag = " weighted" if g.weights is not None else ""
    lines.append(f"p {g.n} {g.m}{flag}")
    if g.weights is not None:
        for v in range(g.n):
            w = g.weights[v]
            text = str(w.numerator) if w.denominator == 1 else str(w)
            lines.append(f"w {v} {text}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def write_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def write_sidecar(sidecar, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
