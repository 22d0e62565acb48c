"""Pinned solutions of the central solvers.

The acceptance sweep and the benchmark check values only, so a changed
tie-break in the exact searches or in the 5/3 routine could keep every value
and still return other vertices.  This test pins the sha256 of the sorted
members of exact_mvc(square(g)) and exact_mds(square(g)), and of the
vc_53_on_square cover with every PhaseTrace part, on a seeded list of
sparse, G(n,p) and weighted graphs (rational weights with mixed
denominators, zeros included).

After an intended change of solutions, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_central_pins.py \
        > tests/data/central_members_sha256.json
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from powergraph.exact import exact_mds, exact_mvc
from powergraph.graph import Graph, square
from powergraph.mvc_centralized import vc_53_on_square

from oracles import random_connected_gnp, sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "central_members_sha256.json")


def pin_cases():
    """(label, graph) pairs: 14 sparse, 14 G(n,p), 14 weighted."""
    rng = random.Random(2024)
    cases = []
    for i in range(14):
        n = rng.randint(24, 60)
        cases.append((f"sparse{i}", Graph(n, sparse_connected(n, 3, rng))))
    for i in range(14):
        n = rng.randint(10, 30)
        edges = random_connected_gnp(n, rng.choice((0.15, 0.25, 0.4)),
                                     seed=rng.randrange(1 << 30))
        cases.append((f"gnp{i}", Graph(n, edges)))
    for i in range(14):
        n = rng.randint(12, 40)
        edges = sparse_connected(n, 3, rng)
        weights = {v: Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6)))
                   for v in range(n)}
        cases.append((f"weighted{i}", Graph(n, edges, weights=weights)))
    return cases


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _sorted_snapshot(snapshot):
    verts, edges = snapshot
    return [sorted(verts), sorted(edges)]


def pin_record(label, g):
    h = square(g)
    record = {
        "case": label,
        "exact_mvc2": _sha(sorted(exact_mvc(h).members)),
        "exact_mds2": _sha(sorted(exact_mds(h).members)),
    }
    if g.weights is None:
        cover, tr = vc_53_on_square(h)
        parts = [sorted(cover)] + [
            sorted(getattr(tr, p)) for p in ("V1", "V2", "V3", "W1", "W2", "W3")
        ]
        parts += [_sorted_snapshot(tr.R), _sorted_snapshot(tr.R_prime)]
        record["vc_53"] = _sha(parts)
    return record


def test_solutions_match_pins():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    cases = pin_cases()
    assert len(pinned) == len(cases) == 42
    changed = [
        label for (label, g), want in zip(cases, pinned)
        if pin_record(label, g) != want
    ]
    assert changed == []


if __name__ == "__main__":
    records = [pin_record(label, g) for label, g in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
