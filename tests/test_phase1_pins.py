"""Pinned results of unweighted Phase I under both models.

phase1_unweighted may change which messages carry its candidacies and
two-hop maxima, and so how many it sends, but never the set S, the
centers that fire, the center each vertex of S joins, or the rounds its
schedule takes.  This test pins the sha256 of (sorted S, sorted fired
centers, joined_center of every node, rounds) under CONGEST and CLIQUE on
a seeded list of connected sparse graphs, n from 10 to 1,000, with eps 1,
1/2 or 1/3.  Messages are left out on purpose.

After an intended change of S or of the schedule, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_phase1_pins.py \
        > tests/data/phase1_sha256.json
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from powergraph.graph import Graph
from powergraph.mvc_distributed import phase1_unweighted
from powergraph.sim import CLIQUE, CONGEST, Model

from oracles import sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data", "phase1_sha256.json")

THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
# (n, average degree, eps)
SHAPES = (
    (10, 3, 1), (12, 4, HALF), (16, 6, THIRD), (20, 3, HALF),
    (25, 5, 1), (30, 4, THIRD), (40, 6, HALF), (50, 3, 1),
    (70, 5, HALF), (100, 4, THIRD), (150, 6, 1), (200, 3, HALF),
    (300, 5, THIRD), (500, 4, HALF), (700, 3, 1), (1000, 6, HALF),
)


def pin_cases():
    """(label, graph, eps) for each of the 16 shapes."""
    cases = []
    for i, (n, d, eps) in enumerate(SHAPES):
        edges = sparse_connected(n, d, random.Random(6300 + i))
        cases.append((f"sparse{n}-{d}-{i}", Graph(n, edges), eps))
    return cases


def pin_record(label, g, eps):
    record = {"case": label}
    for variant in (CONGEST, CLIQUE):
        S, outs, stats = phase1_unweighted(g, eps, Model(variant))
        fired = [v for v, o in enumerate(outs) if o["fired"]]
        joined = [o["joined_center"] for o in outs]
        blob = json.dumps([sorted(S), fired, joined, stats.rounds]).encode()
        record[variant] = hashlib.sha256(blob).hexdigest()
    return record


def test_phase1_matches_pins():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    cases = pin_cases()
    assert len(pinned) == len(cases) == 16
    changed = [
        case[0] for case, want in zip(cases, pinned)
        if pin_record(*case) != want
    ]
    assert changed == []


if __name__ == "__main__":
    records = [pin_record(*case) for case in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
