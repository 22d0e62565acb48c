"""Pinned results of weighted Phase I under both models.

weighted_phase1 may change how it keeps each node's state between its
id-ordered scans, but never the set S it returns or what the scans cost.
This test pins the sha256 of (sorted S, rounds, messages,
max_message_bits) under CONGEST and CLIQUE on a seeded list of connected
graphs, n from 8 to 120, with weights from 0 to 16: integers, rationals
with small denominators, and zeros, which join S before the first scan.
The last case is the graph on which center 0's class becomes selectable
only on the second scan.

After an intended change of S or of the costs, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_weighted_pins.py \
        > tests/data/weighted_phase1_sha256.json
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from powergraph.graph import Graph
from powergraph.mvc_distributed import weighted_phase1
from powergraph.sim import CLIQUE, CONGEST, Model

from oracles import sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "weighted_phase1_sha256.json")

# (n, average degree, denominators of the weights, eps)
SHAPES = (
    (8, 3, 1, 1), (10, 4, 2, Fraction(1, 2)), (12, 3, 3, Fraction(1, 2)),
    (16, 6, 1, Fraction(1, 2)), (20, 4, 4, 1), (25, 3, 1, Fraction(1, 3)),
    (30, 6, 2, Fraction(1, 2)), (40, 4, 1, Fraction(1, 2)),
    (50, 3, 3, 1), (60, 6, 1, Fraction(1, 2)), (70, 4, 2, Fraction(1, 3)),
    (80, 3, 1, Fraction(1, 2)), (90, 6, 4, Fraction(1, 2)),
    (100, 4, 1, 1), (120, 6, 2, Fraction(1, 2)),
)

TWO_SCANS = Graph(
    8,
    [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (1, 7)],
    weights={0: 2, 1: 2, 2: Fraction(7, 2), 3: 2, 4: 2, 5: 2,
             6: Fraction(7, 2), 7: Fraction(7, 2)},
)


def pin_cases():
    """(label, weighted graph, eps): the 15 shapes, then the two-scan graph."""
    cases = []
    for i, (n, d, den, eps) in enumerate(SHAPES):
        rng = random.Random(5100 + i)
        edges = sparse_connected(n, d, rng)
        weights = {v: Fraction(rng.randint(0, 16 * den), den) for v in range(n)}
        cases.append((f"sparse{n}-{d}-den{den}-{i}",
                      Graph(n, edges, weights=weights), eps))
    cases.append(("two-scans", TWO_SCANS, Fraction(1, 2)))
    return cases


def pin_record(label, g, eps):
    record = {"case": label}
    for variant in (CONGEST, CLIQUE):
        S, stats = weighted_phase1(g, eps, Model(variant))
        blob = json.dumps([sorted(S), stats.rounds, stats.messages,
                           stats.max_message_bits]).encode()
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
