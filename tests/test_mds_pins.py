"""Pinned dominators and round counts of g2mds_logd under both models.

The relays of g2mds_logd may change how many messages they send, but
never the dominating set it picks or the rounds it takes.  This test pins
the sha256 of (sorted members, rounds) under CONGEST and CLIQUE on a
seeded list of connected graphs, n from 10 to 120: sparse ones, and the
same with one vertex joined to all others (a hub, so that G^2 is complete
and every 2-hop count is sampled).

After an intended change of dominators or rounds, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_mds_pins.py \
        > tests/data/mds_members_sha256.json
"""

import hashlib
import json
import os
import random
import sys

from powergraph.graph import Graph
from powergraph.mds_distributed import g2mds_logd
from powergraph.sim import CLIQUE, CONGEST, Model

from oracles import sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "mds_members_sha256.json")

# (n, average degree, with a hub)
SHAPES = (
    (10, 2, False), (12, 3, True), (16, 2, True), (20, 3, True),
    (25, 2, True), (30, 3, False), (35, 2, True), (40, 3, False),
    (45, 2, False), (50, 3, True), (60, 2, False), (65, 3, False),
    (70, 2, True), (80, 3, False), (90, 2, False), (95, 3, False),
    (100, 2, False), (110, 3, False), (115, 2, False), (120, 3, False),
)


def pin_cases():
    """(label, graph, seed) for each of the 20 shapes."""
    cases = []
    for i, (n, d, hub) in enumerate(SHAPES):
        rng = random.Random(4600 + i)
        edges = set(sparse_connected(n, d, rng))
        if hub:
            h = rng.randrange(n)
            edges |= {(min(h, v), max(h, v)) for v in range(n) if v != h}
        kind = "hub" if hub else "sparse"
        cases.append((f"{kind}{n}-{d}-{i}", Graph(n, sorted(edges)), i))
    return cases


def pin_record(label, g, seed):
    record = {"case": label}
    for variant in (CONGEST, CLIQUE):
        sol, stats = g2mds_logd(g, seed=seed, model=Model(variant))
        blob = json.dumps([sorted(sol.members), stats.rounds]).encode()
        record[variant] = hashlib.sha256(blob).hexdigest()
    return record


def test_dominators_match_pins():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    cases = pin_cases()
    assert len(pinned) == len(cases) == 20
    changed = [
        case[0] for case, want in zip(cases, pinned)
        if pin_record(*case) != want
    ]
    assert changed == []


if __name__ == "__main__":
    records = [pin_record(*case) for case in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
