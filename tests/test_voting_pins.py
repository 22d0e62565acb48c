"""Pinned covers of the congested-clique voting algorithm.

g2mvc_cc_voting's rounds may move when its Phase II moves, but its covers
must not: the votes draw the same ranks, and the leader solves the same H.
This test pins the sha256 of the sorted members of g2mvc_cc_voting on a
seeded list of connected G(n, p) graphs, n from 10 to 100, across several
eps and seeds.  Where the leader's exact solve raises, the pin is the
error's class name.

After an intended change of covers, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_voting_pins.py \
        > tests/data/voting_members_sha256.json
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from powergraph.errors import PowerGraphError
from powergraph.graph import VC1, VC2, Graph, is_feasible
from powergraph.mvc_distributed import g2mvc_cc_voting

from oracles import milp_min_vc, random_connected_gnp
from test_cover_pins import spy_on_leader

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "voting_members_sha256.json")

# (n, p, eps); p = 0.1 only where G(n, p) is connected often enough to
# sample, and small eps only where the leader's H stays small
HALF, QUARTER, EIGHTH = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
SHAPES = (
    (10, 0.5, 1), (12, 0.3, HALF), (16, 0.4, QUARTER), (20, 0.2, EIGHTH),
    (20, 0.3, 1), (30, 0.2, HALF), (30, 0.3, QUARTER), (40, 0.1, EIGHTH),
    (40, 0.2, 1), (50, 0.1, HALF), (50, 0.2, QUARTER), (60, 0.1, EIGHTH),
    (60, 0.2, 1), (70, 0.1, 1), (80, 0.1, 1), (80, 0.2, HALF),
    (90, 0.2, HALF), (100, 0.1, HALF), (100, 0.2, HALF), (100, 0.3, 1),
)


def pin_cases():
    """(label, graph, eps, seed) for each of the 20 shapes."""
    cases = []
    for i, (n, p, eps) in enumerate(SHAPES):
        g = Graph(n, random_connected_gnp(n, p, seed=3100 + i))
        cases.append((f"gnp{n}-{p}-{i}", g, Fraction(eps), i % 3))
    return cases


def pin_record(label, g, eps, seed):
    record = {"case": label, "eps": str(eps), "seed": seed}
    try:
        sol, _ = g2mvc_cc_voting(g, eps, seed=seed)
    except PowerGraphError as exc:
        record["error"] = type(exc).__name__
    else:
        blob = json.dumps(sorted(sol.members)).encode()
        record["members"] = hashlib.sha256(blob).hexdigest()
    return record


def test_covers_match_pins():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    cases = pin_cases()
    assert len(pinned) == len(cases) == 20
    changed = [
        case[0] for case, want in zip(cases, pinned)
        if pin_record(*case) != want
    ]
    assert changed == []


def test_large_leader_cover_is_a_milp_optimum(monkeypatch):
    # the one pin whose leader's H has more than 64 non-isolated vertices
    pytest.importorskip("scipy.optimize")
    solved = spy_on_leader(monkeypatch)
    label, g, eps, seed = pin_cases()[17]
    assert label == "gnp100-0.1-17"
    sol, _ = g2mvc_cc_voting(g, eps, seed=seed)
    (H, cover), = solved
    assert sum(1 for v in range(H.n) if H.adj[v]) > 64
    assert is_feasible(g, VC2, sol.members)
    assert is_feasible(H, VC1, cover)
    assert H.total_weight(cover) == milp_min_vc(H)


if __name__ == "__main__":
    records = [pin_record(*case) for case in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
