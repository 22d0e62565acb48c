"""Pinned covers of the Phase I + Phase II drivers under both models.

g2mvc_eps, g2mvc_hybrid and g2mwvc_eps may change how Phase II packs its
messages, and so their rounds and messages, but never their covers: Phase I
picks the same S, and the leader solves the same H.  This test pins the
sha256 of the sorted members of each driver, under CONGEST and CLIQUE, on
a seeded list of connected sparse graphs, n from 10 to 300.  The weighted
driver runs on the same graph with seeded weights 1 and 2.  Where the
leader's exact solve raises, the pin is the error's class name.

After an intended change of covers, rewrite the pins with

    PYTHONPATH=src:tests python tests/test_cover_pins.py \
        > tests/data/cover_members_sha256.json
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from powergraph import mvc_distributed
from powergraph.errors import PowerGraphError
from powergraph.exact import exact_mvc
from powergraph.graph import VC1, VC2, Graph, is_feasible
from powergraph.mvc_centralized import g2mvc_hybrid
from powergraph.mvc_distributed import g2mvc_eps, g2mwvc_eps
from powergraph.sim import CLIQUE, CONGEST, Model

from oracles import milp_min_vc, sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "cover_members_sha256.json")

# (n, average degree)
SHAPES = (
    (10, 2), (12, 3), (16, 2), (20, 3), (25, 2), (30, 3), (40, 2),
    (50, 3), (60, 2), (70, 3), (80, 2), (100, 3), (120, 2), (150, 3),
    (180, 2), (200, 3), (220, 2), (250, 3), (280, 2), (300, 3),
)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
DRIVERS = (
    ("g2mvc_eps-1/2", lambda g, gw, m: g2mvc_eps(g, HALF, m)),
    ("g2mvc_eps-1/4", lambda g, gw, m: g2mvc_eps(g, QUARTER, m)),
    ("g2mvc_hybrid", lambda g, gw, m: g2mvc_hybrid(g, m)),
    ("g2mwvc_eps-1/2", lambda g, gw, m: g2mwvc_eps(gw, HALF, m)),
)


def pin_cases():
    """(label, graph, weighted graph) for each of the 20 shapes."""
    cases = []
    for i, (n, d) in enumerate(SHAPES):
        rng = random.Random(4200 + i)
        edges = sparse_connected(n, d, rng)
        weights = {v: rng.randint(1, 2) for v in range(n)}
        cases.append((f"sparse{n}-{d}-{i}", Graph(n, edges),
                      Graph(n, edges, weights=weights)))
    return cases


def pin_record(label, g, gw):
    record = {"case": label}
    for variant in (CONGEST, CLIQUE):
        for name, solve in DRIVERS:
            try:
                sol, _ = solve(g, gw, Model(variant))
            except PowerGraphError as exc:
                pin = type(exc).__name__
            else:
                blob = json.dumps(sorted(sol.members)).encode()
                pin = hashlib.sha256(blob).hexdigest()
            record[f"{variant} {name}"] = pin
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


# The pins whose leader's H has more than 64 non-isolated vertices; their
# covers of H are checked against a MILP optimum
LARGE_H = {
    "sparse150-3-13": ("g2mwvc_eps-1/2",),
    "sparse200-3-15": ("g2mvc_eps-1/4", "g2mwvc_eps-1/2"),
    "sparse250-3-17": ("g2mvc_eps-1/4", "g2mwvc_eps-1/2"),
    "sparse300-3-19": ("g2mvc_eps-1/4", "g2mwvc_eps-1/2"),
}


def spy_on_leader(monkeypatch):
    """Record each (H, cover) the leader's exact solve returns."""
    solved = []

    def solve(H):
        members = exact_mvc(H).members
        solved.append((H, members))
        return members

    monkeypatch.setattr(mvc_distributed, "_solve_exact", solve)
    return solved


def test_large_leader_covers_are_milp_optima(monkeypatch):
    pytest.importorskip("scipy.optimize")
    solved = spy_on_leader(monkeypatch)
    drivers = dict(DRIVERS)
    checked = 0
    for label, g, gw in pin_cases():
        for name in LARGE_H.get(label, ()):
            for variant in (CONGEST, CLIQUE):
                sol, _ = drivers[name](g, gw, Model(variant))
                H, cover = solved.pop()
                assert sum(1 for v in range(H.n) if H.adj[v]) > 64
                assert is_feasible(g, VC2, sol.members)
                assert is_feasible(H, VC1, cover)
                assert H.total_weight(cover) == milp_min_vc(H)
                checked += 1
    assert checked == 14


if __name__ == "__main__":
    records = [pin_record(*case) for case in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
