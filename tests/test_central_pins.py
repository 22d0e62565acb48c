"""Pinned solutions of the central solvers.

The acceptance sweep and the benchmark check values only, so a changed
tie-break in the exact searches or in the 5/3 routine could keep every value
and still return other vertices.  This test pins the sha256 of the sorted
members of exact_mvc(square(g)) and exact_mds(square(g)), and of the
vc_53_on_square cover with every PhaseTrace part, on a seeded list of
sparse, G(n,p) and weighted graphs (rational weights with mixed
denominators, zeros included).  It also pins the node count of each exact
search on the same graphs (SEARCH_NODES below), so a changed branch order
fails even where the solutions stay the same.

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

from oracles import random_connected_gnp, search_node_counts, sparse_connected

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "central_members_sha256.json")

# case: (nodes of each exact_mvc search, nodes of each exact_mds search) on
# the case's square; edit by hand after an intended change of branch order
SEARCH_NODES = {
    "sparse0": ([1], [53]), "sparse1": ([1], [7]), "sparse2": ([1], [1]),
    "sparse3": ([1], [15]), "sparse4": ([1], [7]), "sparse5": ([1], [1]),
    "sparse6": ([1], [1]), "sparse7": ([1], [9]), "sparse8": ([1], [10]),
    "sparse9": ([1], [3]), "sparse10": ([1], [1]), "sparse11": ([1], [1]),
    "sparse12": ([1], [1]), "sparse13": ([1], [17]), "gnp0": ([3], [1]),
    "gnp1": ([3], [1]), "gnp2": ([1], [1]), "gnp3": ([5], [1]),
    "gnp4": ([1], [1]), "gnp5": ([1], [1]), "gnp6": ([1], [1]),
    "gnp7": ([1], [1]), "gnp8": ([5], [4]), "gnp9": ([1], [1]),
    "gnp10": ([1], [1]), "gnp11": ([1], [1]), "gnp12": ([1], [1]),
    "gnp13": ([1], [1]), "weighted0": ([23], [4]), "weighted1": ([7], [16]),
    "weighted2": ([1], [1]), "weighted3": ([9], [3]),
    "weighted4": ([45], [76]), "weighted5": ([11], [3]),
    "weighted6": ([35], [3]), "weighted7": ([9], [1]),
    "weighted8": ([21], [4]), "weighted9": ([9], [3]),
    "weighted10": ([7], [5]), "weighted11": ([21], [5]),
    "weighted12": ([33], [9]), "weighted13": ([5], [1]),
}


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


def test_search_nodes_match_pins():
    counts = {}
    for label, g in pin_cases():
        h = square(g)
        counts[label] = tuple(search_node_counts(lambda: solve(h))[1]
                              for solve in (exact_mvc, exact_mds))
    assert counts == SEARCH_NODES


if __name__ == "__main__":
    records = [pin_record(label, g) for label, g in pin_cases()]
    sys.stdout.write("[\n" + ",\n".join(
        "  " + json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
