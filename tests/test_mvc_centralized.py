import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph.errors import InputError
from powergraph.exact import exact_mvc
from powergraph.graph import VC2, Graph, is_feasible, square
from powergraph.mvc_centralized import g2mvc_53, g2mvc_hybrid, vc_53_on_square

from oracles import (
    brute_min_vc, random_connected_gnp, sparse_connected, traced_peak,
    vc_53_by_sets,
)
from test_graph import complete, cycle, path, star


def random_cases(count, n_max, seed0, p=0.4):
    rng = random.Random(seed0)
    for trial in range(count):
        n = rng.randint(2, n_max)
        yield Graph(n, random_connected_gnp(n, p, seed=seed0 + trial))


class TestG2Mvc53Examples:
    def test_k3(self):
        sol, trace = g2mvc_53(complete(3))
        assert sol.value == 3
        assert trace.V1 == {0, 1, 2}
        assert is_feasible(complete(3), VC2, sol.members)

    def test_p4(self):
        # square of P4 has triangle {0,1,2}; vertex 3 then isolates
        sol, trace = g2mvc_53(path(4))
        assert sol.value == 3
        assert trace.V1 == {0, 1, 2}
        assert trace.W1 == {0, 1, 2, 3}

    def test_k2(self):
        sol, trace = g2mvc_53(Graph(2, [(0, 1)]))
        assert sol.value == 1
        assert trace.V2 == {1}  # degree-1 rule takes the neighbor

    def test_rejects_weighted(self):
        g = Graph(2, [(0, 1)], weights={0: 1, 1: 1})
        with pytest.raises(InputError, match="g2mvc_53 is unweighted"):
            g2mvc_53(g)
        with pytest.raises(InputError, match="g2mvc_53 is unweighted"):
            vc_53_on_square(square(g))


PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
# its square takes the degree-2 rule after part 1's triangles
SEVEN = Graph(7, [(0, 1), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4),
                  (5, 6)])


class TestDegreeRules:
    """Part 2's degree-2 and degree-3 rules.  The routine accepts any
    graph, and squares rarely reach these rules."""

    @pytest.mark.parametrize("h,v1,v2", [
        (cycle(5), set(), {1, 2, 4}),  # degree 2
        (Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
         set(), {1, 2, 3, 4, 5}),  # K3,3: degree 3
        (PETERSEN, set(), {1, 2, 3, 4, 5, 8, 9}),  # degree 3, then 1
        (square(SEVEN), {0, 1, 2}, {4, 5, 6}),  # degree 2 in a square
    ], ids=["C5", "K33", "petersen", "square"])
    def test_rule_takes(self, h, v1, v2):
        cover, trace = vc_53_on_square(h)
        assert (trace.V1, trace.V2, trace.V3) == (v1, v2, set())
        assert all(a in cover or b in cover for a, b in h.edges())

    def test_square_case_within_five_thirds(self):
        cover, _ = vc_53_on_square(square(SEVEN))
        assert len(cover) == 6 and len(exact_mvc(square(SEVEN)).members) == 5
        assert is_feasible(SEVEN, VC2, cover)


class TestTraceInvariants:
    def test_structure_on_random_graphs(self):
        for g in random_cases(25, 11, 1200):
            h = square(g)
            cover, trace = vc_53_on_square(h)
            red = set(g.edges())
            assert cover == trace.V1 | trace.V2 | trace.V3
            assert not (trace.W1 & trace.W2)
            assert not (trace.W1 & trace.W3)
            assert not (trace.W2 & trace.W3)
            assert is_feasible(g, VC2, cover)

            # R equals the square induced on its vertices and is triangle-free
            verts, edges = trace.R
            induced = {
                (a, b) for (a, b) in h.edges() if a in verts and b in verts
            }
            assert set(edges) == induced
            adj = {v: set() for v in verts}
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
            for a, b in edges:
                assert not (adj[a] & adj[b])  # no triangle through (a, b)

            # the distance-1 edges that survive part 1 form a matching
            red_r = [e for e in edges if e in red]
            touched = [v for e in red_r for v in e]
            assert len(touched) == len(set(touched))

            # blue-edge bound: s1 >= number of distance-2 edges of R
            blue_r = [e for e in edges if e not in red]
            assert trace.s1 >= len(blue_r)

            # after part 2 every remaining vertex has degree >= 4
            verts_p, edges_p = trace.R_prime
            deg = {v: 0 for v in verts_p}
            for a, b in edges_p:
                deg[a] += 1
                deg[b] += 1
            assert all(d >= 4 for d in deg.values())
            if verts_p:
                assert 2 * trace.s1 >= 3 * len(verts_p)

    def test_part_charging_against_oracle(self):
        for g in random_cases(20, 10, 3400, p=0.5):
            h = square(g)
            cover, trace = vc_53_on_square(h)
            for w, s, num, den in (
                (trace.W1, trace.s1, 2, 3),
                (trace.W2, trace.s2, 3, 5),
                (trace.W3, trace.s3, 1, 2),
            ):
                induced = [
                    (a, b) for (a, b) in h.edges() if a in w and b in w
                ]
                opt_w = brute_min_vc(h.n, induced)
                assert den * opt_w >= num * s


@st.composite
def routine_inputs(draw):
    """A graph on at most 14 vertices, possibly with isolated vertices: as
    drawn, its square, or its square induced on a subset U (the hybrid's
    H = G^2[U], whose vertices outside U keep no edge)."""
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)
                 if pairs else st.just([]))
    g = Graph(n, edges)
    shape = draw(st.sampled_from(["graph", "square", "induced"]))
    if shape == "graph":
        return g
    h = square(g)
    if shape == "square":
        return h
    U = draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    return Graph(n, [(a, b) for a, b in h.edges() if a in U and b in U])


class TestAgainstSetOracle:
    """vc_53_on_square reads h's adjacency tuples in part 1; the reference
    copies h into one set per vertex first.  Every part must agree."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(routine_inputs())
    def test_cover_and_trace_match(self, h):
        cover, trace = vc_53_on_square(h)
        ref_cover, ref = vc_53_by_sets(h)
        assert cover == ref_cover
        for part in ("V1", "V2", "V3", "W1", "W2", "W3", "R", "R_prime"):
            assert getattr(trace, part) == ref[part], part

    def test_memory_stays_linear(self):
        # The square has 3,000 vertices and about 63,000 edges: a copy of it
        # as one set per vertex takes about 7.2 MB, and the routine needs
        # under 1 MB.  The bound leaves headroom because Python's object
        # sizes differ between 3.10 and 3.11.
        g = Graph(3000, sparse_connected(3000, 6, random.Random(1)))
        h = square(g)
        assert traced_peak(lambda: vc_53_on_square(h)) < 2.5e6


class TestG2Mvc53Ratio:
    def test_ratio_on_random_graphs(self):
        for g in random_cases(30, 10, 5600):
            sol, _ = g2mvc_53(g)
            opt = brute_min_vc(g.n, list(square(g).edges()))
            assert is_feasible(g, VC2, sol.members)
            assert 3 * sol.value <= 5 * opt

    def test_dense_and_sparse_families(self):
        for g in (complete(8), cycle(9), path(12), star(9)):
            sol, _ = g2mvc_53(g)
            opt = exact_mvc(square(g)).value
            assert is_feasible(g, VC2, sol.members)
            assert 3 * sol.value <= 5 * opt


class TestHybrid:
    def test_cycle5(self):
        sol, stats = g2mvc_hybrid(cycle(5))
        assert is_feasible(cycle(5), VC2, sol.members)
        assert sol.value <= 5  # OPT is 4; 5/3 * 4 > 5 never needed
        assert stats.rounds > 0

    def test_star(self):
        g = star(10)  # center 0 with 9 leaves
        sol, _ = g2mvc_hybrid(g)
        assert sol.members == set(range(1, 10))
        assert sol.value == 9

    def test_ratio_on_random_graphs(self):
        for g in random_cases(25, 10, 7800):
            sol, _ = g2mvc_hybrid(g)
            opt = brute_min_vc(g.n, list(square(g).edges()))
            assert is_feasible(g, VC2, sol.members)
            assert 3 * sol.value <= 5 * opt

    def test_linear_round_budget(self):
        for n in (8, 12, 16):
            g = path(n)
            _, stats = g2mvc_hybrid(g)
            assert stats.rounds <= 40 * n

    def test_deterministic(self):
        g = Graph(9, random_connected_gnp(9, 0.4, seed=44))
        s1, _ = g2mvc_hybrid(g)
        s2, _ = g2mvc_hybrid(g)
        assert s1.members == s2.members
