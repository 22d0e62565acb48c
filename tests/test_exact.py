import inspect
import random
import sys
from fractions import Fraction

import pytest

from powergraph import exact
from powergraph.errors import SizeCapError
from powergraph.exact import exact_mds, exact_mvc
from powergraph.graph import DS1, VC1, Graph, is_feasible, square

from oracles import brute_min_ds, brute_min_vc, random_connected_gnp
from test_graph import complete, cycle, path, star


class TestExactMvc:
    def test_k5(self):
        assert exact_mvc(complete(5)).value == 4

    def test_p4(self):
        s = exact_mvc(path(4))
        assert s.value == 2
        assert is_feasible(path(4), VC1, s.members)

    def test_empty_graph(self):
        assert exact_mvc(Graph(0, [])).value == 0

    def test_edgeless_graph(self):
        assert exact_mvc(Graph(5, [])).members == frozenset()

    def test_star_square(self):
        # square of K_{1,12} is K_13
        assert exact_mvc(square(star(13))).value == 12

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for trial in range(40):
            n = rng.randint(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            g = Graph(n, edges)
            s = exact_mvc(g)
            assert is_feasible(g, VC1, s.members)
            assert s.value == brute_min_vc(n, edges)

    def test_weighted_matches_oracle(self):
        rng = random.Random(23)
        for trial in range(25):
            n = rng.randint(2, 8)
            edges = random_connected_gnp(n, 0.4, seed=500 + trial)
            integral = {v: rng.randint(0, 9) for v in range(n)}
            # rational weights with mixed denominators, zeros included
            mixed = {v: Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 5, 6)))
                     for v in range(n)}
            for weights in (integral, mixed):
                g = Graph(n, edges, weights=weights)
                s = exact_mvc(g)
                assert is_feasible(g, VC1, s.members)
                assert s.value == brute_min_vc(n, edges, weights)

    def test_fractional_weights(self):
        g = Graph(
            3,
            [(0, 1), (1, 2)],
            weights={0: Fraction(1, 3), 1: Fraction(1, 2), 2: Fraction(1, 4)},
        )
        s = exact_mvc(g)
        assert s.value == Fraction(1, 2)
        assert s.members == {1}

    def test_cap_counts_non_isolated_vertices(self, monkeypatch):
        # isolated vertices are never searched: one node covers the edge
        monkeypatch.setattr(exact, "SEARCH_NODES", 1)
        assert exact_mvc(Graph(100, [(0, 1)])).value == 1
        with pytest.raises(SizeCapError, match="exact.SEARCH_NODES = 1 nodes"):
            exact_mvc(cycle(5))

    def test_deterministic(self):
        edges = random_connected_gnp(9, 0.4, seed=42)
        g = Graph(9, edges)
        assert exact_mvc(g).members == exact_mvc(g).members

    def test_disjoint_union_solved_per_component(self):
        rng = random.Random(31)
        parts = [
            Graph(30, random_connected_gnp(30, 0.12, seed=4100)),
            cycle(25),
            Graph(20, random_connected_gnp(20, 0.2, seed=4101),
                  weights={v: rng.randint(1, 5) for v in range(20)}),
        ]
        edges, weights, offset = [], {}, 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            weights.update({v + offset: part.weight(v) for v in range(part.n)})
            offset += part.n
        union = Graph(offset, edges, weights=weights)
        sol = exact_mvc(union)
        assert is_feasible(union, VC1, sol.members)
        assert sol.value == sum(exact_mvc(part).value for part in parts)
        offset, expected = 0, set()
        for part in parts:
            expected |= {v + offset for v in exact_mvc(part).members}
            offset += part.n
        assert sol.members == expected

    def test_cap_error_names_the_component(self, monkeypatch):
        path70 = [(v, v + 1) for v in range(69)]
        assert exact_mvc(Graph(80, path70 + [(70, 71)])).value == 35 + 1
        # the path takes one search node and a 5-cycle beside it three:
        # the budget holds for each component's search on its own
        g = Graph(80, path70 + [(70 + i, 70 + (i + 1) % 5) for i in range(5)])
        monkeypatch.setattr(exact, "SEARCH_NODES", 3)
        assert exact_mvc(g).value == 35 + 3
        monkeypatch.setattr(exact, "SEARCH_NODES", 2)
        with pytest.raises(SizeCapError, match="component of 5 vertices"):
            exact_mvc(g)


class TestExactMds:
    def test_star_center(self):
        s = exact_mds(star(16))
        assert s.value == 1
        assert s.members == {0}

    def test_p5(self):
        assert exact_mds(path(5)).value == 2

    def test_single_vertex(self):
        assert exact_mds(Graph(1, [])).members == {0}

    def test_weighted_k2(self):
        g = Graph(2, [(0, 1)], weights={0: 3, 1: 1})
        s = exact_mds(g)
        assert s.value == 1
        assert s.members == {1}

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(13)
        for trial in range(35):
            n = rng.randint(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(n, edges)
            s = exact_mds(g)
            assert is_feasible(g, DS1, s.members)
            assert s.value == brute_min_ds(n, edges)

    def test_weighted_matches_oracle(self):
        rng = random.Random(29)
        for trial in range(20):
            n = rng.randint(2, 8)
            edges = random_connected_gnp(n, 0.35, seed=900 + trial)
            integral = {v: rng.randint(0, 7) for v in range(n)}
            # rational weights with mixed denominators, zeros included
            mixed = {v: Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 5, 6)))
                     for v in range(n)}
            for weights in (integral, mixed):
                g = Graph(n, edges, weights=weights)
                s = exact_mds(g)
                assert is_feasible(g, DS1, s.members)
                assert s.value == brute_min_ds(n, edges, weights)

    def test_cap(self, monkeypatch):
        # the budget counts search nodes, not vertices
        assert exact_mds(Graph(70, [])).value == 70
        monkeypatch.setattr(exact, "SEARCH_NODES", 4)
        assert exact_mds(cycle(5)).value == 2
        monkeypatch.setattr(exact, "SEARCH_NODES", 3)
        with pytest.raises(SizeCapError,
                           match="of 5 vertices passed exact.SEARCH_NODES = 3"):
            exact_mds(cycle(5))

    def test_deterministic(self):
        edges = random_connected_gnp(9, 0.35, seed=77)
        g = Graph(9, edges)
        assert exact_mds(g).members == exact_mds(g).members


def grid(rows, cols):
    """The rows x cols grid graph; vertex i * cols + j sits at (i, j)."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph(rows * cols, edges)


class TestSearchStack:
    # A search keeps the nodes it has still to visit on a list, so its
    # depth does not grow the interpreter's stack.  Each search below runs
    # with the recursion limit 15 frames above the caller; a recursive
    # search would need 35 (vertex cover) and 18 (dominating set) frames.
    @pytest.mark.parametrize("solve, g, value", [
        (exact_mvc, grid(6, 60), 180),
        (exact_mds, grid(2, 80), 41),
    ])
    def test_deep_search_in_a_shallow_stack(self, solve, g, value):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 15)
        try:
            sol = solve(g)
        finally:
            sys.setrecursionlimit(limit)
        assert sol.value == value


class TestTrivialSquareCoverBound:
    def test_vc2_at_least_half_on_connected_graphs(self):
        # any vertex cover of a connected square graph has >= n - n/2 vertices
        rng = random.Random(5)
        for trial in range(20):
            n = rng.randint(2, 10)
            edges = random_connected_gnp(n, 0.3, seed=2000 + trial)
            g = Graph(n, edges)
            opt = exact_mvc(square(g))
            assert opt.value >= n - n / 2
