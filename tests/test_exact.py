import random
from fractions import Fraction

import pytest

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
            weights = {v: rng.randint(0, 9) for v in range(n)}
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

    def test_cap_counts_non_isolated_vertices(self):
        g = Graph(100, [(0, 1)])
        assert exact_mvc(g).value == 1  # isolated vertices do not count
        big = complete(10)
        with pytest.raises(SizeCapError):
            exact_mvc(big, cap=9)

    def test_deterministic(self):
        edges = random_connected_gnp(9, 0.4, seed=42)
        g = Graph(9, edges)
        assert exact_mvc(g).members == exact_mvc(g).members

    def test_disjoint_union_solved_per_component(self):
        # each part is under the cap, their union is over it
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
        assert offset > 64
        sol = exact_mvc(union)
        assert is_feasible(union, VC1, sol.members)
        assert sol.value == sum(exact_mvc(part).value for part in parts)
        offset, expected = 0, set()
        for part in parts:
            expected |= {v + offset for v in exact_mvc(part).members}
            offset += part.n
        assert sol.members == expected

    def test_cap_error_names_the_component(self):
        g = Graph(80, [(v, v + 1) for v in range(69)] + [(70, 71)])
        with pytest.raises(SizeCapError, match="component of 70 vertices"):
            exact_mvc(g)
        assert exact_mvc(g, cap=70).value == 35 + 1


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
            weights = {v: rng.randint(0, 7) for v in range(n)}
            g = Graph(n, edges, weights=weights)
            s = exact_mds(g)
            assert is_feasible(g, DS1, s.members)
            assert s.value == brute_min_ds(n, edges, weights)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            exact_mds(Graph(70, []), cap=64)

    def test_deterministic(self):
        edges = random_connected_gnp(9, 0.35, seed=77)
        g = Graph(9, edges)
        assert exact_mds(g).members == exact_mds(g).members


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
