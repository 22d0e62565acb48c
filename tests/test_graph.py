import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph.errors import ContractError, InputError
from powergraph.graph import (
    DS1,
    DS2,
    VC1,
    VC2,
    Graph,
    is_feasible,
    make_solution,
    matching_2approx,
    square,
)

from oracles import bfs_dist_le2_edges, random_connected_gnp, sparse_connected


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n):
    # center 0, leaves 1..n-1
    return Graph(n, [(0, i) for i in range(1, n)])


class TestGraphBasics:
    def test_construction_and_adjacency(self):
        g = Graph(4, [(0, 1), (2, 1), (3, 0)])
        assert g.adj[1] == (0, 2)
        assert g.m == 3
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_rejects_missing_weight(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 1)], weights={0: 1})

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 1)], weights={0: 1, 1: -1})

    def test_connectivity(self):
        assert path(4).is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()
        assert Graph(0, []).is_connected()


class TestSquare:
    def test_path3_squares_to_triangle(self):
        g2 = square(path(3))
        assert set(g2.edges()) == {(0, 1), (0, 2), (1, 2)}

    def test_star_squares_to_clique(self):
        g2 = square(star(4))
        assert set(g2.edges()) == {(u, v) for u in range(4) for v in range(u + 1, 4)}

    def test_c5_squares_to_k5(self):
        g2 = square(cycle(5))
        assert g2.m == 10

    def test_square_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randint(1, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            weights = None
            if trial % 2:
                weights = {v: Fraction(rng.randint(0, 9), rng.randint(1, 4))
                           for v in range(n)}
            g = Graph(n, edges, weights=weights)
            oracle_edges = bfs_dist_le2_edges(n, edges)
            h = square(g)
            assert set(h.edges()) == oracle_edges
            assert h == Graph(n, oracle_edges, weights)
            assert h.m == len(oracle_edges)

    def test_square_preserves_weights(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={0: 2, 1: 3, 2: 5})
        g2 = square(g)
        assert g2.weight(2) == 5


class TestFeasibility:
    def test_vc1_on_path(self):
        g = path(4)
        assert is_feasible(g, VC1, {1, 2})
        assert not is_feasible(g, VC1, {0, 3})

    def test_vc2_needs_square_edges(self):
        g = path(3)  # square is a triangle
        assert not is_feasible(g, VC2, {1})
        assert is_feasible(g, VC2, {0, 1})

    def test_ds1_and_ds2(self):
        g = path(5)
        assert is_feasible(g, DS1, {1, 3})
        assert not is_feasible(g, DS1, {2})
        assert is_feasible(g, DS2, {2})  # vertex 2 reaches everyone in 2 hops

    def test_empty_graph_everything_feasible(self):
        g = Graph(0, [])
        assert is_feasible(g, VC2, set())

    def test_member_out_of_range(self):
        with pytest.raises(InputError):
            is_feasible(path(3), VC1, {5})

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            is_feasible(path(3), "vc3", set())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_square_kinds_match_bfs_oracle(self, data):
        # checked on g itself, the rule must agree with the explicit square
        n = data.draw(st.integers(0, 30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        members = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
        g = Graph(n, edges)
        sq_edges = bfs_dist_le2_edges(n, edges)
        nbrs2 = {v: set() for v in range(n)}
        for u, v in sq_edges:
            nbrs2[u].add(v)
            nbrs2[v].add(u)
        vc2 = all(u in members or v in members for u, v in sq_edges)
        ds2 = all(v in members or nbrs2[v] & members for v in range(n))
        assert is_feasible(g, VC2, members) == vc2
        assert is_feasible(g, DS2, members) == ds2


class TestSolutions:
    def test_value_is_total_weight(self):
        g = Graph(3, [(0, 1), (1, 2)], weights={0: 2, 1: 3, 2: 5})
        s = make_solution(g, VC1, {0, 2})
        assert s.value == 7

    def test_unweighted_value_is_cardinality(self):
        s = make_solution(path(4), VC1, {1, 2})
        assert s.value == 2


class TestMatching2Approx:
    def test_path4(self):
        s = matching_2approx(path(4))
        assert is_feasible(path(4), VC1, s.members)
        assert s.value <= 4

    def test_is_two_approx_on_random_graphs(self):
        from oracles import brute_min_vc

        rng = random.Random(3)
        for trial in range(25):
            n = rng.randint(2, 9)
            edges = random_connected_gnp(n, 0.4, seed=100 + trial)
            g = Graph(n, edges)
            s = matching_2approx(g)
            assert is_feasible(g, VC1, s.members)
            assert s.value <= 2 * brute_min_vc(n, edges)

    def test_rejects_weighted(self):
        g = Graph(2, [(0, 1)], weights={0: 1, 1: 1})
        with pytest.raises(ContractError):
            matching_2approx(g)

    def test_deterministic(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        assert matching_2approx(g).members == matching_2approx(g).members


class TestSparseConnectedOracle:
    def test_rejects_more_edges_than_a_simple_graph_has(self):
        # 8 vertices hold at most 28 edges; average degree 12 asks for 48
        with pytest.raises(ValueError, match="48 edges"):
            sparse_connected(8, 12, random.Random(0))
        with pytest.raises(ValueError):
            sparse_connected(8, 7.5, random.Random(0))

    def test_complete_graph_at_the_limit(self):
        edges = sparse_connected(8, 7, random.Random(0))
        assert edges == [(u, v) for u in range(8) for v in range(u + 1, 8)]
