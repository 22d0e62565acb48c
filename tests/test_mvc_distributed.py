import random
from fractions import Fraction

import pytest

from powergraph.errors import ConnectivityError, EncodingError, InputError
from powergraph.exact import exact_mvc
from powergraph.graph import VC2, Graph, is_feasible, square
from powergraph.mvc_distributed import (
    build_H_from_F,
    class_selectable,
    effective_epsilon,
    g2mvc_cc_voting,
    g2mvc_eps,
    g2mvc_trivial,
    g2mwvc_eps,
    phase1_unweighted,
    weight_classes,
    weighted_phase1,
)
from powergraph.sim import CLIQUE, CONGEST, Model

from oracles import brute_min_vc, random_connected_gnp
from test_graph import complete, cycle, path, star


def square_opt(g):
    return exact_mvc(square(g))


class TestEffectiveEpsilon:
    def test_values(self):
        assert effective_epsilon(Fraction(1, 2)) == (2, Fraction(1, 2))
        assert effective_epsilon(Fraction(2, 5)) == (3, Fraction(1, 3))
        assert effective_epsilon(1) == (1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            effective_epsilon(0)


class TestBuildHFromF:
    def test_direct_and_two_hop_edges(self):
        # path 0-1-2 with U = {0, 2}: H gets the distance-2 edge via 1
        h = build_H_from_F([(0, 1), (1, 2)], {0, 2}, n=3)
        assert list(h.edges()) == [(0, 2)]

    def test_matches_square_on_random_graphs(self):
        rng = random.Random(3)
        for trial in range(30):
            n = rng.randint(2, 9)
            edges = random_connected_gnp(n, 0.35, seed=300 + trial)
            g = Graph(n, edges)
            u = {v for v in range(n) if rng.random() < 0.6}
            f = [e for e in g.edges() if e[0] in u or e[1] in u]
            h = build_H_from_F(f, u, n=n)
            sq = square(g)
            expected = [
                (a, b) for (a, b) in sq.edges() if a in u and b in u
            ]
            assert list(h.edges()) == expected


class TestPhase1Unweighted:
    def test_few_uncovered_neighbors_afterwards(self):
        rng = random.Random(8)
        for trial in range(15):
            n = rng.randint(2, 12)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=100 + trial))
            for eps in (1, Fraction(1, 2), Fraction(1, 3)):
                l, _ = effective_epsilon(eps)
                S, outs, _ = phase1_unweighted(g, eps)
                U = set(range(n)) - S
                for v in range(n):
                    assert outs[v]["u_nbrs"] == frozenset(g.adj[v]) & U
                    assert len(outs[v]["u_nbrs"]) <= l

    def test_batches_have_more_than_l_vertices(self):
        rng = random.Random(17)
        for trial in range(10):
            n = rng.randint(4, 12)
            g = Graph(n, random_connected_gnp(n, 0.5, seed=700 + trial))
            eps = Fraction(1, 2)
            l, _ = effective_epsilon(eps)
            S, outs, _ = phase1_unweighted(g, eps)
            batches = {}
            for v in S:
                batches.setdefault(outs[v]["joined_center"], []).append(v)
            for center, members in batches.items():
                assert center is not None
                assert len(members) >= l + 1

    def test_low_degree_graph_fires_nothing(self):
        S, _, _ = phase1_unweighted(cycle(5), Fraction(1, 2))
        assert S == set()

    def test_star_center_fires(self):
        g = star(7)  # center 0 with 6 leaves
        S, outs, _ = phase1_unweighted(g, Fraction(1, 3))
        assert S == set(range(1, 7))
        assert outs[0]["fired"]


class TestG2MvcEps:
    def test_cycle5(self):
        sol, stats = g2mvc_eps(cycle(5), Fraction(1, 2))
        assert is_feasible(cycle(5), VC2, sol.members)
        assert sol.value == 4  # square of C5 is K5
        assert stats.rounds > 0

    def test_star(self):
        g = star(7)
        sol, _ = g2mvc_eps(g, Fraction(1, 3))
        assert sol.members == set(range(1, 7))
        assert sol.value == 6 == square_opt(g).value

    def test_single_vertex_and_edge(self):
        sol, _ = g2mvc_eps(Graph(1, []), Fraction(1, 2))
        assert sol.members == frozenset()
        sol, _ = g2mvc_eps(Graph(2, [(0, 1)]), Fraction(1, 2))
        assert sol.value == 1

    def test_eps_above_one_takes_everything(self):
        g = cycle(6)
        sol, stats = g2mvc_eps(g, 2)
        assert sol.members == set(range(6))
        assert stats.rounds == 0

    def test_sparse_graph_of_a_thousand_vertices(self):
        # a random tree plus random edges, average degree 3: H = G^2[U]
        # has over 64 active vertices, in components of a few dozen
        rng = random.Random(1000)
        n = 1000
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        while len(edges) < 3 * n // 2:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        sol, _ = g2mvc_eps(g, Fraction(1, 2), seed=1)
        assert is_feasible(g, VC2, sol.members)

    def test_ratio_on_random_graphs(self):
        rng = random.Random(31)
        for trial in range(15):
            n = rng.randint(2, 10)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=400 + trial))
            opt = square_opt(g).value
            for eps in (1, Fraction(1, 2), Fraction(1, 3)):
                sol, _ = g2mvc_eps(g, eps)
                assert is_feasible(g, VC2, sol.members)
                assert sol.value <= (1 + eps) * opt

    def test_round_budget_linear_in_n_over_eps(self):
        for n in (6, 10, 14):
            g = path(n)
            for eps in (1, Fraction(1, 2), Fraction(1, 4)):
                l, _ = effective_epsilon(eps)
                _, stats = g2mvc_eps(g, eps)
                assert stats.rounds <= 12 * n * l + 30

    def test_rejects_weighted_and_disconnected(self):
        with pytest.raises(InputError):
            g2mvc_eps(Graph(2, [(0, 1)], weights={0: 1, 1: 1}), 1)
        with pytest.raises(ConnectivityError):
            g2mvc_eps(Graph(4, [(0, 1), (2, 3)]), 1)

    def test_deterministic(self):
        g = Graph(9, random_connected_gnp(9, 0.4, seed=5))
        s1, st1 = g2mvc_eps(g, Fraction(1, 2), seed=3)
        s2, st2 = g2mvc_eps(g, Fraction(1, 2), seed=3)
        assert s1.members == s2.members
        assert st1.rounds == st2.rounds


class TestG2MvcTrivial:
    def test_all_vertices(self):
        g = cycle(7)
        sol = g2mvc_trivial(g)
        assert sol.members == set(range(7))
        assert is_feasible(g, VC2, sol.members)

    def test_within_factor_two_on_connected_graphs(self):
        rng = random.Random(41)
        for trial in range(10):
            n = rng.randint(2, 9)
            g = Graph(n, random_connected_gnp(n, 0.35, seed=600 + trial))
            assert g2mvc_trivial(g).value <= 2 * square_opt(g).value


class TestWeightedPhase1:
    def test_no_selectable_class_remains(self):
        rng = random.Random(53)
        for trial in range(12):
            n = rng.randint(2, 10)
            edges = random_connected_gnp(n, 0.4, seed=800 + trial)
            weights = {v: rng.randint(0, 8) for v in range(n)}
            g = Graph(n, edges, weights=weights)
            eps = Fraction(1, 2)
            S, _ = weighted_phase1(g, eps)
            U = set(range(n)) - S
            for c in range(n):
                _, classes = weight_classes(g, c, restrict=U)
                for members in classes.values():
                    assert not class_selectable(g, members, eps)

    def test_class_survivor_bound(self):
        rng = random.Random(59)
        eps = Fraction(1, 2)
        bound = -(-(2 * (1 + eps)) // eps)  # ceil(2(1+eps)/eps)
        for trial in range(12):
            n = rng.randint(2, 10)
            edges = random_connected_gnp(n, 0.5, seed=850 + trial)
            weights = {v: rng.randint(1, 10) for v in range(n)}
            g = Graph(n, edges, weights=weights)
            S, _ = weighted_phase1(g, eps)
            U = set(range(n)) - S
            for c in range(n):
                _, classes = weight_classes(g, c, restrict=U)
                for members in classes.values():
                    assert len(members) <= bound

    def test_repeated_scans_reach_fixpoint(self):
        # center 0's class {2,3,4,5} (weights 7/2, 2, 2, 2) fails the test,
        # but becomes selectable once center 1 pulls vertex 2 away -- so a
        # single scan over centers in id order is not enough
        g = Graph(
            8,
            [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (1, 7)],
            weights={
                0: 2,
                1: 2,
                2: Fraction(7, 2),
                3: 2,
                4: 2,
                5: 2,
                6: Fraction(7, 2),
                7: Fraction(7, 2),
            },
        )
        eps = Fraction(1, 2)
        S, _ = weighted_phase1(g, eps)
        assert {3, 4, 5} <= S  # only reachable on the second scan
        U = set(range(8)) - S
        for c in range(8):
            _, classes = weight_classes(g, c, restrict=U)
            for members in classes.values():
                assert not class_selectable(g, members, eps)

    def test_zero_weight_vertices_join_immediately(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights={0: 0, 1: 5, 2: 0, 3: 5})
        S, _ = weighted_phase1(g, 1)
        assert {0, 2} <= S

    def test_unencodable_weight_rejected(self):
        g = Graph(2, [(0, 1)], weights={0: 1 << 40, 1: 1})
        with pytest.raises(EncodingError):
            weighted_phase1(g, 1)


class TestG2MwvcEps:
    def test_weighted_star(self):
        g = Graph(
            7,
            [(0, i) for i in range(1, 7)],
            weights={0: 10, **{v: 8 for v in range(1, 7)}},
        )
        sol, _ = g2mwvc_eps(g, 1)
        assert is_feasible(g, VC2, sol.members)
        assert sol.value == 48  # six leaves beat five leaves plus the center

    def test_zero_weights_are_free(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights={0: 0, 1: 5, 2: 0, 3: 5})
        sol, _ = g2mwvc_eps(g, Fraction(1, 2))
        assert is_feasible(g, VC2, sol.members)
        assert {0, 2} <= sol.members
        assert sol.value == 5

    def test_ratio_on_random_weighted_graphs(self):
        rng = random.Random(61)
        for trial in range(12):
            n = rng.randint(2, 9)
            edges = random_connected_gnp(n, 0.4, seed=900 + trial)
            weights = {v: rng.randint(0, 9) for v in range(n)}
            g = Graph(n, edges, weights=weights)
            opt = brute_min_vc(n, list(square(g).edges()), weights)
            for eps in (1, Fraction(1, 2)):
                sol, _ = g2mwvc_eps(g, eps)
                assert is_feasible(g, VC2, sol.members)
                assert sol.value <= (1 + eps) * opt

    def test_fractional_weights(self):
        g = Graph(
            3,
            [(0, 1), (1, 2)],
            weights={0: Fraction(1, 3), 1: Fraction(1, 2), 2: Fraction(1, 4)},
        )
        sol, _ = g2mwvc_eps(g, Fraction(1, 2))
        assert is_feasible(g, VC2, sol.members)
        assert sol.value <= Fraction(3, 2) * Fraction(7, 12)

    def test_requires_weights(self):
        with pytest.raises(InputError):
            g2mwvc_eps(path(3), 1)

    def test_deterministic(self):
        rng = random.Random(67)
        weights = {v: rng.randint(1, 9) for v in range(8)}
        g = Graph(8, random_connected_gnp(8, 0.4, seed=12), weights=weights)
        s1, _ = g2mwvc_eps(g, Fraction(1, 2))
        s2, _ = g2mwvc_eps(g, Fraction(1, 2))
        assert s1.members == s2.members


class TestCliqueVoting:
    def test_big_star(self):
        g = star(21)  # center 0 with 20 leaves
        sol, _ = g2mvc_cc_voting(g, Fraction(1, 2), seed=1)
        assert sol.members == set(range(1, 21))
        assert sol.value == 20 == square_opt(g).value

    def test_cycle5(self):
        sol, _ = g2mvc_cc_voting(cycle(5), Fraction(1, 2), seed=2)
        assert is_feasible(cycle(5), VC2, sol.members)
        assert sol.value == 4

    def test_single_vertex(self):
        sol, _ = g2mvc_cc_voting(Graph(1, []), 1)
        assert sol.members == frozenset()

    def test_ratio_on_random_graphs(self):
        rng = random.Random(71)
        for trial in range(10):
            n = rng.randint(2, 10)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=950 + trial))
            opt = square_opt(g).value
            for eps in (1, Fraction(1, 2)):
                sol, _ = g2mvc_cc_voting(g, eps, seed=trial)
                assert is_feasible(g, VC2, sol.members)
                assert sol.value <= (1 + eps) * opt

    def test_round_budget(self):
        import math

        for n, eps in ((21, Fraction(1, 2)), (15, 1)):
            g = star(n)
            _, stats = g2mvc_cc_voting(g, eps, seed=0)
            budget = 40 * (math.log2(n) + float(1 / eps)) + 40
            assert stats.rounds <= budget

    def test_deterministic_per_seed(self):
        g = Graph(10, random_connected_gnp(10, 0.5, seed=9))
        s1, st1 = g2mvc_cc_voting(g, Fraction(1, 2), seed=4)
        s2, st2 = g2mvc_cc_voting(g, Fraction(1, 2), seed=4)
        assert s1.members == s2.members
        assert st1.rounds == st2.rounds

    def test_requires_clique_model(self):
        with pytest.raises(InputError):
            g2mvc_cc_voting(cycle(5), 1, model=Model(CONGEST))
