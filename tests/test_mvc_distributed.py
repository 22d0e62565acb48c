import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from powergraph import mvc_distributed
from powergraph.errors import ConnectivityError, EncodingError, InputError
from powergraph.exact import exact_mvc
from powergraph.graph import VC2, Graph, is_feasible, square
from powergraph.mvc_distributed import (
    build_H_from_F,
    effective_epsilon,
    g2mvc_cc_voting,
    g2mvc_eps,
    g2mvc_trivial,
    g2mwvc_eps,
    leader_phase2,
    phase1_unweighted,
    weighted_phase1,
)
from powergraph.mvc_centralized import g2mvc_hybrid
from powergraph.sim import CLIQUE, CONGEST, Model, RoundStats, run

from oracles import (
    brute_min_vc, class_selectable, random_connected_gnp, sparse_connected,
    weight_classes,
)
from test_graph import complete, cycle, path, star
from test_weighted_pins import TWO_SCANS


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
        for eps in (0, -1):
            with pytest.raises(InputError, match="eps must be positive"):
                g2mvc_eps(path(3), eps)


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
            expected = [
                (a, b) for (a, b) in square(g).edges() if a in u and b in u
            ]
            assert list(build_H_from_F(f, u, n=n).edges()) == expected
            # mixed orientation, one edge repeated reversed
            mixed = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in f]
            mixed += [(b, a) for a, b in f[:1]]
            h = build_H_from_F(mixed, u, n=n)
            assert list(h.edges()) == expected and h.weights is None
        weights = {v: v + 1 for v in range(n)}
        h = build_H_from_F(f, u, n=n, weights=weights)
        assert list(h.edges()) == expected
        assert h.weights == weights


def _assert_phase1_invariants(g, l, S, outs):
    """After Phase I every vertex has at most l uncovered neighbors, and
    S splits into batches of more than l neighbors of a fired center."""
    U = set(range(g.n)) - S
    batches = {}
    for v in range(g.n):
        assert outs[v]["u_nbrs"] == frozenset(g.adj[v]) & U
        assert len(outs[v]["u_nbrs"]) <= l
        if v in S:
            batches.setdefault(outs[v]["joined_center"], []).append(v)
    for center, members in batches.items():
        assert center is not None and outs[center]["fired"]
        assert all(center in g.adj[v] for v in members)
        assert len(members) >= l + 1


def _record_phase1_sends(monkeypatch):
    """Wrap every Phase I node: count its steps and keep each nonempty
    outbox under (node, sweep)."""
    rec = SimpleNamespace(steps=0, outboxes={})

    def recording_run(g, factory, *args, **kwargs):
        def recorded(ctx):
            prog = factory(ctx)
            step = prog.step

            def recorded_step(r, inbox):
                rec.steps += 1
                outbox = step(r, inbox)
                if outbox:
                    rec.outboxes[(ctx.node, r)] = dict(outbox)
                return outbox

            prog.step = recorded_step
            return prog

        return run(g, recorded, *args, **kwargs)

    monkeypatch.setattr(mvc_distributed, "run", recording_run)
    return rec


class TestPhase1Unweighted:
    def test_few_uncovered_neighbors_afterwards(self):
        rng = random.Random(8)
        for trial in range(15):
            n = rng.randint(2, 12)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=100 + trial))
            for eps in (1, Fraction(1, 2), Fraction(1, 3)):
                l, _ = effective_epsilon(eps)
                S, outs, _ = phase1_unweighted(g, eps)
                _assert_phase1_invariants(g, l, S, outs)

    def test_batches_have_more_than_l_vertices(self):
        rng = random.Random(17)
        for trial in range(10):
            n = rng.randint(4, 12)
            g = Graph(n, random_connected_gnp(n, 0.5, seed=700 + trial))
            eps = Fraction(1, 2)
            l, _ = effective_epsilon(eps)
            S, outs, _ = phase1_unweighted(g, eps)
            _assert_phase1_invariants(g, l, S, outs)

    def test_three_thousand_vertices_sleep_through_the_schedule(self, monkeypatch):
        # host cost follows the messages, not n times the 4 * i_max sweeps
        g = Graph(3000, sparse_connected(3000, 3, random.Random(3000)))
        l, _ = effective_epsilon(Fraction(1, 2))
        i_max = g.n // (l + 1) + 1
        sends = _record_phase1_sends(monkeypatch)
        S, outs, stats = phase1_unweighted(g, Fraction(1, 2))
        assert stats.rounds == 4 * i_max + 1
        assert sends.steps <= stats.messages + 2 * g.n
        _assert_phase1_invariants(g, l, S, outs)
        # a candidacy once and at most one leave notice per node
        candidacies = Counter(v for (v, r) in sends.outboxes if r % 4 == 0)
        assert candidacies and max(candidacies.values()) <= 2

    def test_relay_reaches_only_candidates(self, monkeypatch):
        # Candidates announce in sweep 0 and leave by a notice (0,) in a
        # candidacy sweep or by firing in sweep 4i + 2.  Sweep 4i + 1
        # relays a node's maximum over its candidate neighbors and itself,
        # if a candidate: only when it changed since the node's last relay,
        # and only to that maximum, when it is a candidate neighbor.  The
        # centers that fire are the candidates that are their two-hop
        # maximum.
        g = Graph(200, sparse_connected(200, 6, random.Random(41)))
        sends = _record_phase1_sends(monkeypatch)
        S, outs, _ = phase1_unweighted(g, Fraction(1, 2))
        assert S
        out = sends.outboxes
        cands = {v for (v, r) in out if r == 0}
        assert cands and all(out[(v, 0)] == dict.fromkeys(g.adj[v], (1,))
                             for v in cands)
        candidacies = Counter(v for (v, r) in out if r % 4 == 0)
        assert max(candidacies.values()) <= 2
        two_hops = [{v}.union(g.adj[v], *(g.adj[u] for u in g.adj[v]))
                    for v in range(g.n)]
        last = [None] * g.n
        relays = fires = 0
        for i in range(max(r for (_, r) in out) // 4 + 1):
            left = {v for (v, r) in out if r == 4 * i and i > 0}
            assert left <= cands and all(
                out[(v, 4 * i)] == dict.fromkeys(g.adj[v], (0,)) for v in left)
            cands -= left
            for v in range(g.n):
                top = max(cands & {v, *g.adj[v]}, default=None)
                relay = out.get((v, 4 * i + 1))
                if top != last[v] and top not in (None, v):
                    assert relay == {top: (top,)}
                    relays += 1
                else:
                    assert relay is None
                last[v] = top
            fired = {v for (v, r) in out if r == 4 * i + 2}
            assert fired == {v for v in cands if max(two_hops[v] & cands) == v}
            assert all(outs[v]["fired"] for v in fired)
            fires += len(fired)
            cands -= fired
        assert relays and fires and not cands

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
        g = Graph(1000, sparse_connected(1000, 3, random.Random(1000)))
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
        g = TWO_SCANS
        eps = Fraction(1, 2)
        S, _ = weighted_phase1(g, eps)
        assert {3, 4, 5} <= S  # only reachable on the second scan
        U = set(range(8)) - S
        for c in range(8):
            _, classes = weight_classes(g, c, restrict=U)
            for members in classes.values():
                assert not class_selectable(g, members, eps)

    def test_every_scan_gets_new_programs(self, monkeypatch):
        # each scan steps programs of its own, over one record per node
        # that lasts across the scans
        scans = []

        def recording_run(g, factory, *args, **kwargs):
            programs = []

            def recorded(ctx):
                programs.append(factory(ctx))
                return programs[-1]

            scans.append(programs)
            return run(g, recorded, *args, **kwargs)

        monkeypatch.setattr(mvc_distributed, "run", recording_run)
        S, _ = weighted_phase1(TWO_SCANS, Fraction(1, 2))
        assert len(scans) == 3  # two scans select, the third selects nobody
        programs = [p for ps in scans for p in ps]
        assert len({id(p) for p in programs}) == len(programs) == 3 * 8
        records = [p.output for p in scans[0]]
        for ps in scans:
            assert all(p.output is rec for p, rec in zip(ps, records))
        assert S == {v for v, rec in enumerate(records) if rec.in_S}

    def test_zero_weight_vertices_join_immediately(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights={0: 0, 1: 5, 2: 0, 3: 5})
        S, _ = weighted_phase1(g, 1)
        assert {0, 2} <= S

    def test_unencodable_weight_rejected(self):
        g = Graph(2, [(0, 1)], weights={0: 1 << 40, 1: 1})
        with pytest.raises(EncodingError):
            weighted_phase1(g, 1)

    def test_class_mask_wider_than_bandwidth_rejected(self):
        # a weight takes 4 words, so center 0's one-class mask makes 5;
        # at 5 words the same star is scanned
        g = Graph(5, [(0, i) for i in range(1, 5)],
                  weights={0: 5, 1: 1, 2: 1, 3: 1, 4: 1})
        with pytest.raises(EncodingError, match="class mask for center 0"):
            weighted_phase1(g, 1, Model(CONGEST, bandwidth_words=4))
        S, _ = weighted_phase1(g, 1, Model(CONGEST, bandwidth_words=5))
        assert S == {1, 2, 3, 4}


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


class TestSeedIgnored:
    """The clustering algorithms and the 5/3 hybrid draw nothing: every
    seed gives the same cover and the same RoundStats."""

    @pytest.mark.parametrize("variant", [CONGEST, CLIQUE])
    def test_same_output_for_every_seed(self, variant):
        rng = random.Random(79)
        shapes = [random_connected_gnp(10, 0.4, seed=1500),
                  random_connected_gnp(14, 0.5, seed=1501),
                  sparse_connected(40, 4, rng)]
        model = Model(variant)
        half = Fraction(1, 2)
        for edges in shapes:
            n = 1 + max(v for e in edges for v in e)
            g = Graph(n, edges)
            gw = Graph(n, edges, weights={v: rng.randint(1, 9) for v in range(n)})
            for solve in (
                lambda s: g2mvc_eps(g, half, model, seed=s),
                lambda s: g2mwvc_eps(gw, half, model, seed=s),
                lambda s: g2mvc_hybrid(g, model, seed=s),
            ):
                outs = {repr((sorted(sol.members), stats))
                        for sol, stats in map(solve, range(4))}
                assert len(outs) == 1


@pytest.mark.parametrize("name,solve,weighted", [
    ("g2mvc_trivial", g2mvc_trivial, False),
    ("g2mvc_eps", lambda g: g2mvc_eps(g, 1), False),
    ("g2mwvc_eps", lambda g: g2mwvc_eps(g, 1), True),
    ("g2mvc_hybrid", g2mvc_hybrid, False),
    ("g2mvc_cc_voting", lambda g: g2mvc_cc_voting(g, 1), False),
])
def test_input_errors_name_the_algorithm(name, solve, weighted):
    w = {v: 1 for v in range(4)}
    wrong = Graph(4, [(0, 1), (1, 2), (2, 3)], weights=None if weighted else w)
    split = Graph(4, [(0, 1), (2, 3)], weights=w if weighted else None)
    with pytest.raises(InputError, match=name):
        solve(wrong)
    with pytest.raises(ConnectivityError, match=name):
        solve(split)


class TestLeaderPhase2:
    # node 0 and its only neighbor 1 lie outside U, so node 0 holds no item
    G = Graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
                  (2, 6), (4, 6)])
    U = {2, 4, 5, 6}

    @pytest.mark.parametrize("U,counts", [
        (U, [0, 1, 1, 2, 2, 2, 3]),
        ({0}, [0, 1, 0, 0, 0, 0, 0]),  # H has no edge: the cover is empty
    ])
    def test_clique_gathers_without_election_and_scatters_in_one_round(
            self, monkeypatch, U, counts):
        g = self.G
        S = set(range(g.n)) - U
        solve = mvc_distributed._solve_exact
        want, _ = leader_phase2(g, S, Model(CONGEST), solve, RoundStats())

        def no_election(*args, **kwargs):
            raise AssertionError("CLIQUE Phase II ran an election")

        monkeypatch.setattr(mvc_distributed, "elect_leader_bfs", no_election)
        sol, stats = leader_phase2(g, S, Model(CLIQUE), solve, RoundStats())
        assert sol.members == want.members
        cover = sol.members - S
        h_edges = [(a, b) for (a, b) in square(g).edges() if a in U and b in U]
        assert cover <= U and all(a in cover or b in cover for a, b in h_edges)
        assert len(cover) == brute_min_vc(g.n, h_edges)
        assert [len(its) for its in mvc_distributed._f_items(g, U)] == counts
        # items stream straight to node 0, two to a message, then one
        # verdict word per node
        packed = [(c + 1) // 2 for c in counts]
        assert stats.rounds == max(packed) + 1
        assert stats.messages == sum(packed) + g.n - 1


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
