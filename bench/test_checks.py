"""Fast tests of the benchmark's own checks: a wrong answer must be caught.

    python3 -m pytest bench/test_checks.py
"""

from fractions import Fraction
from types import SimpleNamespace

import oracle
import workloads
from tracer import Tracer

# path 0-1-2-3: G^2 has edges 01 02 12 13 23, minimum cover {1, 2}
P4 = [(0, 1), (1, 2), (2, 3)]
PG = SimpleNamespace(budgets=SimpleNamespace(C1_CLUSTERING=12, C2_VOTING=12))


def test_square_by_bfs():
    assert oracle.square_adjacency(4, P4) == [{1, 2}, {0, 2, 3}, {0, 1, 3}, {1, 2}]


def test_cover_and_domination_predicates():
    sq = oracle.square_adjacency(4, P4)
    assert oracle.is_vertex_cover(sq, {1, 2})
    assert not oracle.is_vertex_cover(sq, {1})
    assert oracle.is_dominating_set(sq, {1})
    assert not oracle.is_dominating_set(sq, {0})


def test_exact_optima():
    sq = oracle.square_adjacency(4, P4)
    assert oracle.min_vertex_cover(sq) == 2
    assert oracle.min_vertex_cover(sq, [5, 1, 1, 5]) == 2
    assert oracle.min_vertex_cover(sq, [1, 9, 9, 1]) == 11  # {0, 1, 3}
    assert oracle.min_dominating_set(sq) == 1


def test_clique_partition_bound_is_a_lower_bound():
    # path of 9: parts N[1], N[4], N[7] give 2 + 2 + 2
    path = [(i, i + 1) for i in range(8)]
    adj = oracle.adjacency(9, path)
    bound = oracle.clique_partition_bound(adj)
    assert bound == 6
    assert bound <= oracle.min_vertex_cover(oracle.square_adjacency(9, path))
    weighted = oracle.clique_partition_bound(adj, list(range(1, 10)))
    assert weighted <= oracle.min_vertex_cover(
        oracle.square_adjacency(9, path), list(range(1, 10)))


def _mvc_check(members, value, label="g2mvc_cc_voting", rounds=1, bits=4):
    wl = workloads.MvcDist(0)
    wl.instances = [workloads.Instance("p4", 4, P4)]
    op = workloads.Op(label, (frozenset(members), value, rounds, 0, bits))
    return wl.check(PG, [op])


def test_feasible_cover_within_bound_passes():
    assert _mvc_check({1, 2}, 2) == []


def test_infeasible_cover_is_rejected():
    errors = _mvc_check({1}, 1)
    assert any("infeasible" in e for e in errors)


def test_cover_above_its_bound_is_rejected():
    # all four vertices: 4 > (1 + 1/2) * 2
    errors = _mvc_check({0, 1, 2, 3}, 4)
    assert any("> 3/2 x bound 2" in e for e in errors)


def test_misreported_value_is_rejected():
    assert any("not the weight" in e for e in _mvc_check({1, 2}, 3))


def test_round_budget_and_message_size_are_enforced():
    errors = _mvc_check({1, 2}, 2, rounds=10**6, bits=10**3)
    assert any("rounds > budget" in e for e in errors)
    assert any("-bit message over" in e for e in errors)


def test_dominating_set_checks():
    wl = workloads.MdsDist(0)
    wl.instances = [workloads.Instance("p4", 4, P4)]
    assert wl.check(PG, [workloads.Op("ds", (frozenset({1}), 1, 1, 0, 4))]) == []
    bad = wl.check(PG, [workloads.Op("ds", (frozenset({0}), 1, 1, 0, 4))])
    assert any("infeasible" in e for e in bad)


def test_threshold_crossing():
    th = {"problem": "vc", "power": 1, "value": 5}
    assert oracle.threshold_errors("f", 5, th, intersect=True) == []
    assert oracle.threshold_errors("f", 6, th, intersect=False) == []
    assert oracle.threshold_errors("f", 6, th, intersect=True)
    assert oracle.threshold_errors("f", 5, th, intersect=False)
    gap = {"problem": "ds", "power": 2, "low": 6, "high": 7}
    assert oracle.threshold_errors("f", 6, gap, intersect=True) == []
    assert oracle.threshold_errors("f", 6, gap, intersect=False)
    assert oracle.threshold_errors("f", 7, gap, intersect=True)


def test_estimator_check():
    g = SimpleNamespace(n=4, edges=lambda: iter(P4))
    t = Tracer()
    t.begin_attempt()
    U = {0, 3}
    # true |N2[v] & U| = 1, 2, 2, 1
    t._check_estimates(g, U, [1, 2, 2, 1], [True] * 4, (g, U, None), {})
    assert t.errors == []
    t._check_estimates(g, U, [1, 3, 2, 1], [True] * 4, (g, U, None), {})
    assert len(t.errors) == 1
    cfg = SimpleNamespace(eps_est=Fraction(1, 8))
    sampled = [True, False, True, True]
    # 2.4 vs 2: beyond eps_est, counted but within twice eps_est
    t._check_estimates(g, U, [1, Fraction(12, 5), 2, 1], sampled, (g, U, cfg), {})
    assert len(t.errors) == 1
    assert t.counters["mds_distributed.estimates_over_eps_est"] == 1
    t._check_estimates(g, U, [1, Fraction(13, 5), 2, 1], sampled, (g, U, cfg), {})
    assert len(t.errors) == 2 and "exceeds twice eps_est" in t.errors[-1]
