"""End-to-end acceptance matrix for the whole package.

Each test checks one release gate and prints a single PASS line with a
short tally; an assertion failure marks the gate FAIL.  Gates are
property-based (approximation guarantees against exact solvers, structural
invariants, round/bandwidth budgets, exhaustive gadget sweeps, byte-level
determinism of the CLI) at desk scale.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import powergraph
from powergraph.budgets import C1_CLUSTERING, C2_VOTING
from powergraph.exact import exact_mds, exact_mvc
from powergraph.graph import DS2, VC2, Graph, is_feasible, square
from powergraph.lowerbound import (
    dangling_transform,
    gen_mds_base,
    gen_mds_square_approx_unweighted,
    gen_mvc_base,
    gen_mvc_square,
    gen_mwds_square_approx,
    merged_dangling_transform,
    verify_family,
)
from powergraph.mds_distributed import estimate_2hop_counts, g2mds_logd
from powergraph.mvc_centralized import g2mvc_53
from powergraph.mvc_distributed import (
    effective_epsilon,
    g2mvc_cc_voting,
    g2mvc_eps,
    g2mwvc_eps,
    phase1_unweighted,
    weighted_phase1,
)
from powergraph.sim import Model, word_bits

from oracles import (
    brute_min_ds, brute_min_vc, class_selectable, random_connected_gnp,
    weight_classes,
)

EPS_GRID = (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def gate(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {num:02d} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def matrix_graph(seed):
    """Seeded connected G(n, p) with n in [8, 16] and p in {0.2, 0.4}."""
    n = 8 + seed % 9
    p = 0.2 if seed % 2 == 0 else 0.4
    return Graph(n, random_connected_gnp(n, p, seed=9000 + seed))


@pytest.fixture(scope="module")
def eps_matrix():
    """Shared run of the (1+eps) matrix, unweighted and weighted, with the
    local-structure diagnostics recorded for the structural gate."""
    results = {
        "unweighted": 0, "weighted": 0,
        "u_nbr_checks": 0, "survivor_checks": 0,
    }
    for seed in range(50):
        g = matrix_graph(seed)
        rng = random.Random(5000 + seed)
        weights = {v: rng.randint(1, 16) for v in range(g.n)}
        gw = Graph(g.n, list(g.edges()), weights=weights)
        opt = exact_mvc(square(g)).value
        opt_w = exact_mvc(square(gw)).value
        for eps in EPS_GRID:
            sol, _ = g2mvc_eps(g, eps, seed=seed)
            assert is_feasible(g, VC2, sol.members)
            assert sol.value <= (1 + eps) * opt
            results["unweighted"] += 1

            sol_w, _ = g2mwvc_eps(gw, eps, seed=seed)
            assert is_feasible(gw, VC2, sol_w.members)
            assert sol_w.value <= (1 + eps) * opt_w
            results["weighted"] += 1

            # local structure after the clustering phase: few uncovered
            # neighbors (unweighted) and bounded class survivors (weighted)
            l, _ = effective_epsilon(eps)
            S, outs, _ = phase1_unweighted(g, eps)
            U = set(range(g.n)) - S
            for v in range(g.n):
                assert len(frozenset(g.adj[v]) & U) <= l
                results["u_nbr_checks"] += 1
            Sw, _ = weighted_phase1(gw, eps)
            Uw = {v for v in range(gw.n) if v not in Sw}
            bound = -(-(2 * (1 + eps)) // eps)  # ceil(2(1+eps)/eps)
            for c in range(gw.n):
                _, classes = weight_classes(gw, c, restrict=Uw)
                for members in classes.values():
                    assert not class_selectable(gw, members, eps)
                    assert len(members) <= bound
                    results["survivor_checks"] += 1
    return results


def test_01_eps_guarantee_unweighted(eps_matrix):
    count = eps_matrix["unweighted"]
    gate(1, "(1+eps) cover guarantee", count == 150,
         f"{count}/150 runs within (1+eps) of optimum")


def test_02_eps_guarantee_weighted(eps_matrix):
    count = eps_matrix["weighted"]
    gate(2, "weighted (1+eps) guarantee", count == 150,
         f"{count}/150 runs within (1+eps) of weighted optimum")


def test_03_clustering_structure(eps_matrix):
    u = eps_matrix["u_nbr_checks"]
    s = eps_matrix["survivor_checks"]
    gate(3, "post-clustering local structure", u > 0 and s > 0,
         f"{u} uncovered-neighbor checks, {s} class-survivor checks")


def test_04_round_budgets():
    in_budget_1 = in_budget_2 = 0
    total = 100
    for seed in range(total):
        n = 8 + seed % 9
        g = Graph(n, random_connected_gnp(n, 0.4, seed=7000 + seed))
        eps = EPS_GRID[seed % 3]
        l, _ = effective_epsilon(eps)

        _, st1 = g2mvc_eps(g, eps, seed=seed)
        assert st1.max_message_bits <= Model().bandwidth_words * word_bits(n)
        if st1.rounds <= C1_CLUSTERING * n * l:
            in_budget_1 += 1

        _, st2 = g2mvc_cc_voting(g, eps, seed=seed)
        assert st2.max_message_bits <= Model().bandwidth_words * word_bits(n)
        if st2.rounds <= C2_VOTING * (math.log2(n) + 1 / eps):
            in_budget_2 += 1
    ok = in_budget_1 >= 95 and in_budget_2 >= 95
    gate(4, "round budgets", ok,
         f"clustering {in_budget_1}/100, clique voting {in_budget_2}/100 "
         "within budget, every message within bandwidth")


def test_05_centralized_five_thirds():
    count = 0
    for seed in range(200):
        n = 4 + seed % 11
        g = Graph(n, random_connected_gnp(n, 0.4, seed=3000 + seed))
        h = square(g)
        sol, trace = g2mvc_53(g)
        opt = exact_mvc(h).value
        assert is_feasible(g, VC2, sol.members)
        assert 3 * sol.value <= 5 * opt

        # first residual graph is triangle-free
        verts, edges = trace.R
        adj = {v: set() for v in verts}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        for a, b in edges:
            assert not (adj[a] & adj[b])

        # surviving distance-1 edges form a matching
        red = set(g.edges())
        red_r = [e for e in edges if e in red]
        touched = [v for e in red_r for v in e]
        assert len(touched) == len(set(touched))

        # second residual graph: min degree >= 4 and charge bound
        verts_p, edges_p = trace.R_prime
        deg = {v: 0 for v in verts_p}
        for a, b in edges_p:
            deg[a] += 1
            deg[b] += 1
        assert all(d >= 4 for d in deg.values())
        if verts_p:
            assert 2 * trace.s1 >= 3 * len(verts_p)
        count += 1
    gate(5, "centralized 5/3 guarantee + phase invariants", count == 200,
         f"{count}/200 instances")


def test_06_trivial_cover_is_2_approx():
    graphs = [matrix_graph(seed) for seed in range(50)]
    graphs += [Graph(n, [(i, i + 1) for i in range(n - 1)])
               for n in range(2, 17)]  # paths
    graphs += [Graph(n, [(i, (i + 1) % n) for i in range(n)])
               for n in range(3, 17)]  # cycles
    count = 0
    for g in graphs:
        opt = exact_mvc(square(g)).value
        assert opt >= g.n - g.n // 2
        count += 1
    gate(6, "optimum at least n/2 on connected graphs", count == len(graphs),
         f"{count}/{len(graphs)} graphs, so the all-vertices cover is a "
         "2-approximation")


def test_07_estimator_bracket():
    hits = total = 0
    for seed in range(20):
        g = Graph(200, random_connected_gnp(200, 0.1, seed=600 + seed))
        U = set(range(200))
        est, _, _ = estimate_2hop_counts(g, U, seed=seed)
        for v in range(g.n):
            reach = {v} | set(g.adj[v])
            for u in g.adj[v]:
                reach.update(g.adj[u])
            truth = len(reach & U)
            total += 1
            if Fraction(3, 4) * truth <= est[v] <= Fraction(5, 4) * truth:
                hits += 1
    ok = hits >= 0.95 * total
    gate(7, "2-hop count estimator bracket", ok,
         f"{hits}/{total} estimates within (1 +/- 1/4) of truth")


def test_08_mds_harmonic_ratio():
    count = 0
    for seed in range(50):
        n = 4 + seed % 11
        g = Graph(n, random_connected_gnp(n, 0.35, seed=4000 + seed))
        h = square(g)
        sol, _ = g2mds_logd(g, seed=seed)
        assert is_feasible(g, DS2, sol.members)
        opt = exact_mds(h).value
        delta = max(len(h.adj[v]) for v in range(h.n))
        harmonic = sum(Fraction(1, i) for i in range(1, delta + 1))
        assert sol.value <= 8 * harmonic * opt
        count += 1
    gate(8, "dominating-set harmonic ratio", count == 50,
         f"{count}/50 runs within 8*H(max square degree) of optimum, "
         "all feasible")


def bits4(value):
    return tuple((value >> t) & 1 for t in range(4))


def test_09_lowerbound_family_sweeps():
    tallies = []
    for name, gen in (("vc-base", gen_mvc_base),
                      ("vc-square", gen_mvc_square),
                      ("ds-base", gen_mds_base)):
        agree = 0
        for xv in range(16):
            for yv in range(16):
                report = verify_family(gen(2, bits4(xv), bits4(yv)))
                assert report["partition_ok"] and report["cut_cap_ok"]
                if report["agree"]:
                    agree += 1
        tallies.append(f"{name} {agree}/256")
        assert agree == 256
    for name, gen in (("wds-approx", gen_mwds_square_approx),
                      ("ds-approx", gen_mds_square_approx_unweighted)):
        agree = 0
        for xv in range(4):
            for yv in range(4):
                inst = gen(2, 8, 2, bits4(xv), bits4(yv), seed=0)
                report = verify_family(inst)
                assert report["partition_ok"] and report["cut_cap_ok"]
                if report["agree"]:
                    agree += 1
        tallies.append(f"{name} {agree}/16")
        assert agree == 16
    gate(9, "gadget family predicate == disjointness", True,
         ", ".join(tallies))


def nx_test_graphs():
    networkx = pytest.importorskip("networkx")
    graphs = []
    for nxg in networkx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if 1 <= n <= 6 and networkx.is_connected(nxg):
            relabeled = networkx.convert_node_labels_to_integers(nxg)
            graphs.append(Graph(n, sorted(relabeled.edges())))
    return graphs


def test_10_hardness_transforms():
    graphs = nx_test_graphs()
    rng = random.Random(10)
    for trial in range(50):
        n = rng.randint(3, 8)
        graphs.append(Graph(n, random_connected_gnp(n, 0.5, seed=200 + trial)))
    vc_checked = ds_checked = 0
    for g in graphs:
        base_vc = brute_min_vc(g.n, list(g.edges()))
        h = dangling_transform(g, 3)
        assert exact_mvc(square(h)).value == base_vc + 2 * g.m
        vc_checked += 1
        if g.m > 0:
            base_ds = brute_min_ds(g.n, list(g.edges()))
            h2 = merged_dangling_transform(g)
            assert exact_mds(square(h2)).value == base_ds + 1
            ds_checked += 1
    gate(10, "square-hardness transform identities", vc_checked > 140,
         f"cover identity on {vc_checked} graphs, domination identity on "
         f"{ds_checked} graphs")


def cli(*argv, cwd=None):
    # the child imports the same powergraph as this process, installed or not
    src = os.path.dirname(os.path.dirname(powergraph.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "powergraph.cli", *argv],
        capture_output=True, cwd=cwd, env=env,
    )
    return proc.returncode, proc.stdout


def test_11_cli_determinism(tmp_path):
    gfile = str(tmp_path / "g.graph")
    code, _ = cli("gen", "random", "--model", "gnp", "--n", "10",
                  "--p", "2/5", "--seed", "3", "--output", gfile)
    assert code == 0
    sol = tmp_path / "sol.txt"
    sol.write_text("0 1 2 3 4\n")
    lb1, lb2 = str(tmp_path / "lb1.graph"), str(tmp_path / "lb2.graph")
    invocations = [
        ("gen", "random", "--model", "gnp", "--n", "9", "--seed", "8"),
        ("gen", "random", "--model", "tree", "--n", "7", "--seed", "2",
         "--weights", "5"),
        ("run", "--algo", "g2mvc-eps", "--input", gfile, "--eps", "1/2",
         "--with-opt"),
        ("run", "--algo", "g2mds-logd", "--input", gfile, "--seed", "5"),
        ("run", "--algo", "g2mvc-cc", "--input", gfile, "--eps", "1/3"),
        ("run", "--algo", "exact-mds2", "--input", gfile, "--with-opt"),
        ("verify", "--input", gfile, "--solution", str(sol),
         "--kind", "vc2"),
        ("run", "--algo", "g2mvc-eps", "--input", gfile),  # error record
        ("sweep", "--suite", "acceptance"),
    ]
    checked = 0
    for argv in invocations:
        code1, out1 = cli(*argv)
        code2, out2 = cli(*argv)
        assert code1 == code2
        assert out1 == out2, f"output differs for {argv}"
        checked += 1
    for target in (lb1, lb2):
        code, _ = cli("gen", "lb", "--family", "mds-sq-approx", "-T", "2",
                      "--x", "5", "--y", "a", "--seed", "1",
                      "--output", target)
        assert code == 0
    assert Path(lb1).read_text() == Path(lb2).read_text()
    assert Path(lb1 + ".json").read_text() == Path(lb2 + ".json").read_text()
    checked += 1
    gate(11, "byte-identical repeated CLI invocations", True,
         f"{checked} invocation pairs compared")
