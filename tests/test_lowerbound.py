import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph.errors import ContractError, GenerationError, InputError
from powergraph.exact import exact_mds, exact_mvc
from powergraph.graph import DS2, VC2, Graph, is_feasible, square
from powergraph.lowerbound import (
    LowerBoundInstance,
    dangling_transform,
    disjoint,
    gen_mds_base,
    gen_mds_square_exact,
    gen_mds_square_approx_unweighted,
    gen_mvc_base,
    gen_mvc_square,
    gen_mwds_square_approx,
    gen_mwvc_square,
    gen_set_system,
    merged_dangling_transform,
    parse_bits,
    r_covering_holds,
    verify_family,
)

from oracles import (
    brute_min_ds,
    brute_min_vc,
    r_covering_holds_by_subsets,
    random_connected_gnp,
    search_node_counts,
)


def bits4(value):
    return tuple((value >> i) & 1 for i in range(4))


def all_pairs_k2():
    for xv in range(16):
        for yv in range(16):
            yield bits4(xv), bits4(yv)


INTERSECTING = (bits4(1), bits4(1))
DISJOINT_PAIR = (bits4(0), bits4(0))
MIXED_PAIRS = [
    (bits4(1), bits4(1)),
    (bits4(0), bits4(0)),
    (bits4(5), bits4(10)),
    (bits4(15), bits4(15)),
    (bits4(3), bits4(12)),
    (bits4(6), bits4(9)),
]


class TestBitHelpers:
    def test_parse_bits_forms(self):
        assert parse_bits("0110", 4) == (0, 1, 1, 0)
        assert parse_bits([1, 0], 2) == (1, 0)
        with pytest.raises(InputError):
            parse_bits("011", 4)
        with pytest.raises(InputError):
            parse_bits("0120", 4)

    def test_disjoint(self):
        assert disjoint((1, 0), (0, 1))
        assert not disjoint((1, 0), (1, 1))


class TestMvcBase:
    def test_vertex_count_and_cut(self):
        inst = gen_mvc_base(2, *INTERSECTING)
        assert inst.graph.n == 16  # 4k + 8*log2(k)
        assert len(inst.cut) <= inst.cut_cap

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            gen_mvc_base(3, [0] * 9, [0] * 9)
        with pytest.raises(InputError):
            gen_mvc_base(1, [0], [0])

    def test_threshold_against_brute_force(self):
        x, y = INTERSECTING
        inst = gen_mvc_base(2, x, y)
        assert brute_min_vc(inst.graph.n, list(inst.graph.edges())) <= 8
        x, y = DISJOINT_PAIR
        inst = gen_mvc_base(2, x, y)
        assert brute_min_vc(inst.graph.n, list(inst.graph.edges())) > 8

    def test_exhaustive_sweep_k2(self):
        for x, y in all_pairs_k2():
            rep = verify_family(gen_mvc_base(2, x, y))
            assert rep["agree"], (x, y, rep)
            assert rep["partition_ok"] and rep["cut_cap_ok"]


class TestMdsBase:
    def test_vertex_count(self):
        inst = gen_mds_base(2, *INTERSECTING)
        assert inst.graph.n == 20  # 4k + 12*log2(k)

    def test_threshold_against_brute_force(self):
        x, y = INTERSECTING
        inst = gen_mds_base(2, x, y)
        assert brute_min_ds(inst.graph.n, list(inst.graph.edges())) <= 6
        x, y = DISJOINT_PAIR
        inst = gen_mds_base(2, x, y)
        assert brute_min_ds(inst.graph.n, list(inst.graph.edges())) > 6

    def test_exhaustive_sweep_k2(self):
        for x, y in all_pairs_k2():
            rep = verify_family(gen_mds_base(2, x, y))
            assert rep["agree"], (x, y, rep)
            assert rep["partition_ok"] and rep["cut_cap_ok"]


class TestMwvcSquare:
    def test_square_value_matches_base(self):
        for x, y in MIXED_PAIRS:
            base = gen_mvc_base(2, x, y)
            inst = gen_mwvc_square(2, x, y)
            base_opt = brute_min_vc(base.graph.n, list(base.graph.edges()))
            sq_opt = exact_mvc(square(inst.graph)).value
            assert sq_opt == base_opt

    def test_zero_weights_and_count(self):
        inst = gen_mwvc_square(2, *INTERSECTING)
        zero = [v for v in range(inst.graph.n) if inst.graph.weight(v) == 0]
        assert len(zero) == len(inst.gadgets)
        # base + one vertex per bit-gadget edge + one shared vertex per
        # a1/b1 row vertex
        assert inst.graph.n <= 16 + 16 + 4

    def test_verify_sampled_pairs(self):
        for x, y in MIXED_PAIRS:
            rep = verify_family(gen_mwvc_square(2, x, y))
            assert rep["agree"] and rep["partition_ok"] and rep["cut_cap_ok"]


class TestMvcSquare:
    def test_additive_gap_is_twice_gadget_count(self):
        for x, y in MIXED_PAIRS:
            base = gen_mvc_base(2, x, y)
            inst = gen_mvc_square(2, x, y)
            assert inst.params["gadget_count"] == 20  # 2k+4k*log2(k)+8*log2(k)
            base_opt = brute_min_vc(base.graph.n, list(base.graph.edges()))
            sq_opt = exact_mvc(square(inst.graph)).value
            assert sq_opt == base_opt + 2 * inst.params["gadget_count"]

    def test_gadgets_square_to_triangles(self):
        inst = gen_mvc_square(2, *INTERSECTING)
        h2 = square(inst.graph)
        sets = [set(h2.adj[v]) for v in range(h2.n)]
        for meta in inst.gadgets.values():
            v1, v2, v3 = meta["verts"]
            assert v2 in sets[v1] and v3 in sets[v1] and v3 in sets[v2]

    def test_normalized_optimum_form(self):
        inst = gen_mvc_square(2, *INTERSECTING)
        opt = exact_mvc(square(inst.graph))
        norm = normalize_cover(inst, opt.members)
        assert len(norm) == opt.value
        for meta in inst.gadgets.values():
            assert norm & set(meta["verts"]) == set(meta["verts"][:2])

    def test_verify_sampled_pairs(self):
        for x, y in MIXED_PAIRS:
            rep = verify_family(gen_mvc_square(2, x, y))
            assert rep["agree"] and rep["partition_ok"] and rep["cut_cap_ok"]


class TestMdsSquareExact:
    def test_additive_gap_is_gadget_count(self):
        for x, y in (INTERSECTING, DISJOINT_PAIR):
            base = gen_mds_base(2, x, y)
            inst = gen_mds_square_exact(2, x, y)
            # the generator records the gadget count it actually built:
            # one 5-vertex gadget per bit-gadget edge plus one per row vertex
            assert inst.params["gadget_count"] == 28
            assert inst.graph.n == 20 + 5 * 28
            base_opt = brute_min_ds(base.graph.n, list(base.graph.edges()))
            sq_opt = exact_mds(square(inst.graph)).value
            assert sq_opt == base_opt + inst.params["gadget_count"]

    def test_dangling_gadget_preserves_adjacency(self):
        # each deleted edge's endpoints stay adjacent in the square via
        # the gadget head
        inst = gen_mds_square_exact(2, *INTERSECTING)
        h2 = square(inst.graph)
        sets = [set(h2.adj[v]) for v in range(h2.n)]
        for name, meta in inst.gadgets.items():
            if name.startswith("dp"):
                hu, hv = meta["anchors"]
                assert hv in sets[hu]

    def test_normalized_optimum_keeps_middles(self):
        inst = gen_mds_square_exact(2, *INTERSECTING)
        opt = exact_mds(square(inst.graph))
        norm = normalize_cover(inst, opt.members)
        assert len(norm) <= opt.value
        for meta in inst.gadgets.values():
            assert meta["verts"][2] in norm

    def test_verify_sampled_pairs(self):
        for x, y in (INTERSECTING, DISJOINT_PAIR, (bits4(6), bits4(9))):
            rep = verify_family(gen_mds_square_exact(2, x, y))
            assert rep["agree"] and rep["partition_ok"] and rep["cut_cap_ok"]


class TestSetSystem:
    def test_r1_characterization(self):
        # with r=1 the property says exactly: no set is empty or the
        # whole universe
        rng = random.Random(5)
        for _ in range(20):
            universe = rng.randint(1, 6)
            sets = [
                frozenset(
                    e for e in range(1, universe + 1) if rng.random() < 0.5
                )
                for _ in range(3)
            ]
            expected = all(
                s and s != frozenset(range(1, universe + 1)) for s in sets
            )
            assert r_covering_holds(sets, universe, 1) == expected

    def test_generation_and_verification(self):
        system = gen_set_system(8, 4, 2, seed=1)
        assert system.t == 4 and system.universe == 8 and system.r == 2
        full = frozenset(range(1, 9))
        labeled = []
        for i in range(4):
            labeled.append((i, system.sets[i]))
            labeled.append((i, system.complement(i)))
        for (i, s1), (j, s2) in itertools.combinations(labeled, 2):
            if i == j:
                continue
            assert s1 | s2 != full

    def test_deterministic(self):
        a = gen_set_system(8, 4, 2, seed=3)
        b = gen_set_system(8, 4, 2, seed=3)
        assert a.sets == b.sets

    def test_infeasible_parameters(self):
        # over a 1-element universe every set is empty or everything, so
        # even the 1-covering property can never hold
        with pytest.raises(GenerationError):
            gen_set_system(1, 3, 1, seed=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            gen_set_system(0, 3, 1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_agrees_with_subset_enumeration(self, data):
        universe = data.draw(st.integers(1, 6))
        elements = st.frozensets(st.integers(1, universe))
        sets = data.draw(st.lists(elements, min_size=1, max_size=5))
        r = data.draw(st.integers(1, 6))
        assert (r_covering_holds(sets, universe, r)
                == r_covering_holds_by_subsets(sets, universe, r))

    def test_large_system_fails_fast(self):
        # in every try, some 10 of the 30 random sets over 8 elements, each
        # taken as itself or its complement, cover everything, and the
        # check finds them at once
        with pytest.raises(GenerationError):
            gen_set_system(8, 30, 10)


class TestApproxFamilies:
    def test_weighted_gap(self):
        for x, y in MIXED_PAIRS:
            inst = gen_mwds_square_approx(2, 8, 2, x, y, seed=0)
            rep = verify_family(inst)
            assert rep["agree"] and rep["partition_ok"] and rep["cut_cap_ok"]
            if disjoint(x, y):
                assert rep["oracle_value"] >= 7
            else:
                assert rep["oracle_value"] == 6

    def test_unweighted_gap(self):
        for x, y in MIXED_PAIRS:
            inst = gen_mds_square_approx_unweighted(2, 8, 2, x, y, seed=0)
            rep = verify_family(inst)
            assert rep["agree"] and rep["partition_ok"] and rep["cut_cap_ok"]
            if disjoint(x, y):
                assert rep["oracle_value"] >= 9
            else:
                assert rep["oracle_value"] == 8

    def test_set_gadget_weight_two_pair(self):
        # one set with its complement dominates the whole set gadget in
        # the square
        inst = gen_mwds_square_approx(2, 8, 2, *INTERSECTING, seed=0)
        h2 = square(inst.graph)
        pair = {inst.names.index("S_1"), inst.names.index("Sb_1")}
        gadget = [inst.names.index("alpha"), inst.names.index("beta")]
        gadget += [inst.names.index(f"S_{j}") for j in (1, 2)]
        gadget += [inst.names.index(f"Sb_{j}") for j in (1, 2)]
        gadget += [inst.names.index(f"al_{i}") for i in range(1, 9)]
        gadget += [inst.names.index(f"be_{i}") for i in range(1, 9)]
        for v in gadget:
            assert v in pair or pair & set(h2.adj[v])


class TestDanglingTransform:
    def test_single_edge(self):
        h = dangling_transform(Graph(2, [(0, 1)]), 3)
        assert h.n == 5
        assert exact_mvc(square(h)).value == 1 + 2

    def test_triangle(self):
        h = dangling_transform(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3)
        assert exact_mvc(square(h)).value == 2 + 6

    def test_edgeless_unchanged(self):
        h = dangling_transform(Graph(3, []))
        assert h.n == 3 and h.m == 0

    def test_additive_relation_on_random_graphs(self):
        rng = random.Random(11)
        for trial in range(12):
            n = rng.randint(2, 8)
            g = Graph(n, random_connected_gnp(n, 0.45, seed=900 + trial))
            h = dangling_transform(g, 3)
            opt_g = brute_min_vc(g.n, list(g.edges()))
            opt_h = exact_mvc(square(h)).value
            assert opt_h == opt_g + 2 * g.m

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            dangling_transform(Graph(2, [(0, 1)], weights={0: 1, 1: 1}))
        with pytest.raises(InputError):
            dangling_transform(Graph(2, [(0, 1)]), length=4)


class TestMergedDanglingTransform:
    @pytest.mark.parametrize(
        "g",
        [
            Graph(2, [(0, 1)]),
            Graph(4, [(0, 1), (0, 2), (0, 3)]),
            Graph(3, [(0, 1), (1, 2)]),
        ],
    )
    def test_small_examples(self, g):
        h = merged_dangling_transform(g)
        assert exact_mds(square(h)).value == 1 + 1

    def test_additive_relation_on_random_graphs(self):
        rng = random.Random(13)
        for trial in range(12):
            n = rng.randint(2, 8)
            g = Graph(n, random_connected_gnp(n, 0.45, seed=950 + trial))
            h = merged_dangling_transform(g)
            opt_g = brute_min_ds(g.n, list(g.edges()))
            opt_h = exact_mds(square(h)).value
            assert opt_h == opt_g + 1

    def test_rejects_edgeless_and_weighted(self):
        with pytest.raises(InputError):
            merged_dangling_transform(Graph(3, []))
        with pytest.raises(InputError):
            merged_dangling_transform(
                Graph(2, [(0, 1)], weights={0: 1, 1: 1})
            )


def _normalize_vc(inst, cover):
    new = set(cover)
    for meta in inst.gadgets.values():
        if meta["kind"] == "vertex":
            # zero-weight single-vertex gadgets are free to include
            new.add(meta["verts"][0])
        elif meta["kind"] == "path":
            verts = meta["verts"]
            new.difference_update(verts)
            new.update(verts[:2])
    return new


def _uncovered_after(closed, members, check):
    out = []
    for v in check:
        if v in members:
            continue
        if not any(u in members for u in closed[v]):
            out.append(v)
    return out


def _ds_drop(closed, new, drop, anchors):
    """Remove `drop` if domination survives, possibly swapping in one
    anchor; leave it in place otherwise."""
    if drop not in new:
        return
    affected = closed[drop]
    new.discard(drop)
    if not _uncovered_after(closed, new, affected):
        return
    for a in anchors:
        if a in new:
            continue
        trial = new | {a}
        if not _uncovered_after(closed, trial, affected):
            new.add(a)
            return
    new.add(drop)  # no safe single-vertex exchange; keep it


def _normalize_ds(inst, closed, cover):
    new = set(cover)
    for meta in inst.gadgets.values():
        if meta["kind"] == "path":
            verts = meta["verts"]
            new.add(verts[2])
            anchors = sorted(meta["anchors"])
            for p in (4, 3, 1, 0):
                if p < len(verts):
                    _ds_drop(closed, new, verts[p], anchors)
        elif meta["kind"] == "merged":
            common = meta["common"]
            new.add(common[0])
            _ds_drop(closed, new, common[1], [])
            _ds_drop(closed, new, common[2], [])
            for head in meta["heads"]:
                _ds_drop(closed, new, head["verts"][1],
                         sorted(head["anchors"]))
    return new


def normalize_cover(inst, cover):
    """Rewrite a feasible cover into gadget-normal form.

    Vertex-cover instances end with {head, second} inside every path
    gadget; domination instances end with the middle vertex inside every
    gadget, dropping the rest when a single-anchor exchange keeps the set
    feasible.  The result is feasible and never larger; the rewrite is run
    to a fixpoint so it is idempotent.
    """
    kind = VC2 if inst.thresholds["problem"] == "vc" else DS2
    cover = frozenset(cover)
    if not is_feasible(inst.graph, kind, cover):
        raise ContractError("normalize_cover requires a feasible cover")
    if kind == DS2:
        h2 = square(inst.graph)
        closed = [frozenset(h2.adj[v]) | {v} for v in range(h2.n)]
    current = set(cover)
    for _ in range(5):
        if kind == VC2:
            rewritten = _normalize_vc(inst, current)
        else:
            rewritten = _normalize_ds(inst, closed, current)
        if rewritten == current:
            break
        current = rewritten
    result = frozenset(current)
    if inst.graph.total_weight(result) > inst.graph.total_weight(cover):
        raise ContractError("normalization increased the cover weight")
    if not is_feasible(inst.graph, kind, result):
        raise ContractError("normalization broke feasibility")
    return result


def shrink_cover(g, kind, rng):
    """A random feasible cover: start from everything, drop while feasible."""
    members = set(range(g.n))
    for v in rng.sample(range(g.n), g.n):
        trial = members - {v}
        if rng.random() < 0.8 and is_feasible(g, kind, trial):
            members = trial
    return members


class TestNormalizeCover:
    def test_triangle_exchange(self):
        inst = gen_mvc_square(2, *INTERSECTING)
        opt = exact_mvc(square(inst.graph))
        base = normalize_cover(inst, opt.members)
        # force a {2,3} shape inside one gadget, keeping feasibility
        meta = inst.gadgets["dp0"]
        v1, v2, v3 = meta["verts"]
        cover = (set(base) - {v1}) | {v2, v3} | set(meta["anchors"])
        norm = normalize_cover(inst, cover)
        assert len(norm) <= len(cover)
        assert norm & set(meta["verts"]) == {v1, v2}

    def test_idempotent_and_never_larger(self):
        rng = random.Random(31)
        instances = [
            gen_mvc_square(2, *INTERSECTING),
            gen_mds_square_approx_unweighted(2, 8, 2, *INTERSECTING, seed=0),
        ]
        for inst in instances:
            kind = VC2 if inst.thresholds["problem"] == "vc" else DS2
            for _ in range(3):
                cover = shrink_cover(inst.graph, kind, rng)
                norm = normalize_cover(inst, cover)
                assert is_feasible(inst.graph, kind, norm)
                assert inst.graph.total_weight(norm) <= inst.graph.total_weight(cover)
                assert normalize_cover(inst, norm) == norm

    def test_infeasible_cover_rejected(self):
        inst = gen_mvc_square(2, *INTERSECTING)
        with pytest.raises(ContractError):
            normalize_cover(inst, set())


class TestVerifyFamily:
    def test_tampered_partition_flagged(self):
        inst = gen_mvc_base(2, *INTERSECTING)
        assert inst.x_edges  # the intersecting pair has at least one 0 bit
        u, _ = inst.x_edges[0]
        tampered = LowerBoundInstance(
            inst.family, inst.params, inst.x, inst.y, inst.graph, inst.names,
            set(inst.part_a) - {u}, inst.cut_cap, inst.thresholds,
            inst.gadgets, inst.x_edges, inst.y_edges,
        )
        assert not verify_family(tampered)["partition_ok"]

    def test_sidecar_serializes(self):
        inst = gen_mwds_square_approx(2, 8, 2, *INTERSECTING, seed=0)
        blob = json.loads(json.dumps(inst.sidecar(), sort_keys=True))
        assert blob["family"] == "MWDS-SQ-APPROX"
        assert len(blob["partition"]["a"]) + len(blob["partition"]["b"]) == inst.graph.n
        assert blob["cut"] and blob["thresholds"]["low"] == 6

    # (family generator, intersect): the nodes of each exact search that
    # verify_family runs below; edit after an intended change of branch order
    SEARCH_NODES = {
        ("gen_mvc_square", False): [357], ("gen_mvc_square", True): [361],
        ("gen_mwvc_square", False): [357], ("gen_mwvc_square", True): [361],
        ("gen_mds_square_exact", False): [599],
        ("gen_mds_square_exact", True): [204],
        ("gen_mds_base", False): [22399], ("gen_mds_base", True): [6735],
    }

    @pytest.mark.parametrize("gen, k, n", [
        (gen_mvc_square, 8, 464),
        (gen_mwvc_square, 8, 192),
        (gen_mds_square_exact, 4, 400),
        pytest.param(gen_mds_base, 8, 68, marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("intersect", [False, True])
    def test_large_gadgets_agree(self, gen, k, n, intersect):
        # y holds the second half of the k*k bits; a disjoint x holds the
        # first half, an intersecting x every bit
        size = k * k
        half = "1" * (size // 2) + "0" * (size - size // 2)
        x = "1" * size if intersect else half
        y = "".join("1" if b == "0" else "0" for b in half)
        inst = gen(k, x, y)
        assert inst.graph.n == n
        rep, nodes = search_node_counts(lambda: verify_family(inst))
        assert rep["disj"] != intersect
        assert rep["agree"] and rep["cut_cap_ok"] and rep["partition_ok"]
        assert nodes == self.SEARCH_NODES[gen.__name__, intersect]
