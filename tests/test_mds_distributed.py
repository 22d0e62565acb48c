import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph import mds_distributed
from powergraph.errors import InputError, RoundCapError
from powergraph.graph import DS2, Graph, is_feasible, square
from powergraph.mds_distributed import (
    EstimateConfig,
    estimate_2hop_counts,
    g2mds_logd,
)
from powergraph.sim import (
    CLIQUE, CONGEST, Model, NodeContext, NodeProgram, word_bits,
)

from oracles import (
    brute_min_ds, chunked_sample_sums, draw_words_by_divmod, fold_by_zip,
    random_connected_gnp, sampled_2hop_estimates, sparse_connected,
    traced_peak,
)
from test_graph import cycle, path, star


def two_hop_counts(g, U):
    counts = []
    for v in range(g.n):
        reach = {v} | {u for u in g.adj[v]}
        for u in g.adj[v]:
            reach.update(g.adj[u])
        counts.append(len(reach & U))
    return counts


def hub_graph(n, rng):
    """A sparse connected graph with one random vertex joined to all others."""
    edges = set(sparse_connected(n, 3, rng))
    h = rng.randrange(n)
    edges |= {(min(h, v), max(h, v)) for v in range(n) if v != h}
    return Graph(n, sorted(edges))


def harmonic(k):
    return sum(Fraction(1, i) for i in range(1, k + 1))


class TestEstimateConfig:
    def test_eps_range(self):
        with pytest.raises(InputError):
            EstimateConfig(eps_est=Fraction(1, 4))
        with pytest.raises(InputError):
            EstimateConfig(eps_est=0)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_must_be_positive(self, samples):
        with pytest.raises(InputError):
            EstimateConfig(samples=samples)

    @pytest.mark.parametrize("field", ["samples", "exact_threshold"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "x", "3", True, False, 0, -2])
    def test_counts_must_be_positive_ints(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a positive integer"):
            EstimateConfig(**{field: value})

    @pytest.mark.parametrize("value", ["x", float("nan"), None, float("inf")])
    def test_eps_must_be_a_number(self, value):
        with pytest.raises(InputError, match="eps_est must lie"):
            EstimateConfig(eps_est=value)

    def test_one_sample_is_enough(self):
        est, exact, stats = estimate_2hop_counts(
            path(3), {0, 2}, EstimateConfig(samples=1, exact_threshold=1)
        )
        assert est == [2, 2, 2] and exact == [False] * 3
        assert (stats.rounds, stats.messages) == (4, 10)

    def test_defaults_resolve(self):
        cfg = EstimateConfig()
        r, t = cfg.resolve(100)
        assert r >= 6 * math.log(100) * 63  # 1/eps^2 = 64
        assert t == math.ceil(8 * math.log(100))
        assert EstimateConfig(samples=3, exact_threshold=2).resolve(100) == (3, 2)


class TestExactEstimation:
    def test_isolated_vertex(self):
        g = Graph(1, [])
        est, exact, _ = estimate_2hop_counts(g, {0})
        assert exact == [True]
        assert est == [1]

    def test_p5_middle_vertex(self):
        g = path(5)
        est, exact, _ = estimate_2hop_counts(g, set(range(5)))
        assert all(exact)
        assert est[2] == 5
        assert est == two_hop_counts(g, set(range(5)))

    def test_subset_u(self):
        g = star(9)
        U = set(range(1, 9))  # the leaves
        est, exact, _ = estimate_2hop_counts(g, U)
        assert all(exact)
        assert est == two_hop_counts(g, U)

    def test_random_graphs_counted_exactly(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.randint(2, 14)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=1100 + trial))
            U = {v for v in range(n) if rng.random() < 0.7}
            est, exact, _ = estimate_2hop_counts(g, U, seed=trial)
            assert all(exact)  # at this scale every degree is tiny
            assert est == two_hop_counts(g, U)


class TestSampledEstimation:
    def test_bracket_on_cycle(self):
        # exact_threshold=1 forces every vertex onto the sampling path
        g = cycle(10)
        cfg = EstimateConfig(samples=800, exact_threshold=1)
        U = set(range(10))
        truth = two_hop_counts(g, U)
        hits = 0
        total = 0
        for seed in range(5):
            est, exact, _ = estimate_2hop_counts(g, U, cfg, seed=seed)
            assert not any(exact)
            for v in range(10):
                total += 1
                if Fraction(3, 4) * truth[v] <= est[v] <= Fraction(5, 4) * truth[v]:
                    hits += 1
        assert hits >= 0.95 * total

    def test_no_uncovered_nearby_gives_zero(self):
        g = path(5)
        cfg = EstimateConfig(samples=50, exact_threshold=1)
        est, _, _ = estimate_2hop_counts(g, {0}, cfg, seed=3)
        assert est[3] == 0 and est[4] == 0
        assert est[0] > 0

    def test_deterministic(self):
        g = cycle(8)
        cfg = EstimateConfig(samples=100, exact_threshold=1)
        e1, _, _ = estimate_2hop_counts(g, set(range(8)), cfg, seed=5)
        e2, _, _ = estimate_2hop_counts(g, set(range(8)), cfg, seed=5)
        assert e1 == e2

    def test_bandwidth_too_small(self):
        from powergraph.sim import Model, CONGEST

        with pytest.raises(InputError):
            estimate_2hop_counts(
                path(3), {0, 1, 2}, model=Model(CONGEST, bandwidth_words=1)
            )


class TestSampledAgainstOracle:
    @pytest.mark.parametrize("variant", [CONGEST, CLIQUE])
    @pytest.mark.parametrize("bandwidth", [2, 3, 8, 9])
    @pytest.mark.parametrize("samples", [1, 7, 50])
    def test_every_sampled_estimate_matches(self, variant, bandwidth, samples):
        # bandwidth 3 and 9 leave a word unused; 7 and 50 samples leave a
        # partial last chunk at some bandwidths.  Every other graph has a
        # hub (G^2 complete); exact_threshold=1 samples every count.
        rng = random.Random(1000 * bandwidth + samples)
        model = Model(variant, bandwidth_words=bandwidth)
        cfg = EstimateConfig(samples=samples, exact_threshold=1)
        for i, n in enumerate((6, 9, 14, 20, 27, 35, 44, 52, 60)):
            if i % 2 == 0:
                g = hub_graph(n, rng)
            else:
                g = Graph(n, sparse_connected(n, 2.5, rng))
            density = rng.random()
            U = {v for v in range(n) if rng.random() < density}
            est, exact, _ = estimate_2hop_counts(g, U, cfg, seed=i, model=model)
            assert not any(exact)
            assert est == sampled_2hop_estimates(g, U, samples, seed=i)


def sample_stage(fn, g, U, r, seed, model):
    """fn's sums and (rounds, messages, max_message_bits) for the sampled
    stage, or the message of the RoundCapError it raised."""
    frac_bits = max(1, 2 * word_bits(g.n) - 5)
    try:
        sums, stats = fn(g, U, r, frac_bits, seed, model)
    except RoundCapError as e:
        return str(e)
    return sums, (stats.rounds, stats.messages, stats.max_message_bits)


class TestSampledStageAgainstChunked:
    """The sampled stage, run up to 32 chunks at a time and charged per
    chunk, against the chunked schedule itself (tests/oracles)."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(variant=st.sampled_from([CONGEST, CLIQUE]),
           bandwidth=st.sampled_from([2, 3, 8, 9]),
           samples=st.sampled_from([1, 3, 7, 127, 128, 129, 300]),
           kind=st.sampled_from(["hub", "sparse", "path"]),
           n=st.integers(2, 14), graph_seed=st.integers(0, 2**16),
           density=st.floats(0, 1))
    def test_same_sums_and_cost(self, variant, bandwidth, samples, kind, n,
                                graph_seed, density):
        # 127-129 samples straddle one run of 32 four-sample chunks; at
        # bandwidth 2 and 3 a run holds 32 samples.  Paths and sparse U
        # leave nodes with no sample-holder within two hops.
        rng = random.Random(graph_seed)
        if kind == "hub":
            g = hub_graph(max(n, 4), rng)
        elif kind == "sparse":
            g = Graph(max(n, 4), sparse_connected(max(n, 4), 2.5, rng))
        else:
            g = path(n)
        n = g.n
        U = {v for v in range(n) if rng.random() < density}
        model = Model(variant, bandwidth_words=bandwidth)
        got = sample_stage(
            mds_distributed._sample_sums, g, U, samples, graph_seed, model)
        assert got == sample_stage(
            chunked_sample_sums, g, U, samples, graph_seed, model)

    @pytest.mark.parametrize("variant", [CONGEST, CLIQUE])
    @pytest.mark.parametrize("bandwidth", [2, 9])
    @pytest.mark.parametrize("samples", [7, 129])
    def test_nodes_beyond_two_hops_sum_none(self, variant, bandwidth, samples):
        g = path(7)
        model = Model(variant, bandwidth_words=bandwidth)
        got = sample_stage(mds_distributed._sample_sums, g, {0}, samples, 4, model)
        assert got == sample_stage(chunked_sample_sums, g, {0}, samples, 4, model)
        sums, _ = got
        assert all(x is not None for x in sums[:3]) and sums[3:] == [None] * 4

    def test_empty_u_sends_nothing_for_every_chunk(self):
        # no messages, so no message bits; still 2C + 1 rounds, C = 300 / 4
        got = sample_stage(mds_distributed._sample_sums, path(5), set(), 300, 0,
                           Model(CONGEST))
        assert got == ([None] * 5, (151, 0, 0))
        assert got == sample_stage(chunked_sample_sums, path(5), set(), 300, 0,
                                   Model(CONGEST))

    @pytest.mark.parametrize("cap", [14, 15])
    def test_round_cap_as_for_the_chunked_run(self, monkeypatch, cap):
        # 7 one-sample chunks: the chunked run's last sweep is sweep 14,
        # which a cap of 14 sweeps forbids; each shorter run needs only 3
        monkeypatch.setenv("POWERGRAPH_ROUND_CAP", str(cap))
        model = Model(CONGEST, bandwidth_words=2)
        got = sample_stage(mds_distributed._sample_sums, path(4), {0}, 7, 0, model)
        assert got == sample_stage(chunked_sample_sums, path(4), {0}, 7, 0, model)
        assert (got == "no termination within 14 rounds") == (cap == 14)

    @pytest.mark.slow
    def test_default_config_on_a_large_hub_graph(self):
        rng = random.Random(300)
        g = hub_graph(300, rng)
        U = {v for v in range(300) if rng.random() < 0.5}
        r, _ = EstimateConfig().resolve(300)
        got = sample_stage(mds_distributed._sample_sums, g, U, r, 5, Model(CONGEST))
        assert got == sample_stage(chunked_sample_sums, g, U, r, 5, Model(CONGEST))

    def test_memory_is_bounded_by_the_run_size(self):
        # 1,573 samples at n=60.  Runs of 32 four-sample chunks peak near
        # 0.56 MB, the chunked schedule near 0.34 MB, and one run of all
        # 1,573 samples near 3.2 MB.
        g = hub_graph(60, random.Random(60))
        peak = traced_peak(lambda: estimate_2hop_counts(g, set(range(60)), seed=1))
        assert peak < 1.5 * 2**20


@st.composite
def fold_inputs(draw):
    """An inbox of 1-61 messages of 1-4 samples as (hi, lo) word pairs,
    and a running best or None.  Each sample has a shared high word that
    many pairs take, so high-word ties are common."""
    bits = draw(st.integers(1, 10))
    k = draw(st.integers(1, 4))
    word = st.integers(0, (1 << bits) - 1)
    tie_hi = draw(st.lists(word, min_size=k, max_size=k))

    def message():
        out = []
        for j in range(k):
            out.append(tie_hi[j] if draw(st.booleans()) else draw(word))
            out.append(draw(word))
        return tuple(out)

    count = draw(st.integers(1, 61))
    inbox = {s: message() for s in range(count)}
    best = message() if draw(st.booleans()) else None
    return bits, inbox, best


def sample_min_program(bits, best):
    ctx = NodeContext(0, 2, (1,), Model(CONGEST), bits)
    p = mds_distributed._SampleMinProgram(ctx, None, 4, 1)
    p.best = best
    return p


class TestFoldAndDraw:
    """The in-place fold and the local-bound draw against the zip-based
    and divmod-based references in tests/oracles."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(fold_inputs())
    def test_fold_matches_zip_reference(self, case):
        bits, inbox, best = case
        got = sample_min_program(bits, best)._fold(inbox)
        assert type(got) is tuple
        assert got == fold_by_zip(inbox.values(), best)

    def test_fold_of_one_message_or_none(self):
        msg = (3, 1, 0, 2)
        assert sample_min_program(4, None)._fold({5: msg}) is msg
        assert sample_min_program(4, msg)._fold({}) is msg
        assert sample_min_program(4, None)._fold({}) is None

    def test_fold_breaks_high_word_ties_by_low_word(self):
        inbox = {1: (2, 3, 1, 5), 2: (2, 4, 0, 15)}
        got = sample_min_program(4, (2, 9, 1, 0))._fold(inbox)
        assert got == (2, 3, 0, 15)

    @pytest.mark.parametrize("bits", range(1, 11))
    def test_draw_matches_divmod_reference(self, bits):
        frac_bits = max(1, 2 * bits - 5)
        for seed in range(60):
            for count in (1, 4):
                got = mds_distributed._draw_words(
                    random.Random(seed), count, frac_bits, bits)
                assert got == draw_words_by_divmod(
                    random.Random(seed), count, frac_bits, bits)
                assert len(got) == 2 * count and all(0 <= w < 1 << bits for w in got)

    @pytest.mark.parametrize("bits", range(1, 11))
    def test_draw_hits_both_clamps(self, bits):
        class Stub:
            """random() runs through fixed values: 0 rounds to 0, below the
            clamp's 1; 1 - 2^-53 gives about 36.7 * 2^frac_bits, above its
            2^(2 bits) - 1 at every width."""
            def __init__(self):
                self.values = iter([0.0, 1.0 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -52])

            def random(self):
                return next(self.values)

        frac_bits = max(1, 2 * bits - 5)
        mask = (1 << bits) - 1
        got = mds_distributed._draw_words(Stub(), 4, frac_bits, bits)
        assert got == draw_words_by_divmod(Stub(), 4, frac_bits, bits)
        assert got[:4] == (0, 1, mask, mask) and got[6:] == (mask, mask)


class TestSampledCostPinned:
    def test_default_config_on_a_hub_graph(self):
        # 1,307 samples, 327 chunks of four under the default 8 words
        rng = random.Random(30)
        g = hub_graph(30, rng)
        U = {v for v in range(30) if rng.random() < 0.5}
        est, exact, stats = estimate_2hop_counts(g, U, seed=3)
        assert len(U) == 12 and not any(exact)
        assert (stats.rounds, stats.messages, stats.max_message_bits) == (
            664, 54285, 40
        )
        digest = hashlib.sha256(repr(est).encode()).hexdigest()
        assert digest == (
            "ddea6bdf948715f2b111ef4e8349f364127d170935bb438f8cd124a6b4dc579f"
        )


class TestG2MdsLogd:
    def test_star(self):
        g = star(9)
        sol, stats = g2mds_logd(g, seed=0)
        assert is_feasible(g, DS2, sol.members)
        assert sol.value == 1
        assert stats.rounds > 0

    def test_cycle5(self):
        sol, _ = g2mds_logd(cycle(5), seed=0)
        assert is_feasible(cycle(5), DS2, sol.members)
        assert sol.value == 1

    def test_single_vertex(self):
        sol, _ = g2mds_logd(Graph(1, []), seed=0)
        assert sol.members == {0}

    def test_empty_graph(self):
        for variant in (CONGEST, CLIQUE):
            sol, stats = g2mds_logd(Graph(0, []), model=Model(variant))
            assert sol.members == set() and sol.value == 0
            assert (stats.rounds, stats.messages) == (0, 0)

    def test_rejects_weights_not_disconnection(self):
        weighted = Graph(3, [(0, 1), (0, 2)], weights={0: 100, 1: 1, 2: 1})
        with pytest.raises(InputError, match="g2mds_logd is unweighted"):
            g2mds_logd(weighted)
        split = Graph(4, [(0, 1), (2, 3)])
        sol, _ = g2mds_logd(split)
        assert is_feasible(split, DS2, sol.members)

    def test_feasible_on_random_graphs(self):
        rng = random.Random(19)
        for trial in range(12):
            n = rng.randint(2, 12)
            g = Graph(n, random_connected_gnp(n, 0.35, seed=1300 + trial))
            sol, _ = g2mds_logd(g, seed=trial)
            assert is_feasible(g, DS2, sol.members)

    def test_ratio_against_oracle(self):
        rng = random.Random(23)
        for trial in range(10):
            n = rng.randint(2, 12)
            g = Graph(n, random_connected_gnp(n, 0.4, seed=1400 + trial))
            opt = brute_min_ds(n, list(square(g).edges()))
            delta = max(g.degree(v) for v in range(n))
            bound = 8 * harmonic(delta * delta)
            for seed in (0, 1, 2):
                sol, _ = g2mds_logd(g, seed=seed)
                assert sol.value <= bound * opt

    def test_no_progress_raises_round_cap(self, monkeypatch):
        class NoTally(NodeProgram):
            """Every candidate's tally comes out 0, so nobody wins."""

            def __init__(self, ctx, vote):
                super().__init__(ctx)
                self.output = 0

            def step(self, r, inbox):
                return {}

        monkeypatch.setattr(mds_distributed, "_VoteProgram", NoTally)
        with pytest.raises(RoundCapError, match="no progress"):
            g2mds_logd(star(9), seed=0)

    def test_deterministic(self):
        g = Graph(10, random_connected_gnp(10, 0.4, seed=21))
        s1, st1 = g2mds_logd(g, seed=6)
        s2, st2 = g2mds_logd(g, seed=6)
        assert s1.members == s2.members
        assert st1.rounds == st2.rounds
