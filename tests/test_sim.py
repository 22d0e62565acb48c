import pytest

from powergraph.errors import (
    BandwidthError,
    ConnectivityError,
    EncodingError,
    InputError,
    RoundCapError,
)
from powergraph.graph import Graph
from powergraph.mds_distributed import estimate_2hop_counts, g2mds_logd
from powergraph.mvc_distributed import weighted_phase1
from powergraph.protocols import (
    elect_leader_bfs,
    exchange,
    pipelined_broadcast,
    pipelined_convergecast,
)
from powergraph.sim import (
    CLIQUE,
    CONGEST,
    Model,
    NodeProgram,
    from_words,
    run,
    to_words,
    word_bits,
)

from test_graph import complete, cycle, path, star


class BroadcastOnce(NodeProgram):
    def step(self, r, inbox):
        if r == 0:
            return {u: (self.ctx.node,) for u in self.ctx.neighbors}
        return {}


class HaltImmediately(NodeProgram):
    """Never awake and never sends: only sweep 0 steps it."""

    def step(self, r, inbox):
        return {}


class EchoTwoRounds(NodeProgram):
    """Broadcast own id, then record what was heard."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.awake = True

    def step(self, r, inbox):
        if r == 0:
            return {u: (self.ctx.node,) for u in self.ctx.neighbors}
        self.output = sorted(msg[0] for msg in inbox.values())
        self.awake = False
        return {}


class TestRun:
    def test_broadcast_once_on_k3(self):
        g, model = complete(3), Model(CONGEST)
        _, stats = run(g, BroadcastOnce, model)
        assert stats.rounds == 1
        assert stats.messages == 6
        assert stats.max_message_bits <= model.bandwidth_words * word_bits(g.n)

    def test_zero_bandwidth_rejects_any_message(self):
        with pytest.raises(BandwidthError):
            run(complete(3), BroadcastOnce, Model(CONGEST, bandwidth_words=0))

    def test_immediate_halt_zero_rounds(self):
        _, stats = run(Graph(1, []), HaltImmediately, Model(CONGEST))
        assert stats.rounds == 0
        assert stats.messages == 0

    def test_messages_are_delivered_next_round(self):
        outputs, stats = run(path(3), EchoTwoRounds, Model(CONGEST))
        assert outputs == [[1], [0, 2], [1]]
        assert stats.rounds == 2

    def test_congest_rejects_non_neighbor_sends(self):
        class BadSend(NodeProgram):
            def step(self, r, inbox):
                if self.ctx.node == 0:
                    return {2: (0,)}
                return {}

        with pytest.raises(InputError):
            run(path(3), BadSend, Model(CONGEST))

    def test_clique_allows_any_destination(self):
        class FarSend(NodeProgram):
            def step(self, r, inbox):
                if self.ctx.node == 0:
                    return {2: (0,)}
                return {}

        _, stats = run(path(3), FarSend, Model(CLIQUE))
        assert stats.messages == 1

    def test_oversize_word_rejected(self):
        class BigWord(NodeProgram):
            def step(self, r, inbox):
                return {u: (1 << 30,) for u in self.ctx.neighbors}

        with pytest.raises(EncodingError):
            run(path(3), BigWord, Model(CONGEST))

    def test_round_cap(self):
        class Forever(NodeProgram):
            def step(self, r, inbox):
                self.awake = True
                return {}

        with pytest.raises(RoundCapError):
            run(path(2), Forever, Model(CONGEST), round_cap=10)

    def test_round_cap_env_override(self, monkeypatch):
        class Forever(NodeProgram):
            def step(self, r, inbox):
                self.awake = True
                return {}

        monkeypatch.setenv("POWERGRAPH_ROUND_CAP", "5")
        with pytest.raises(RoundCapError):
            run(path(2), Forever, Model(CONGEST))

    def test_determinism_with_rng(self):
        class RandomReport(NodeProgram):
            def step(self, r, inbox):
                self.output = self.ctx.rng.randrange(1 << 20)
                return {}

        out1, _ = run(path(4), RandomReport, Model(CONGEST), seed=9)
        out2, _ = run(path(4), RandomReport, Model(CONGEST), seed=9)
        out3, _ = run(path(4), RandomReport, Model(CONGEST), seed=10)
        assert out1 == out2
        assert out1 != out3

    def test_word_bits(self):
        assert word_bits(1) == 1
        assert word_bits(3) == 2
        assert word_bits(200) == 8


class TestWake:
    def test_sleeping_nodes_step_only_with_mail(self):
        class Relay(NodeProgram):
            """Node 0 starts a message that each node passes up the path."""

            def __init__(self, ctx):
                super().__init__(ctx)
                self.output = []

            def step(self, r, inbox):
                self.output.append(r)
                if inbox or (r == 0 and self.ctx.node == 0):
                    return {u: (1,) for u in self.ctx.neighbors if u > self.ctx.node}
                return {}

        outputs, stats = run(path(4), Relay, Model(CONGEST))
        assert outputs == [[0], [0, 1], [0, 2], [0, 3]]
        assert stats.rounds == 3  # the last sweep only delivered mail


class TestWords:
    def test_round_trip_most_significant_first(self):
        for x in (0, 1, 31, 32, 1000, (1 << 20) - 1):
            assert from_words(to_words(x, 4, 5), 5) == x
        assert to_words(33, 2, 5) == (1, 1)
        assert to_words(31, 2, 5) < to_words(32, 2, 5)

    def test_overflow_rejected(self):
        with pytest.raises(EncodingError):
            to_words(1 << 10, 2, 5)


class TestExchange:
    def test_one_round_to_every_neighbor(self):
        heard, stats = exchange(path(3), [(1,), (2, 3), (0,)], Model(CONGEST))
        assert heard == [{1: (2, 3)}, {0: (1,), 2: (0,)}, {1: (2, 3)}]
        assert stats.rounds == 1
        assert stats.messages == 4


class TestLeaderBfs:
    def test_p3(self):
        leader, parent, depth, stats = elect_leader_bfs(path(3))
        assert leader == 0
        assert depth == {0: 0, 1: 1, 2: 2}
        assert parent[2] == 1

    def test_k4(self):
        leader, parent, depth, _ = elect_leader_bfs(complete(4))
        assert leader == 0
        assert all(depth[v] <= 1 for v in range(4))

    def test_star_with_center_highest_id(self):
        # center id 5, leaves 0..4
        g = Graph(6, [(5, i) for i in range(5)])
        leader, parent, depth, _ = elect_leader_bfs(g)
        assert leader == 0
        assert depth[5] == 1
        assert all(depth[v] == 2 for v in range(1, 5))

    def test_rounds_close_to_diameter(self):
        g = path(12)
        _, _, _, stats = elect_leader_bfs(g)
        assert stats.rounds <= 11 + 2

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            elect_leader_bfs(Graph(4, [(0, 1), (2, 3)]))


class TestConvergecast:
    def bfs_tree(self, g):
        leader, parent, depth, _ = elect_leader_bfs(g)
        return (leader, parent)

    def test_p3_one_item_each(self):
        g = path(3)
        items = [[(v,)] for v in range(3)]
        got, stats = pipelined_convergecast(g, self.bfs_tree(g), items, Model(CONGEST))
        assert got == [(0,), (1,), (2,)]

    def test_star_two_items_per_leaf(self):
        g = star(8)
        items = [[]] + [[(v,), (v,)] for v in range(1, 8)]
        got, stats = pipelined_convergecast(g, self.bfs_tree(g), items, Model(CONGEST))
        assert len(got) == 14
        assert stats.rounds <= 2 * g.n

    def test_clique_rounds_equal_max_items(self):
        g = complete(5)
        items = [[(v,), (v,), (v,)] if v else [] for v in range(5)]
        got, stats = pipelined_convergecast(g, (0, {}), items, Model(CLIQUE))
        assert stats.rounds == 3
        assert len(got) == 12

    def test_oversize_item_rejected(self):
        g = path(2)
        items = [[tuple([0] * 9)], []]
        with pytest.raises(EncodingError):
            pipelined_convergecast(g, (0, {1: 0}), items, Model(CONGEST))


class TestBroadcast:
    def test_everyone_gets_payload(self):
        g = path(5)
        leader, parent, depth, _ = elect_leader_bfs(g)
        payload = [(3,), (1, 4)]
        outputs, stats = pipelined_broadcast(g, (leader, parent), payload, Model(CONGEST))
        for v in range(5):
            assert outputs[v] == [(1, 4), (3,)]

    def test_empty_payload(self):
        g = path(3)
        leader, parent, depth, _ = elect_leader_bfs(g)
        outputs, _ = pipelined_broadcast(g, (leader, parent), [], Model(CONGEST))
        assert outputs == [[], [], []]


class TestQuiescence:
    def test_silent_sweep_ends_run_uncounted(self):
        class Silent(NodeProgram):
            def step(self, r, inbox):
                self.output = r
                return {}

        outputs, stats = run(path(3), Silent, Model(CONGEST))
        assert outputs == [0, 0, 0]
        assert stats.rounds == 0

    def test_edgeless_graph_round_counts(self):
        # the status and weight announcements send nothing here
        one = Graph(1, [])
        assert g2mds_logd(one)[1].rounds == 14
        assert estimate_2hop_counts(one, {0})[2].rounds == 0
        weighted = Graph(1, [], weights={0: 1})
        assert weighted_phase1(weighted, 1)[1].rounds == 3
