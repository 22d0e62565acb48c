import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph import mds_distributed, mvc_distributed, protocols
from powergraph.errors import (
    BandwidthError,
    ConnectivityError,
    EncodingError,
    InputError,
    PowerGraphError,
    RoundCapError,
)
from powergraph.graph import Graph
from powergraph.mds_distributed import (
    EstimateConfig, estimate_2hop_counts, g2mds_logd,
)
from powergraph.mvc_distributed import (
    g2mvc_cc_voting, g2mvc_eps, g2mwvc_eps, phase1_unweighted, weighted_phase1,
)
from powergraph.protocols import (
    elect_leader_bfs,
    exchange,
    pack,
    pipelined_broadcast,
    pipelined_convergecast,
    scatter,
    unpack,
)
from powergraph.sim import (
    CLIQUE,
    CONGEST,
    Model,
    NodeProgram,
    from_words,
    node_rng,
    run,
    to_words,
    word_bits,
)

from oracles import dense_run, min_id_flood, sparse_connected
from test_graph import complete, path, star


class BroadcastOnce(NodeProgram):
    def step(self, r, inbox):
        if r == 0:
            return {u: (self.ctx.node,) for u in self.ctx.neighbors}
        return {}


class HaltImmediately(NodeProgram):
    """Sets no timer and never sends: only sweep 0 steps it."""

    def step(self, r, inbox):
        return {}


class EchoTwoRounds(NodeProgram):
    """Broadcast own id, then record what was heard."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.wake_at = 1

    def step(self, r, inbox):
        if r == 0:
            return {u: (self.ctx.node,) for u in self.ctx.neighbors}
        self.output = sorted(msg[0] for msg in inbox.values())
        self.wake_at = None
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

    @pytest.mark.parametrize("outbox,error,text", [
        ({1: (1 << 30,), 2: (0,) * 9}, EncodingError,
         "word 1073741824 from node 0 does not fit 2 bits"),
        ({1: (0,) * 9, 2: (1 << 30,)}, BandwidthError,
         "node 0 sent 18 bits in round 0 (limit 16 bits)"),
        ({1: (1 << 30,) + (0,) * 8}, EncodingError,
         "word 1073741824 from node 0 does not fit 2 bits"),
        ({1: [0], 2: (0,) * 9}, EncodingError,
         "message from 0 must be a tuple of words"),
        ({1: (0,) * 9, 5: (0,)}, BandwidthError,
         "node 0 sent 18 bits in round 0 (limit 16 bits)"),
        ({5: (0,), 1: (0,) * 9}, InputError,
         "node 0 sent to non-neighbor 5 under CONGEST"),
    ], ids=["word-then-oversize", "oversize-then-word", "word-in-oversize",
            "list-then-oversize", "oversize-then-stranger",
            "stranger-then-oversize"])
    def test_first_fault_in_outbox_order_is_reported(self, outbox, error, text):
        class Bad(NodeProgram):
            def step(self, r, inbox):
                return dict(outbox) if self.ctx.node == 0 else {}

        with pytest.raises(PowerGraphError) as caught:
            run(complete(3), Bad, Model(CONGEST))
        assert type(caught.value) is error
        assert str(caught.value) == text

    @pytest.mark.parametrize("cap", [5, 10])
    def test_round_cap_env_override(self, monkeypatch, cap):
        class Forever(NodeProgram):
            def step(self, r, inbox):
                self.wake_at = r + 1
                return {}

        monkeypatch.setenv("POWERGRAPH_ROUND_CAP", str(cap))
        with pytest.raises(RoundCapError, match=f"within {cap} rounds"):
            run(path(2), Forever, Model(CONGEST))

    def test_determinism_with_rng(self):
        class RandomReport(NodeProgram):
            def __init__(self, ctx, seed):
                super().__init__(ctx)
                self.rng = node_rng(seed, ctx.node)

            def step(self, r, inbox):
                self.output = self.rng.randrange(1 << 20)
                return {}

        def report(seed):
            return run(path(4), lambda ctx: RandomReport(ctx, seed), Model(CONGEST))[0]

        out1, out2, out3 = report(9), report(9), report(10)
        assert out1 == out2
        assert out1 != out3
        assert len(set(out1)) == 4  # each node draws from its own stream

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

    def test_inboxes_keyed_in_ascending_sender_order(self):
        class Record(NodeProgram):
            """Everyone sends to everyone, then odd ids answer node 0."""

            def __init__(self, ctx):
                super().__init__(ctx)
                self.output = []

            def step(self, r, inbox):
                self.output.append((r, list(inbox)))
                n, v = self.ctx.n, self.ctx.node
                if r == 0:
                    return {u: (v,) for u in range(n - 1, -1, -1) if u != v}
                if r == 1 and v % 2:
                    return {0: (v,)}
                return {}

        outputs, _ = run(complete(7), Record, Model(CLIQUE))
        for v, steps in enumerate(outputs):
            others = [u for u in range(7) if u != v]
            assert steps[:2] == [(0, []), (1, others)]
            for _, senders in steps:
                assert senders == sorted(senders)
        assert outputs[0][2] == (2, [1, 3, 5])
        assert [len(steps) for steps in outputs] == [3, 2, 2, 2, 2, 2, 2]

    class Timer(NodeProgram):
        """Records its steps.  The last node sets the wakes in `plan`, which
        maps a sweep to the wake set then; node 0 mails node 1 in sweep 0."""

        plan = {0: 10}

        def __init__(self, ctx):
            super().__init__(ctx)
            self.output = []

        def step(self, r, inbox):
            self.output.append(r)
            if self.ctx.node == self.ctx.n - 1:
                self.wake_at = self.plan.get(r)
            if r == 0 and self.ctx.node == 0 and self.ctx.n > 1:
                return {1: (1,)}
            return {}

    def test_lone_timer_skips_silent_sweeps_and_counts_them(self):
        outputs, stats = run(Graph(1, []), self.Timer, Model(CONGEST))
        assert outputs == [[0, 10]]
        assert stats.rounds == 11
        assert stats.messages == 0

    @pytest.mark.parametrize("plan,steps", [
        ({0: 5, 1: 10}, [0, 1, 10]),  # moved later: no step at sweep 5
        ({0: 10, 1: 5}, [0, 1, 5]),  # moved earlier: no step at sweep 10
    ])
    def test_rescheduled_timer_is_not_stepped_at_its_stale_sweep(
        self, plan, steps
    ):
        prog = type("Moved", (self.Timer,), {"plan": plan})
        outputs, stats = run(path(2), prog, Model(CONGEST))
        assert outputs == [[0], steps]
        assert stats.rounds == steps[-1] + 1

    @pytest.mark.parametrize("when", [3, 0])
    def test_wake_not_after_current_sweep_rejected(self, when):
        prog = type("Late", (self.Timer,), {"plan": {0: 3, 3: when}})
        with pytest.raises(InputError):
            run(Graph(1, []), prog, Model(CONGEST))

    def test_far_timer_hits_round_cap_without_stepping_through(self, monkeypatch):
        monkeypatch.setenv("POWERGRAPH_ROUND_CAP", str(10**8))
        prog = type("Far", (self.Timer,), {"plan": {0: 10**9}})
        with pytest.raises(RoundCapError):
            run(Graph(1, []), prog, Model(CONGEST))


@st.composite
def small_connected_graphs(draw):
    """A random tree on at most 12 vertices plus random extra edges, with
    weights in 0..8."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    ids = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(ids, ids), max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights = {v: draw(st.integers(0, 8)) for v in range(n)}
    return Graph(n, sorted(edges)), Graph(n, sorted(edges), weights=weights)


# one step's change to wake_at: ("in", d) sets it d sweeps ahead, 20 or
# more being a far wake; "keep" re-arms the sweep it names; "back" restores
# the sweep it named before its last change; "none" clears it
WAKES = st.one_of(
    st.tuples(st.just("in"), st.integers(1, 4)),
    st.tuples(st.just("in"), st.integers(20, 80)),
    st.tuples(st.sampled_from(["keep", "back", "none"]), st.just(0)),
)


@st.composite
def wake_plans(draw):
    """A small connected graph and, per node, the actions of its first
    steps: a change to wake_at and the ids to mail if they are neighbors."""
    g, _ = draw(small_connected_graphs())
    ids = st.lists(st.integers(0, g.n - 1), max_size=3)
    plans = [
        draw(st.lists(st.tuples(WAKES, ids), max_size=6)) for _ in range(g.n)
    ]
    return g, plans


class Planned(NodeProgram):
    """Takes the next action of its plan in each step where it has mail,
    is due or is in sweep 0, and records that step; any other step is
    idle and changes nothing but the idle count."""

    def __init__(self, ctx, plan):
        super().__init__(ctx)
        self.plan = list(plan)
        self.before = None  # wake_at before its last change
        self.idle = 0
        self.output = []

    def step(self, r, inbox):
        if r and not inbox and r != self.wake_at:
            self.idle += 1
            return {}
        self.output.append((r, tuple(inbox.items())))
        (kind, ahead), targets = self.plan.pop(0) if self.plan else (("none", 0), [])
        t = self.wake_at
        if kind == "in":
            wake = r + ahead
        elif kind == "keep":
            wake = t if t is not None and t > r else None
        elif kind == "back":
            wake = self.before if self.before is not None and self.before > r else None
        else:
            wake = None
        if wake != t:
            self.before = t
        self.wake_at = wake
        return {u: (r % 2,) for u in targets if u in self.ctx.neighbors}


class TestSleepingIsSound:
    """Stepping every node in every sweep changes nothing: a node the
    engine lets sleep would have done nothing with an empty inbox."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(graphs=small_connected_graphs(), seed=st.integers(0, 3),
           variant=st.sampled_from([CONGEST, CLIQUE]),
           sampled=st.booleans(), samples=st.sampled_from([1, 3, 8]),
           bandwidth=st.sampled_from([2, 3, 8]))
    def test_dense_engine_agrees(self, graphs, seed, variant, sampled, samples,
                                 bandwidth):
        # At 2 and 3 words a chunk holds one sample; at 8 words 1 and 3
        # samples leave a partial last chunk.  The other calls need 8 words.
        g, gw = graphs
        model = Model(variant)
        cfg = EstimateConfig(samples=samples, exact_threshold=1 if sampled else None)
        U = set(range(0, g.n, 2))
        est_model = Model(variant, bandwidth_words=bandwidth)
        leader, parent, _, children, _ = elect_leader_bfs(g, model)
        tree = (leader, parent, children)
        sent = [[(v,)] for v in range(g.n)]
        _, routes, _ = pipelined_convergecast(g, tree, sent, model)
        calls = [
            lambda: phase1_unweighted(g, Fraction(1, 2), model),
            lambda: weighted_phase1(gw, Fraction(1, 2), model),
            lambda: estimate_2hop_counts(g, U, cfg, seed=seed, model=est_model),
            lambda: g2mds_logd(g, seed=seed, cfg=cfg, model=model),
            lambda: g2mvc_eps(g, Fraction(1, 2), model, seed=seed),
            lambda: g2mwvc_eps(gw, Fraction(1, 2), model, seed=seed),
            lambda: elect_leader_bfs(g, model),
            lambda: pipelined_convergecast(g, tree, sent, model),
            lambda: pipelined_broadcast(
                g, (leader, routes), [(v, v % 2) for v in range(g.n)], model),
        ]
        if variant == CLIQUE:
            calls.append(
                lambda: g2mvc_cc_voting(g, Fraction(1, 2), seed=seed, model=model)
            )

        def results():
            return [
                [getattr(x, "members", x) for x in call()] for call in calls
            ]

        woken = results()
        with pytest.MonkeyPatch.context() as m:
            for module in (mvc_distributed, mds_distributed, protocols):
                m.setattr(module, "run", dense_run)
            dense = results()
        assert repr(woken) == repr(dense)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=wake_plans())
    def test_random_wake_plans_agree(self, case):
        # run steps a node only with mail, in sweep 0 or at the sweep its
        # wake_at names now, however often it re-armed or moved it
        g, plans = case

        def outcome(engine):
            programs = []

            def factory(ctx):
                programs.append(Planned(ctx, plans[ctx.node]))
                return programs[-1]

            try:
                outputs, stats = engine(g, factory, Model(CONGEST))
            except RoundCapError:
                return "RoundCapError", programs
            return repr((outputs, stats)), programs

        woken, programs = outcome(run)
        assert all(p.idle == 0 for p in programs)
        assert woken == outcome(dense_run)[0]


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
        leader, parent, depth, _, stats = elect_leader_bfs(path(3))
        assert leader == 0
        assert depth == {0: 0, 1: 1, 2: 2}
        assert parent[2] == 1

    def test_k4(self):
        leader, parent, depth, _, _ = elect_leader_bfs(complete(4))
        assert leader == 0
        assert all(depth[v] <= 1 for v in range(4))

    def test_star_with_center_highest_id(self):
        # center id 5, leaves 0..4
        g = Graph(6, [(5, i) for i in range(5)])
        leader, parent, depth, _, _ = elect_leader_bfs(g)
        assert leader == 0
        assert depth[5] == 1
        assert all(depth[v] == 2 for v in range(1, 5))

    def test_rounds_close_to_diameter(self):
        g = path(12)
        *_, stats = elect_leader_bfs(g)
        assert stats.rounds <= 11 + 2

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            elect_leader_bfs(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graphs=small_connected_graphs(), variant=st.sampled_from([CONGEST, CLIQUE]))
    def test_wave_builds_the_min_id_flood_tree(self, graphs, variant):
        # the flood of id 0 overtakes every other id and reaches each node
        # first along a shortest path, from its lowest-id neighbor one hop
        # nearer: the wave's tree, in as many rounds, with 2|E| messages
        g, _ = graphs
        model = Model(variant)
        leader, parent, depth, children, stats = elect_leader_bfs(g, model)
        leaders, want_parent, want_depth, flood = min_id_flood(g, model)
        assert leader == 0 and set(leaders) == {0}
        assert (parent, depth, stats.rounds) == (want_parent, want_depth, flood.rounds)
        assert stats.messages == 2 * g.m <= flood.messages
        assert children == [[u for u in g.adj[v] if parent[u] == v] for v in range(g.n)]

    def test_wave_on_larger_sparse_graphs(self):
        rng = random.Random(27)
        for n in (50, 300, 1000):
            g = Graph(n, sparse_connected(n, 3, rng))
            _, parent, depth, _, stats = elect_leader_bfs(g)
            _, want_parent, want_depth, flood = min_id_flood(g, Model(CONGEST))
            assert (parent, depth) == (want_parent, want_depth)
            assert stats.rounds == flood.rounds
            assert stats.messages == 2 * g.m < flood.messages


class TestConvergecast:
    def bfs_tree(self, g):
        leader, parent, _, children, _ = elect_leader_bfs(g)
        return (leader, parent, children)

    def test_p3_one_item_each(self):
        g = path(3)
        items = [[(v,)] for v in range(3)]
        got, _, stats = pipelined_convergecast(
            g, self.bfs_tree(g), items, Model(CONGEST))
        assert got == [(0,), (1,), (2,)]

    def test_star_two_items_per_leaf(self):
        g = star(8)
        items = [[]] + [[(v,), (v,)] for v in range(1, 8)]
        got, _, stats = pipelined_convergecast(
            g, self.bfs_tree(g), items, Model(CONGEST))
        assert len(got) == 14
        assert stats.rounds <= 2 * g.n

    def test_clique_rounds_equal_max_items(self):
        g = complete(5)
        items = [[(v,), (v,), (v,)] if v else [] for v in range(5)]
        got, _, stats = pipelined_convergecast(g, (0, {}), items, Model(CLIQUE))
        assert stats.rounds == 3
        assert len(got) == 12

    def test_empty_graph_gathers_nothing(self):
        got, _, stats = pipelined_convergecast(
            Graph(0, []), (None, {}), [], Model(CONGEST))
        assert got == [] and stats.rounds == 0

    def test_cost_on_a_path(self):
        # the node at depth d ships its 2 items over d hops, one per round:
        # 2 * (1 + 2 + 3 + 4) = 20 messages, the last reaching node 0 in
        # round 8.  Each edge's done marker rides in its last message, so
        # it adds no message and no round, only a third word to that
        # message: 3 words of 3 bits.
        g = path(5)
        items = [[(v,), (v, 1)] for v in range(5)]
        got, routes, stats = pipelined_convergecast(
            g, self.bfs_tree(g), items, Model(CONGEST))
        assert got == sorted(x for its in items for x in its)
        assert (stats.rounds, stats.messages, stats.max_message_bits) == (8, 20, 9)
        assert routes == [{1: 1, 2: 1, 3: 1, 4: 1}, {2: 2, 3: 2, 4: 2},
                          {3: 3, 4: 3}, {4: 4}, {}]

    def test_done_marker_travels_alone_when_the_last_message_is_full(self):
        # node 2 ends with a full message, so its marker follows in round
        # 2, and node 1 can end its edge only in round 3
        g = path(3)
        items = [[], [], [(2, 0)]]
        narrow = Model(CONGEST, bandwidth_words=2)
        got, _, stats = pipelined_convergecast(g, self.bfs_tree(g), items, narrow)
        assert got == [(2, 0)]
        assert (stats.rounds, stats.messages) == (3, 4)

    def test_message_not_starting_with_its_node_rejected(self):
        g = path(2)
        with pytest.raises(InputError):
            pipelined_convergecast(g, self.bfs_tree(g), [[], [(0,)]], Model(CONGEST))

    def test_oversize_item_rejected(self):
        g = path(2)
        items = [[tuple([0] * 9)], []]
        with pytest.raises(EncodingError):
            pipelined_convergecast(g, (0, {1: 0}), items, Model(CONGEST))


class TestBroadcast:
    # 0 - 1 - 2 and 0 - 3 - 4: every node sends its id up once
    G = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])

    def routes(self, g):
        leader, parent, _, children, _ = elect_leader_bfs(g)
        items = [[(v,)] for v in range(g.n)]
        _, routes, _ = pipelined_convergecast(
            g, (leader, parent, children), items, Model(CONGEST))
        return leader, routes

    def test_items_go_only_down_their_path(self, monkeypatch):
        g = self.G
        heard = set()

        def recording_run(g, factory, model):
            def wrapped(ctx):
                prog = factory(ctx)
                step = prog.step

                def recorded(r, inbox):
                    if inbox:
                        heard.add(ctx.node)
                    return step(r, inbox)

                prog.step = recorded
                return prog
            return run(g, wrapped, model)

        tree = self.routes(g)
        monkeypatch.setattr(protocols, "run", recording_run)
        outputs, stats = pipelined_broadcast(g, tree, [(2, 1), (1, 0)], Model(CONGEST))
        assert outputs == [[], [(1, 0)], [(2, 1)], [], []]
        # both items share the message on edge 0-1; nodes 3 and 4 are off
        # every item's path and hear nothing
        assert heard == {1, 2}
        assert (stats.rounds, stats.messages, stats.max_message_bits) == (2, 2, 12)

    def test_everyone_gets_payload(self):
        # one item for each node, packed to the bandwidth
        g = path(5)
        tree = self.routes(g)
        payload = [(v, 1) for v in range(5)]
        outputs, stats = pipelined_broadcast(g, tree, payload, Model(CONGEST))
        assert outputs == [[(v, 1)] for v in range(5)]
        # 4, 3, 2 and 1 items cross the four edges, one message each: the
        # first holds four items of 2 words of 3 bits
        assert (stats.rounds, stats.messages, stats.max_message_bits) == (4, 4, 24)

    def test_empty_payload(self):
        g = self.G
        outputs, stats = pipelined_broadcast(g, self.routes(g), [], Model(CONGEST))
        assert outputs == [[]] * 5
        assert (stats.rounds, stats.messages) == (0, 0)

    def test_item_without_route_rejected(self):
        g = path(3)
        with pytest.raises(InputError):
            pipelined_broadcast(g, (0, [{}, {}, {}]), [(2, 1)], Model(CONGEST))


class TestScatter:
    def test_one_word_to_every_other_node_in_one_round(self):
        # a path: under CLIQUE the root reaches non-neighbors as well
        g = path(5)
        outputs, stats = scatter(g, 2, [1, 0, 1, 1, 0], Model(CLIQUE))
        assert outputs == [1, 0, None, 1, 0]
        assert (stats.rounds, stats.messages, stats.max_message_bits) == (1, 4, 3)


class TestPack:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(width=st.integers(1, 8), spare=st.integers(0, 7), data=st.data())
    def test_round_trip(self, width, spare, data):
        model = Model(CONGEST, bandwidth_words=min(8, width + spare))
        words = st.integers(0, 1 << 20)
        items = data.draw(st.lists(st.tuples(*[words] * width), max_size=30))
        messages = pack(items, width, model)
        per = model.bandwidth_words // width
        assert len(messages) == -(-len(items) // per)
        assert all(len(m) <= model.bandwidth_words for m in messages)
        assert unpack(messages, width) == items

    def test_item_wider_than_bandwidth_rejected(self):
        with pytest.raises(EncodingError):
            pack([(1, 2, 3)], 3, Model(CONGEST, bandwidth_words=2))

    def test_three_words_carry_one_f_item_and_the_same_cover(self):
        g = Graph(60, sparse_connected(60, 3, random.Random(5)))
        narrow = Model(CONGEST, bandwidth_words=3)
        S, _, _ = phase1_unweighted(g, Fraction(1, 2))
        items = mvc_distributed._f_items(g, set(range(g.n)) - S, narrow)
        assert any(items)
        assert [pack(its, 3, narrow) for its in items] == items
        sol, stats = g2mvc_eps(g, Fraction(1, 2), narrow)
        sol8, stats8 = g2mvc_eps(g, Fraction(1, 2), Model(CONGEST))
        assert sol.members == sol8.members != frozenset(S)
        assert stats.messages > stats8.messages


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
