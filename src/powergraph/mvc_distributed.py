"""Distributed (1+eps)-approximate vertex cover on the square graph.

All algorithms communicate on G but solve the cover problem on G^2.
The common shape: a local clustering phase shrinks the "uncovered" set U
until every vertex has few U-neighbors, then a leader gathers the edge set
F = {e in E : e touches U}, rebuilds H = G^2[U] from it, solves H exactly,
and disseminates the answer.
"""

import math
from fractions import Fraction

from .errors import ConnectivityError, EncodingError, InputError, RoundCapError
from .exact import exact_mvc
from .graph import VC2, Graph, make_solution, square
from .protocols import (
    elect_leader_bfs, exchange, pack, pipelined_broadcast,
    pipelined_convergecast, scatter, unpack,
)
from .sim import (
    CLIQUE, CONGEST, Model, NodeProgram, RoundStats, from_words, node_rng, run,
    to_words, word_bits,
)


def effective_epsilon(eps):
    """Return (l, eps') with l = ceil(1/eps) and eps' = 1/l <= eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    l = -((-eps.denominator) // eps.numerator)  # ceil(1/eps)
    return l, Fraction(1, l)


# ---------------------------------------------------------------------------
# Phase I, unweighted: centers with more than l uncovered neighbors fire
# when they hold the maximum id among candidates within two hops.  Each
# iteration takes 4 sweeps: candidacy, relay, firing and R-status updates,
# and a node sends only what changed.  A candidate announces itself in
# sweep 0 and leaves C once, by a notice in the candidacy sweep where at
# most l of its neighbors are uncovered, or by firing; none joins later.
# Each node keeps its candidate neighbors, and when the maximum of those
# and itself, if a candidate, changes to a neighbor, it names that
# neighbor, the one reader: a candidate fires when it is its own maximum
# and every neighbor has named it, and a name holds while its candidate
# stays, since maxima only fall.  A candidate fires in the sweep where
# its last name arrives, so no fire needs a wake: nodes sleep unless mail
# comes, a relay is due, or the schedule ends.
# ---------------------------------------------------------------------------

class _Phase1Program(NodeProgram):
    def __init__(self, ctx, l, i_max):
        super().__init__(ctx)
        self.l, self.i_max = l, i_max
        self.in_S = False
        self.r_nbrs = set(ctx.neighbors)
        self.is_cand = False
        self.cands = []  # candidate neighbors, ascending
        self.sent = -1  # the last maximum relayed, or -1
        self.above = len(ctx.neighbors)  # neighbors yet to name us
        self.fired = False
        self.joined_center = None

    def _bcast(self, msg):
        return dict.fromkeys(self.ctx.neighbors, msg)

    def _top(self):
        top = self.cands[-1] if self.cands else -1
        return max(top, self.ctx.node) if self.is_cand else top

    def step(self, r, inbox):
        phase, it = r % 4, r // 4
        end = 4 * self.i_max
        if it >= self.i_max:
            self.wake_at = None
            self.output = {
                "in_S": self.in_S,
                "fired": self.fired,
                "joined_center": self.joined_center,
                "u_nbrs": frozenset(self.r_nbrs),
            }
            self.r_nbrs = self.cands = None
            return {}
        outbox = self._step(r, phase, inbox)
        node, top = self.ctx.node, self._top()
        if top in (-1, node):
            self.sent = top  # no neighbor to name
        if top != self.sent:  # relay it in the next relay sweep
            self.wake_at = min(4 * it + (1 if phase == 0 else 5), end)
        else:
            self.wake_at = end
        return outbox

    def _step(self, r, phase, inbox):
        node = self.ctx.node
        if phase == 0:
            for s in inbox:
                self.r_nbrs.discard(s)
            cand = len(self.r_nbrs) > self.l and (r == 0 or self.is_cand)
            if cand == self.is_cand:
                return {}
            self.is_cand = cand  # announce, or leave C
            return self._bcast((int(cand),))
        if phase == 1:  # candidacies in sweep 1, leave notices after
            for s, (announce,) in inbox.items():
                if announce:
                    self.cands.append(s)
                else:
                    self.cands.remove(s)
            top = self._top()
            if top in (-1, node, self.sent):
                return {}
            self.sent = top
            return {top: (top,)}
        if phase == 2:
            self.above -= len(inbox)
            if self.is_cand and self.above == 0 and self._top() == node:
                self.fired = True
                self.is_cand = False
                return self._bcast((1,))
            return {}
        # phase 3: fired centers leave C; join S next to one
        if not inbox:
            return {}
        center = next(iter(inbox))  # centers are three apart: one neighbors us
        self.cands.remove(center)
        if self.in_S:
            return {}
        self.in_S = True
        self.joined_center = center
        return self._bcast((1,))


def phase1_unweighted(g, eps, model=None):
    """Run Phase I alone; returns (S, per-node diagnostics, RoundStats)."""
    l, _ = effective_epsilon(eps)
    if model is None:
        model = Model(CONGEST)
    # each iteration with a candidate moves more than l vertices into S,
    # so the last one has none and sends nothing
    i_max = g.n // (l + 1) + 1
    outputs, stats = run(g, lambda ctx: _Phase1Program(ctx, l, i_max), model)
    S = {v for v in range(g.n) if outputs[v]["in_S"]}
    return S, outputs, stats


# ---------------------------------------------------------------------------
# Phase II: gather F at a leader, rebuild H = G^2[U], solve, send it back.
# ---------------------------------------------------------------------------

def build_H_from_F(F, U, n, weights=None):
    """Reconstruct G^2[U] on n vertices from F = {edges of G touching U}.

    Returns an n-vertex graph, carrying `weights` when given, whose edges
    are exactly those of G^2 between U vertices; vertices outside U stay
    isolated.  Every path of at most two edges between U vertices lies in
    F, so H is the square of F's graph restricted to U.
    """
    U = set(U)
    sq = square(Graph(n, {(min(u, v), max(u, v)) for (u, v) in F}))
    edges = [(u, v) for u in U for v in sq.adj[u] if u < v and v in U]
    return Graph(n, edges, weights=weights)


def _f_items(g, U):
    """Per-node F-edge items: v reports each edge vu to a U-neighbor u as
    (a, b, flag) with {a, b} = {u, v}, a < b, flag bit0 for a in U and
    bit1 for b.  Every F-edge has an endpoint in U, so the other reports it."""
    return [
        [(v, u, (v in U) | 2) if v < u else (u, v, 1 | 2 * (v in U))
         for u in g.adj[v] if u in U]
        for v in range(g.n)
    ]


def _decode_f(gathered, n, weights=None):
    """H = G^2[U] from the packed F-edge items, U read off their flags."""
    F = set()
    U_seen = set()
    for (a, b, flag) in set(unpack(gathered, 3)):
        F.add((a, b))
        if flag & 1:
            U_seen.add(a)
        if flag & 2:
            U_seen.add(b)
    return build_H_from_F(F, U_seen, n, weights=weights)


def leader_phase2(g, S, model, solve, stats):
    """Phase II: cover H = G^2[V - S], where S is the first phase's cover.

    A leader gathers F, rebuilds H with g's weights, covers it with
    solve(H) and sends the cover back; each node keeps the verdict it
    hears.  F goes up two items to a message.  Under CONGEST the leader is
    elected, and its BFS tree carries F up and the sorted cover ids down,
    `bandwidth_words` to a message.  Under CLIQUE node 0 leads without an
    election, since every node knows the ids: F comes straight to it, and
    it tells every other node in one round whether it joins the cover.

    Adds Phase II's costs to the first phase's `stats` and returns
    (solution S | cover, stats).
    """
    U = set(range(g.n)) - S
    clique = model.variant == CLIQUE
    if clique:
        tree = (0, {})
    else:
        leader, parent, _, st = elect_leader_bfs(g, model)
        stats.add(st)
        tree = (leader, parent)
    items = [pack(its, 3, model) for its in _f_items(g, U)]
    gathered, st = pipelined_convergecast(g, tree, items, model)
    stats.add(st)
    cover = set(solve(_decode_f(gathered, g.n, g.weights)))
    if clique:  # node 0 leads and keeps its own verdict
        heard, st = scatter(g, 0, [int(v in cover) for v in range(g.n)], model)
        cover = {v for v, word in enumerate(heard) if word} | (cover & {0})
    else:
        payload = pack([(v,) for v in sorted(cover)], 1, model)
        heard, st = pipelined_broadcast(g, tree, payload, model)
        cover = {v for v in range(g.n) if (v,) in unpack(heard[v], 1)}
    stats.add(st)
    return make_solution(g, VC2, S | cover), stats


def _solve_exact(H):
    return exact_mvc(H).members


def check_input(g, name, weighted=False):
    """Raise unless g is connected and carries vertex weights exactly when
    the algorithm `name` reads them."""
    if weighted and g.weights is None:
        raise InputError(f"{name} requires vertex weights")
    if not weighted and g.weights is not None:
        raise InputError(f"{name} is unweighted")
    if not g.is_connected():
        raise ConnectivityError(f"{name} requires a connected graph")


def g2mvc_trivial(g):
    """All vertices: on a connected graph any vertex cover of G^2 has at
    least n/2 vertices, so the full vertex set is a 2-approximation."""
    check_input(g, "g2mvc_trivial")
    return make_solution(g, VC2, set(range(g.n)))


def g2mvc_eps(g, eps, model=None, seed=0):
    """(1+eps)-approximate vertex cover of G^2 in O(n/eps) CONGEST rounds.
    Deterministic: `seed` is ignored."""
    check_input(g, "g2mvc_eps")
    if model is None:
        model = Model(CONGEST)
    if Fraction(eps) > 1:  # eps <= 0 raises in phase1_unweighted
        return g2mvc_trivial(g), RoundStats()
    S, _, stats = phase1_unweighted(g, eps, model)
    return leader_phase2(g, S, model, _solve_exact, stats)


# ---------------------------------------------------------------------------
# Weighted Phase I: weight classes per center, sequential id-ordered scan,
# repeated until no (center, class) pair passes the eps/(1+eps) test.
# ---------------------------------------------------------------------------

def _encode_weight(w, bits):
    """Numerator and denominator, two words each."""
    return to_words(w.numerator, 2, bits) + to_words(w.denominator, 2, bits)


def _decode_weight(words, bits):
    return Fraction(from_words(words[:2], bits), from_words(words[2:4], bits))


def weight_class_index(w, w_star):
    """Class i such that w_star * 2^i <= w < w_star * 2^(i+1); class 0
    for w < w_star."""
    return max(0, (w // w_star).bit_length() - 1)


class _WeightedNode:
    """One node's weighted Phase I state, kept across the scans: its
    weight, its neighbors' weights as heard, its cover flag, the neighbors
    it believes uncovered, and whether the current scan selected it."""

    def __init__(self, w, nbr_w):
        self.w = w
        self.nbr_w = nbr_w
        self.in_S = w == 0  # zero-weight vertices join S at once
        self.r_view = {u for u, wu in nbr_w.items() if wu > 0}
        self.selected = False


class _WeightedPassProgram(NodeProgram):
    """One sequential scan over centers: slot c spans two sweeps.  The
    center announces w_star and a bitmask of selectable classes; selected
    neighbors join S and report leaving R.  A node wakes at its own slot,
    sweep 2v, and at the end, sweep 2n; mail wakes it otherwise.  The
    output is the node's record, which the scan updates in place."""

    def __init__(self, ctx, eps, node):
        super().__init__(ctx)
        self.eps = eps
        self.output = node
        node.selected = False

    def step(self, r, inbox):
        own, end = 2 * self.ctx.node, 2 * self.ctx.n
        if r >= end:
            self.wake_at = None
        else:
            self.wake_at = own if r < own else end
        node = self.output
        bits = self.ctx.word_bits
        c = r // 2
        if r % 2 == 0:
            for s in inbox:
                node.r_view.discard(s)
            if c != self.ctx.node:
                return {}
            pos = [w for w in node.nbr_w.values() if w > 0]
            if not pos:
                return {}
            w_star = min(pos)
            classes = {}
            for u in node.r_view:
                wu = node.nbr_w[u]
                classes.setdefault(weight_class_index(wu, w_star), []).append(wu)
            mask = 0
            for i, ws in classes.items():
                if max(ws) <= sum(ws, Fraction(0)) * self.eps / (1 + self.eps):
                    mask |= 1 << i
            if mask == 0:
                return {}
            mask_words = to_words(mask, -(-mask.bit_length() // bits), bits)
            msg = _encode_weight(w_star, bits) + mask_words
            if len(msg) > self.ctx.model.bandwidth_words:
                raise EncodingError(f"class mask for center {c} exceeds bandwidth")
            return dict.fromkeys(self.ctx.neighbors, msg)
        # odd sweep: selected neighbors of center c join the cover
        if c in inbox and not node.in_S:
            msg = inbox[c]
            w_star = _decode_weight(msg, bits)
            mask = from_words(msg[4:], bits)
            if mask & (1 << weight_class_index(node.w, w_star)):
                node.in_S = node.selected = True
                return dict.fromkeys(self.ctx.neighbors, (1,))
        return {}


def weighted_phase1(g, eps, model=None):
    """Weighted Phase I alone; returns (S, RoundStats)."""
    if g.weights is None:
        raise InputError("weighted Phase I requires vertex weights")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if model is None:
        model = Model(CONGEST)
    bits = word_bits(g.n)
    # a vertex with no neighbor sends nothing, so its weight need not fit
    msgs = [_encode_weight(g.weight(v), bits) if g.adj[v] else None
            for v in range(g.n)]
    heard, stats = exchange(g, msgs, model)
    nodes = [
        _WeightedNode(g.weight(v),
                      {u: _decode_weight(m, bits) for u, m in heard[v].items()})
        for v in range(g.n)
    ]
    # scan until one selects nobody: a scan that selects puts a vertex into
    # S, which it never leaves, so at most n + 1 scans run
    while True:
        outputs, st = run(
            g, lambda ctx: _WeightedPassProgram(ctx, eps, nodes[ctx.node]), model
        )
        stats.add(st)
        if not any(o.selected for o in outputs):
            return {v for v, o in enumerate(outputs) if o.in_S}, stats


def g2mwvc_eps(g, eps, model=None, seed=0):
    """(1+eps)-approximate weighted vertex cover of G^2, exact rationals.
    Deterministic: `seed` is ignored."""
    check_input(g, "g2mwvc_eps", weighted=True)
    if model is None:
        model = Model(CONGEST)
    S, stats = weighted_phase1(g, eps, model)
    return leader_phase2(g, S, model, _solve_exact, stats)


# ---------------------------------------------------------------------------
# Congested-clique voting.  Candidates with many uncovered neighbors draw
# random ranks; uncovered vertices vote for their best-ranked candidate
# neighbor; candidates collecting at least a 1/8 fraction of their
# neighborhood pull it into the cover.  Candidacy is announced to all
# nodes, so everyone agrees on the phase where no candidates remain; the
# run ends there, and the vertices still uncovered go to leader_phase2.
# ---------------------------------------------------------------------------

class _VotingProgram(NodeProgram):
    """Stepped in every sweep until no candidate remains, so sweep r is
    step r % 4 of voting phase r // 4 + 1.  The output is the R flag."""

    RANK_WORDS = 4

    def __init__(self, ctx, eps, max_phases, rng):
        super().__init__(ctx)
        self.rng = rng  # this node's rank stream
        self.threshold = Fraction(8, 1) / eps + 2
        self.max_phases = max_phases
        self.in_R = True
        self.r_nbrs = set(ctx.neighbors)
        self.is_cand = False
        self.declared_dr = 0

    def step(self, r, inbox):
        ctx = self.ctx
        s = r % 4
        self.wake_at = r + 1  # every sweep until voting ends
        if s == 0:
            for snd in inbox:  # joins announced at the end of last phase
                self.r_nbrs.discard(snd)
            if r // 4 >= self.max_phases:
                raise RoundCapError("voting did not converge within the phase cap")
            self.is_cand = len(self.r_nbrs) > self.threshold
            if self.is_cand:
                self.declared_dr = len(self.r_nbrs)
                rank = self.rng.randrange(max(1, ctx.n ** 4))
                msg = to_words(rank, self.RANK_WORDS, ctx.word_bits)
                return {u: msg for u in range(ctx.n) if u != ctx.node}
            return {}
        if s == 1:
            ranks = {snd: from_words(m, ctx.word_bits) for snd, m in inbox.items()}
            if not ranks and not self.is_cand:  # no candidate anywhere
                self.wake_at = None
                self.output = self.in_R
                return {}
            if self.in_R:
                nbr_cands = [(ranks[u], u) for u in ctx.neighbors if u in ranks]
                if nbr_cands:
                    _, target = max(nbr_cands)  # highest rank, then highest id
                    return {target: (1,)}
            return {}
        if s == 2:
            if self.is_cand and len(inbox) >= Fraction(self.declared_dr, 8):
                return dict.fromkeys(ctx.neighbors, (1,))
            return {}
        # s == 3: join the cover next to a successful candidate
        if inbox and self.in_R:
            self.in_R = False
            return dict.fromkeys(ctx.neighbors, (1,))
        return {}


def g2mvc_cc_voting(g, eps, seed=0, model=None):
    """Randomized congested-clique cover: O(log n + 1/eps) rounds w.h.p."""
    check_input(g, "g2mvc_cc_voting")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if model is None:
        model = Model(CLIQUE)
    if model.variant != CLIQUE:
        raise InputError("g2mvc_cc_voting runs in the CLIQUE model")
    max_phases = 8 * max(1, math.ceil(math.log2(g.n + 1))) + 16

    outputs, stats = run(g, lambda ctx: _VotingProgram(
        ctx, eps, max_phases, node_rng(seed, ctx.node)), model)
    S = {v for v, in_R in enumerate(outputs) if not in_R}
    return leader_phase2(g, S, model, _solve_exact, stats)
