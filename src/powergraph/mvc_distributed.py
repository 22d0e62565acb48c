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
from .graph import VC2, Graph, make_solution
from .protocols import (
    elect_leader_bfs, exchange, pipelined_broadcast, pipelined_convergecast,
)
from .sim import (
    CLIQUE, CONGEST, Model, NodeProgram, RoundStats, from_words, run, to_words,
    word_bits,
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
# iteration takes 4 sweeps: candidacy, relay of the two-hop candidate
# maximum, firing, and R-status updates.
# ---------------------------------------------------------------------------

class _Phase1Program(NodeProgram):
    def __init__(self, ctx, l, i_max):
        super().__init__(ctx)
        self.awake = True
        self.l, self.i_max = l, i_max
        self.in_S = False
        self.in_R = True
        self.in_C = True
        self.r_nbrs = set(ctx.neighbors)
        self.is_cand = False
        self.best_seen = None
        self.fired = False
        self.joined_center = None

    def _bcast(self, msg):
        return {u: msg for u in self.ctx.neighbors}

    def step(self, r, inbox):
        phase, it = r % 4, r // 4
        if it >= self.i_max:
            for s in inbox:  # absorb trailing R-status updates
                self.r_nbrs.discard(s)
            self.awake = False
            self.output = {
                "in_S": self.in_S,
                "fired": self.fired,
                "joined_center": self.joined_center,
                "u_nbrs": frozenset(self.r_nbrs),
            }
            return {}
        if phase == 0:
            for s in inbox:
                self.r_nbrs.discard(s)
            self.is_cand = self.in_C and len(self.r_nbrs) > self.l
            return self._bcast((1,)) if self.is_cand else {}
        if phase == 1:
            cands = list(inbox)
            if self.is_cand:
                cands.append(self.ctx.node)
            self.best_seen = max(cands) if cands else None
            if self.best_seen is not None:
                return self._bcast((self.best_seen,))
            return {}
        if phase == 2:
            vals = [msg[0] for msg in inbox.values()]
            if self.best_seen is not None:
                vals.append(self.best_seen)
            if self.is_cand and vals and max(vals) == self.ctx.node:
                self.fired = True
                self.in_C = False
                return self._bcast((1,))
            return {}
        # phase 3: join S next to a fired center
        centers = sorted(inbox)
        if centers and self.in_R:
            # fired centers are three apart, so at most one neighbors us
            self.in_S = True
            self.in_R = False
            self.joined_center = centers[0]
            return self._bcast((1,))
        return {}


def phase1_unweighted(g, eps, model=None, seed=0):
    """Run Phase I alone; returns (S, per-node diagnostics, RoundStats)."""
    l, _ = effective_epsilon(eps)
    if model is None:
        model = Model(CONGEST)
    i_max = g.n // (l + 1) + 1
    outputs, stats = run(
        g, lambda ctx: _Phase1Program(ctx, l, i_max), model, seed=seed
    )
    S = {v for v in range(g.n) if outputs[v]["in_S"]}
    return S, outputs, stats


# ---------------------------------------------------------------------------
# Phase II: gather F at a leader, rebuild H = G^2[U], solve, flood back.
# ---------------------------------------------------------------------------

def build_H_from_F(F, U, n, weights=None):
    """Reconstruct G^2[U] on n vertices from F = {edges of G touching U}.

    Returns an n-vertex graph, carrying `weights` when given, whose edges
    are exactly those of G^2 between U vertices; vertices outside U stay
    isolated.
    """
    U = set(U)
    F = {(min(u, v), max(u, v)) for (u, v) in F}
    adj = {}
    edges = set()
    for (u, v) in F:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        if u in U and v in U:
            edges.add((u, v))
    # distance-2 pairs witnessed through any F endpoint
    for w, nbrs in adj.items():
        in_u = sorted(x for x in nbrs if x in U)
        for i in range(len(in_u)):
            for j in range(i + 1, len(in_u)):
                edges.add((in_u[i], in_u[j]))
    return Graph(n, sorted(edges), weights=weights)


def _f_item(v, u, v_in, u_in):
    """The F-edge item (a, b, flag) for edge vu, with a < b; flag bit0
    marks a in U, bit1 marks b."""
    if v > u:
        v, u, v_in, u_in = u, v, u_in, v_in
    return (v, u, (1 if v_in else 0) | (2 if u_in else 0))


def _f_items(g, U):
    """Per-node F-edge items: v reports its edges toward U-neighbors.
    Every F-edge has an endpoint in U, so its other endpoint reports it."""
    return [
        [_f_item(v, u, v in U, True) for u in g.adj[v] if u in U]
        for v in range(g.n)
    ]


def _decode_f(gathered, n, weights=None):
    """H = G^2[U] from gathered F-edge items, U read off their flags."""
    F = set()
    U_seen = set()
    for (a, b, flag) in set(gathered):
        F.add((a, b))
        if flag & 1:
            U_seen.add(a)
        if flag & 2:
            U_seen.add(b)
    return build_H_from_F(F, U_seen, n, weights=weights)


def leader_phase2(g, U, model, seed, solve):
    """Phase II: elect a leader, gather F there, rebuild H = G^2[U] with
    g's weights, cover H with solve(H) and broadcast the cover.

    Returns (cover vertex set, RoundStats).
    """
    leader, parent, _, stats = elect_leader_bfs(g, model, seed=seed)
    tree = (leader, parent)
    gathered, st = pipelined_convergecast(g, tree, _f_items(g, U), model, seed=seed)
    stats.add(st)
    cover = set(solve(_decode_f(gathered, g.n, g.weights)))
    payload = [(v,) for v in sorted(cover)]
    _, st = pipelined_broadcast(g, tree, payload, model, seed=seed)
    stats.add(st)
    return cover, stats


def _solve_exact(H):
    return exact_mvc(H).members


def g2mvc_trivial(g):
    """All vertices: on a connected graph any vertex cover of G^2 has at
    least n/2 vertices, so the full vertex set is a 2-approximation."""
    if not g.is_connected():
        raise ConnectivityError("g2mvc_trivial requires a connected graph")
    return make_solution(g, VC2, set(range(g.n)))


def g2mvc_eps(g, eps, model=None, seed=0):
    """(1+eps)-approximate vertex cover of G^2 in O(n/eps) CONGEST rounds."""
    if g.weights is not None:
        raise InputError("g2mvc_eps is unweighted; use g2mwvc_eps")
    if not g.is_connected():
        raise ConnectivityError("g2mvc_eps requires a connected graph")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if model is None:
        model = Model(CONGEST)
    if eps > 1:
        return g2mvc_trivial(g), RoundStats()
    S, _, stats = phase1_unweighted(g, eps, model, seed=seed)
    U = set(range(g.n)) - S
    members, st2 = leader_phase2(g, U, model, seed, _solve_exact)
    stats.add(st2)
    return make_solution(g, VC2, S | members), stats


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
    """Class i such that w_star * 2^i <= w < w_star * 2^(i+1)."""
    i = 0
    ratio = w / w_star
    while ratio >= 2:
        ratio /= 2
        i += 1
    return i


def weight_classes(g, c, restrict=None):
    """Return (w_star, {class index -> member list}) for center c.

    w_star is the minimum positive weight in N(c); zero-weight vertices are
    excluded, since they are pre-added to any cover.  restrict, when given,
    intersects the class membership (e.g. with the uncovered set).
    """
    pos_all = [g.weight(u) for u in g.adj[c] if g.weight(u) > 0]
    if not pos_all:
        return None, {}
    w_star = min(pos_all)
    nbrs = [u for u in g.adj[c] if g.weight(u) > 0]
    if restrict is not None:
        nbrs = [u for u in nbrs if u in restrict]
    classes = {}
    for u in nbrs:
        classes.setdefault(weight_class_index(g.weight(u), w_star), []).append(u)
    return w_star, classes


def class_selectable(g, members, eps):
    """Selection test: max weight <= (sum of weights) * eps/(1+eps)."""
    eps = Fraction(eps)
    if not members:
        return False
    w_max = max(g.weight(u) for u in members)
    total = sum((g.weight(u) for u in members), Fraction(0))
    return w_max <= total * eps / (1 + eps)


class _WeightedPassProgram(NodeProgram):
    """One sequential scan over centers: slot c spans two sweeps.  The
    center announces w_star and a bitmask of selectable classes; selected
    neighbors join S and report leaving R."""

    def __init__(self, ctx, eps, w, nbr_w, in_S, in_R, r_view):
        super().__init__(ctx)
        self.awake = True
        self.eps = eps
        self.w = w
        self.nbr_w = nbr_w
        self.in_S = in_S
        self.in_R = in_R
        self.r_view = set(r_view)
        self.selected_any = False

    def _bcast(self, msg):
        return {u: msg for u in self.ctx.neighbors}

    def step(self, r, inbox):
        bits = self.ctx.word_bits
        if r % 2 == 0:
            for s in inbox:
                self.r_view.discard(s)
            if r == 2 * self.ctx.n:
                self.awake = False
                self.output = {
                    "in_S": self.in_S,
                    "in_R": self.in_R,
                    "r_view": frozenset(self.r_view),
                    "selected_any": self.selected_any,
                }
                return {}
            c = r // 2
            if c != self.ctx.node:
                return {}
            pos = [w for w in self.nbr_w.values() if w > 0]
            if not pos:
                return {}
            w_star = min(pos)
            classes = {}
            for u in self.r_view:
                wu = self.nbr_w[u]
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
            return self._bcast(msg)
        # odd sweep: selected neighbors of center c join the cover
        c = r // 2
        if c in inbox and self.in_R:
            msg = inbox[c]
            w_star = _decode_weight(msg, bits)
            mask = from_words(msg[4:], bits)
            if mask & (1 << weight_class_index(self.w, w_star)):
                self.in_S = True
                self.in_R = False
                self.selected_any = True
                return self._bcast((1,))
        return {}


def weighted_phase1(g, eps, model=None, seed=0):
    """Weighted Phase I alone; returns (S, RoundStats)."""
    if g.weights is None:
        raise InputError("weighted Phase I requires vertex weights")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if model is None:
        model = Model(CONGEST)
    bits = word_bits(g.n)
    msgs = [_encode_weight(g.weight(v), bits) for v in range(g.n)]
    heard, stats = exchange(g, msgs, model, seed=seed)
    states = []
    for v in range(g.n):
        zero = g.weight(v) == 0
        states.append(
            {
                "w": g.weight(v),
                "nbr_w": {u: _decode_weight(m, bits) for u, m in heard[v].items()},
                "in_S": zero,
                "in_R": not zero,
                "r_view": {u for u in g.adj[v] if g.weight(u) > 0},
            }
        )

    # each productive pass moves at least one vertex into S
    for _pass in range(g.n + 1):
        outputs, st = run(
            g,
            lambda ctx: _WeightedPassProgram(ctx, eps, **states[ctx.node]),
            model,
            seed=seed,
        )
        stats.add(st)
        for v, o in enumerate(outputs):
            states[v].update(
                in_S=o["in_S"], in_R=o["in_R"], r_view=set(o["r_view"])
            )
        if not any(o["selected_any"] for o in outputs):
            break
    else:
        raise RoundCapError("weighted Phase I did not stabilize")

    S = {v for v in range(g.n) if states[v]["in_S"]}
    return S, stats


def g2mwvc_eps(g, eps, model=None, seed=0):
    """(1+eps)-approximate weighted vertex cover of G^2, exact rationals."""
    if g.weights is None:
        raise InputError("g2mwvc_eps requires vertex weights")
    if not g.is_connected():
        raise ConnectivityError("g2mwvc_eps requires a connected graph")
    if model is None:
        model = Model(CONGEST)
    S, stats = weighted_phase1(g, eps, model, seed=seed)
    U = set(range(g.n)) - S
    members, st2 = leader_phase2(g, U, model, seed, _solve_exact)
    stats.add(st2)
    return make_solution(g, VC2, S | members), stats


# ---------------------------------------------------------------------------
# Congested-clique voting.  Candidates with many uncovered neighbors draw
# random ranks; uncovered vertices vote for their best-ranked candidate
# neighbor; candidates collecting at least a 1/8 fraction of their
# neighborhood pull it into the cover.  Candidacy is announced to all
# nodes, so everyone agrees on the phase where no candidates remain and
# switches to a direct gather at node 0.
# ---------------------------------------------------------------------------

_STAGE_VOTE = 0
_STAGE_GATHER = 1


class _VotingProgram(NodeProgram):
    RANK_WORDS = 4

    def __init__(self, ctx, eps, max_phases):
        super().__init__(ctx)
        self.awake = True
        self.threshold = Fraction(8, 1) / eps + 2
        self.max_phases = max_phases
        self.in_R = True
        self.in_cover = False
        self.r_nbrs = set(ctx.neighbors)
        self.stage = _STAGE_VOTE
        self.sweep = 0  # sweep counter within the current stage
        self.phase = 0
        self.is_cand = False
        self.declared_dr = 0
        self.queue = []

    def step(self, r, inbox):
        if self.stage == _STAGE_VOTE:
            return self._vote_step(inbox)
        return self._gather_step(inbox)

    def _vote_step(self, inbox):
        ctx = self.ctx
        s = self.sweep % 4
        self.sweep += 1
        if s == 0:
            for snd in inbox:  # joins announced at the end of last phase
                self.r_nbrs.discard(snd)
            self.phase += 1
            if self.phase > self.max_phases:
                raise RoundCapError("voting did not converge within the phase cap")
            self.is_cand = len(self.r_nbrs) > self.threshold
            if self.is_cand:
                self.declared_dr = len(self.r_nbrs)
                rank = ctx.rng.randrange(max(1, ctx.n ** 4))
                msg = to_words(rank, self.RANK_WORDS, ctx.word_bits)
                return {u: msg for u in range(ctx.n) if u != ctx.node}
            return {}
        if s == 1:
            ranks = {snd: from_words(m, ctx.word_bits) for snd, m in inbox.items()}
            if not ranks and not self.is_cand:
                self.stage = _STAGE_GATHER
                self.sweep = 0
                return self._gather_init()
            if self.in_R:
                nbr_cands = [(ranks[u], u) for u in ctx.neighbors if u in ranks]
                if nbr_cands:
                    _, target = max(nbr_cands)  # highest rank, then highest id
                    return {target: (1,)}
            return {}
        if s == 2:
            if self.is_cand and len(inbox) >= Fraction(self.declared_dr, 8):
                return {u: (1,) for u in ctx.neighbors}
            return {}
        # s == 3: join the cover next to a successful candidate
        if inbox and self.in_R:
            self.in_R = False
            self.in_cover = True
            return {u: (1,) for u in ctx.neighbors}
        return {}

    def _gather_init(self):
        ctx = self.ctx
        self.queue = []
        for u in ctx.neighbors:
            if u in self.r_nbrs or self.in_R:
                self.queue.append(_f_item(ctx.node, u, self.in_R, u in self.r_nbrs))
        if ctx.node == 0:
            self.collected = list(self.queue)
            self.queue = []
            return {}
        return {0: (len(self.queue),)}

    def _gather_step(self, inbox):
        ctx = self.ctx
        self.sweep += 1
        if ctx.node == 0:
            if self.sweep == 1:
                self.remaining = sum(m[0] for m in inbox.values())
            else:
                for m in inbox.values():
                    self.collected.append(tuple(m))
                    self.remaining -= 1
            if self.remaining == 0:
                H = _decode_f(self.collected, ctx.n)
                members = exact_mvc(H).members
                self.in_cover = self.in_cover or (0 in members)
                self.awake = False
                self.output = {"in_cover": self.in_cover, "phases": self.phase}
                return {
                    u: ((1,) if u in members else (0,))
                    for u in range(ctx.n)
                    if u != 0
                }
            return {}
        if 0 in inbox:  # the leader's verdict
            self.in_cover = self.in_cover or inbox[0] == (1,)
            self.awake = False
            self.output = {"in_cover": self.in_cover, "phases": self.phase}
            return {}
        if self.queue:
            return {0: self.queue.pop(0)}
        return {}


def g2mvc_cc_voting(g, eps, seed=0, model=None):
    """Randomized congested-clique cover: O(log n + 1/eps) rounds w.h.p."""
    if g.weights is not None:
        raise InputError("g2mvc_cc_voting is unweighted")
    if not g.is_connected():
        raise ConnectivityError("g2mvc_cc_voting requires a connected graph")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if model is None:
        model = Model(CLIQUE)
    if model.variant != CLIQUE:
        raise InputError("g2mvc_cc_voting runs in the CLIQUE model")
    max_phases = 8 * max(1, math.ceil(math.log2(g.n + 1))) + 16

    outputs, stats = run(
        g, lambda ctx: _VotingProgram(ctx, eps, max_phases), model, seed=seed
    )
    members = {v for v, o in enumerate(outputs) if o["in_cover"]}
    return make_solution(g, VC2, members), stats
