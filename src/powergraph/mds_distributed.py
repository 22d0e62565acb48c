"""Distributed O(log Delta)-approximate dominating set on the square graph.

Each phase estimates, for every vertex, how many uncovered vertices it
would cover (its closed 2-hop neighborhood intersected with the uncovered
set), rounds the estimate to a power of two, elects candidates whose
rounded density is maximal within four hops, and lets uncovered vertices
vote for their best candidate.  Candidates that attract at least an eighth
of their estimated coverage join the dominating set.

Cardinality estimation follows the minimum-of-exponentials scheme: every
uncovered vertex draws r exponential samples, two relay-min rounds spread
the per-sample minima over the 2-hop neighborhood, and r divided by the
summed minima estimates the count.  Low-degree neighborhoods skip the
sampling entirely and count exactly from explicitly forwarded edges.
"""

import math
from fractions import Fraction

from .errors import InputError, RoundCapError
from .graph import DS2, make_solution
from .protocols import exchange
from .sim import (
    CONGEST, Model, NodeProgram, RoundStats, node_rng, run, to_words, word_bits,
)


class EstimateConfig:
    """Knobs for the 2-hop cardinality estimator.

    eps_est bounds each sampled estimate's relative error, but only with
    probability 1 - O(n^-2), not always; samples is the number of
    exponential draws (the default keeps the failure bound
    exp(-eps^2 r / 3) <= n^-2), and exact_threshold the degree below which
    neighborhoods are counted exactly instead of estimated.
    """

    def __init__(self, eps_est=Fraction(1, 8), samples=None, exact_threshold=None):
        eps_est = Fraction(eps_est)
        if not (0 < eps_est < Fraction(1, 4)):
            raise InputError("eps_est must lie strictly between 0 and 1/4")
        if samples is not None and samples < 1:
            raise InputError("samples must be a positive integer")
        self.eps_est = eps_est
        self.samples = samples
        self.exact_threshold = exact_threshold

    def resolve(self, n):
        """Concrete (samples, exact_threshold) for an n-vertex graph."""
        ln_n = math.log(max(2, n))
        r = self.samples
        if r is None:
            r = math.ceil(6 * ln_n / float(self.eps_est) ** 2)
        t = self.exact_threshold
        if t is None:
            t = max(1, math.ceil(8 * ln_n))
        return r, t


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

class _EdgeStreamProgram(NodeProgram):
    """Low-degree vertices stream (neighbor, status) pairs, one per sweep,
    waking while they have pairs left; everyone collects what its neighbors
    forward, as {sender: [(vertex, status)]}."""

    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.queue = list(items)  # items to announce, may be empty
        self.output = {}

    def step(self, r, inbox):
        for s, msg in inbox.items():
            self.output.setdefault(s, []).append((msg[0], msg[1]))
        if self.queue:
            item = self.queue.pop(0)
            self.wake_at = r + 1 if self.queue else None
            return {u: item for u in self.ctx.neighbors}
        return {}


# Samples travel as two words each.  These run on every estimator message,
# so they stay specialised: per four-sample message, sim.from_words over
# two-word slices took 1.6 times as long to decode, and summed
# sim.to_words tuples 7.7 times as long to encode (Python 3.11).

def _pack_samples(vals, bits):
    mask = (1 << bits) - 1
    out = []
    for v in vals:
        out.extend((v >> bits, v & mask))
    return tuple(out)


def _unpack_samples(msg, bits):
    return [(msg[2 * i] << bits) | msg[2 * i + 1] for i in range(len(msg) // 2)]


class _SampleMinProgram(NodeProgram):
    """Two relay-min sweeps per chunk of fixed-point samples.  A node with
    nothing to report for a chunk stays silent; a missing per-chunk
    minimum therefore means no sample-holder within two hops.  A node
    wakes at every chunk boundary, and in between only while it holds a
    running minimum to rebroadcast."""

    def __init__(self, ctx, chunks):
        super().__init__(ctx)
        self.chunks = chunks  # per-chunk word tuple, or None if not in U
        self.mins = []  # per chunk: list of per-sample minima, or None
        self.stage_best = None

    def _fold(self, best, inbox):
        bits = self.ctx.word_bits
        for msg in inbox.values():
            vals = _unpack_samples(msg, bits)
            if best is None:
                best = vals
            else:
                best = [min(a, b) for a, b in zip(best, vals)]
        return best

    def step(self, r, inbox):
        chunk, sweep = r // 2, r % 2
        if sweep == 0:
            if chunk > 0:  # close out the previous chunk
                self.mins.append(self._fold(self.stage_best, inbox))
            if chunk == len(self.chunks):
                self.wake_at = None
                self.output = self.mins
                return {}
            own = self.chunks[chunk]
            if own is None:
                self.stage_best = None
                self.wake_at = r + 2
                return {}
            self.stage_best = _unpack_samples(own, self.ctx.word_bits)
            self.wake_at = r + 1
            return {u: own for u in self.ctx.neighbors}
        # sweep 1: fold neighbor draws, rebroadcast the running minimum
        best = self._fold(self.stage_best, inbox)
        self.stage_best = best
        self.wake_at = r + 1
        if best is None:
            return {}
        msg = _pack_samples(best, self.ctx.word_bits)
        return {u: msg for u in self.ctx.neighbors}


def _draw_samples(rng, count, frac_bits, max_val):
    """Inverse-CDF exponentials, rounded to fixed point and clamped."""
    vals = []
    for _ in range(count):
        x = -math.log(1.0 - rng.random())
        q = round(x * (1 << frac_bits))
        vals.append(min(max(q, 1), max_val))
    return vals


def estimate_2hop_counts(g, U, cfg=None, seed=0, model=None):
    """Estimate |N2[v] & U| for every v; returns (estimates, exact flags,
    RoundStats).  Vertices whose whole 1-hop neighborhood is low-degree
    count exactly; the rest use minimum-of-exponentials sampling."""
    if cfg is None:
        cfg = EstimateConfig()
    if model is None:
        model = Model(CONGEST)
    if model.bandwidth_words < 2:
        raise InputError("estimation needs at least 2 words of bandwidth")
    U = set(U)
    if not U <= set(range(g.n)):
        raise InputError("U must be a subset of the vertices")
    n = g.n
    r, threshold = cfg.resolve(n)
    stats = RoundStats()

    # stage 1: statuses and degrees
    status = [(1 if v in U else 0, g.degree(v)) for v in range(n)]
    info, st = exchange(g, status, model, seed=seed)
    stats.add(st)

    exact = [
        g.degree(v) < threshold
        and all(g.degree(u) < threshold for u in g.adj[v])
        for v in range(n)
    ]

    # stage 2: low-degree vertices forward their edges with statuses
    def stream_factory(ctx):
        items = []
        if len(ctx.neighbors) < threshold:
            items = [(u, info[ctx.node][u][0]) for u in ctx.neighbors]
        return _EdgeStreamProgram(ctx, items)

    heard, st = run(g, stream_factory, model, seed=seed)
    stats.add(st)

    estimates = [Fraction(0)] * n
    for v in range(n):
        if not exact[v]:
            continue
        known = {v} if v in U else set()
        for u in g.adj[v]:
            if info[v][u][0]:
                known.add(u)
            for w, flag in heard[v].get(u, []):
                if flag and w != v:
                    known.add(w)
        estimates[v] = Fraction(len(known))

    if all(exact):
        return estimates, exact, stats

    # stage 3: minimum-of-exponentials for the rest
    bits = word_bits(n)
    total_bits = 2 * bits
    frac_bits = max(1, total_bits - 5)  # 5 integer bits
    max_val = (1 << total_bits) - 1
    per_chunk = model.bandwidth_words // 2
    n_chunks = -(-r // per_chunk)

    draws = {}
    for v in sorted(U):
        rng = node_rng(seed, v, salt=0x5EED)
        draws[v] = _draw_samples(rng, r, frac_bits, max_val)

    def sample_factory(ctx):
        chunks = [None] * n_chunks
        if ctx.node in draws:
            own = draws[ctx.node]
            chunks = [
                _pack_samples(own[c * per_chunk : (c + 1) * per_chunk], bits)
                for c in range(n_chunks)
            ]
        return _SampleMinProgram(ctx, chunks)

    mins, st = run(g, sample_factory, model, seed=seed)
    stats.add(st)

    for v in range(n):
        if exact[v]:
            continue
        if any(chunk is None for chunk in mins[v]):
            estimates[v] = Fraction(0)  # no uncovered vertex within 2 hops
            continue
        vals = [x for chunk in mins[v] for x in chunk][:r]
        total = Fraction(sum(vals), 1 << frac_bits)
        estimates[v] = Fraction(len(vals)) / total if total else Fraction(0)
    return estimates, exact, stats


# ---------------------------------------------------------------------------
# per-phase relays
# ---------------------------------------------------------------------------

class _RelayBestProgram(NodeProgram):
    """Spread (value tuple, origin id) extrema over a fixed number of hops.
    Tracks the neighbor that first delivered the final best (the gateway
    toward the origin).  Only mail and the last sweep, `hops`, wake a node:
    sweep 0 sends every initial value."""

    def __init__(self, ctx, value, hops, prefer_min):
        super().__init__(ctx)
        self.wake_at = hops
        self.best = value  # tuple of words + (origin,) or None
        self.hops = hops
        self.prefer_min = prefer_min
        self.gateway = None
        self.dirty = self.best is not None

    def _better(self, a, b):
        if b is None:
            return True
        return a < b if self.prefer_min else a > b

    def step(self, r, inbox):
        for s, msg in inbox.items():
            val = tuple(msg)
            if self._better(val, self.best):
                self.best = val
                self.gateway = s
                self.dirty = True
            elif val == self.best and self.gateway is not None and s < self.gateway:
                self.gateway = s
        if r >= self.hops:
            self.wake_at = None
            self.output = (self.best, self.gateway)
            return {}
        if self.dirty and self.best is not None:
            self.dirty = False
            return {u: self.best for u in self.ctx.neighbors}
        return {}


def _relay_best(g, values, hops, prefer_min, model, seed):
    """values: per-vertex word tuple or None.  Returns (per-vertex
    (best, gateway), RoundStats)."""

    def factory(ctx):
        return _RelayBestProgram(ctx, values[ctx.node], hops, prefer_min)

    return run(g, factory, model, seed=seed)


class _VoteProgram(NodeProgram):
    """Voters send their chosen candidate's id toward the gateway; relays
    aggregate per-candidate counts; candidates tally.  Every node wakes
    for the tally in sweep 2."""

    def __init__(self, ctx, vote):
        super().__init__(ctx)
        self.wake_at = 2
        self.vote = vote  # (candidate, gateway) or None
        self.tally = 0
        self.forward = {}

    def step(self, r, inbox):
        me = self.ctx.node
        if r == 0:
            if self.vote is not None:
                cand, gateway = self.vote
                if cand == me:
                    self.tally += 1
                    return {}
                return {gateway: (cand,)}
            return {}
        if r == 1:
            counts = {}
            for s, msg in inbox.items():
                c = msg[0]
                if c == me:
                    self.tally += 1
                else:
                    counts[c] = counts.get(c, 0) + 1
            return {c: (k,) for c, k in counts.items()}
        for s, msg in inbox.items():
            self.tally += msg[0]
        self.wake_at = None
        self.output = self.tally
        return {}


class _CoverFloodProgram(NodeProgram):
    """Winners flood a covered flag two hops out; every node wakes for its
    output in sweep 2."""

    def __init__(self, ctx, is_winner):
        super().__init__(ctx)
        self.wake_at = 2
        self.is_winner = is_winner
        self.covered = is_winner

    def step(self, r, inbox):
        if r == 0:
            if self.is_winner:
                return {u: (1,) for u in self.ctx.neighbors}
            return {}
        if r == 1:
            if inbox:
                self.covered = True
                return {u: (1,) for u in self.ctx.neighbors}
            return {}
        if inbox:
            self.covered = True
        self.wake_at = None
        self.output = self.covered
        return {}


def g2mds_logd(g, seed=0, cfg=None, model=None):
    """O(log Delta)-approximate dominating set of G^2; returns
    (Solution, RoundStats)."""
    if cfg is None:
        cfg = EstimateConfig()
    if model is None:
        model = Model(CONGEST)
    n = g.n
    if n == 0:
        return make_solution(g, DS2, set()), RoundStats()
    max_phases = 16 * (math.ceil(math.log2(n + 1)) + 1)
    stall_cap = 8 * (math.ceil(math.log2(n + 1)) + 2)
    stats = RoundStats()
    rngs = {}  # candidates' rank streams, made on first use
    dominators = set()
    covered = [False] * n
    stall = 0
    phases = 0
    while not all(covered):
        phases += 1
        if phases > max_phases:
            raise RoundCapError("dominating-set phases exceeded the cap")
        U = {v for v in range(n) if not covered[v]}
        est, exact, st = estimate_2hop_counts(g, U, cfg, seed=seed + phases, model=model)
        stats.add(st)

        rho_exp = [None] * n
        for v in range(n):
            if est[v] >= 1:
                rho_exp[v] = (math.ceil(est[v]) - 1).bit_length()

        # candidates: maximal rounded density within four hops
        values = [
            ((rho_exp[v], v) if rho_exp[v] is not None else None) for v in range(n)
        ]
        out, st = _relay_best(
            g, values, hops=4, prefer_min=False, model=model, seed=seed
        )
        stats.add(st)
        candidates = set()
        for v in range(n):
            best, _ = out[v]
            if rho_exp[v] is not None and best is not None and best[0] == rho_exp[v]:
                candidates.add(v)

        # ranks in [n^4], spread two hops with gateways
        bits = word_bits(n)
        rank_vals = [None] * n
        for c in sorted(candidates):
            if c not in rngs:
                rngs[c] = node_rng(seed, c)
            rnk = rngs[c].randrange(max(1, n ** 4))
            # to_words keeps numeric order, which the min-relay compares
            rank_vals[c] = to_words(rnk, 4, bits) + (c,)
        out, st = _relay_best(
            g, rank_vals, hops=2, prefer_min=True, model=model, seed=seed
        )
        stats.add(st)

        votes = [None] * n
        for v in sorted(U):
            best, gateway = out[v]
            if best is None:
                continue
            cand = best[4]
            votes[v] = (cand, cand if cand == v or gateway is None else gateway)

        tallies, st = run(
            g, lambda ctx: _VoteProgram(ctx, votes[ctx.node]), model, seed=seed
        )
        stats.add(st)

        winners = {
            c
            for c in candidates
            if est[c] > 0 and Fraction(tallies[c]) >= est[c] / 8
        }

        flags, st = run(
            g, lambda ctx: _CoverFloodProgram(ctx, ctx.node in winners),
            model, seed=seed,
        )
        stats.add(st)
        newly = 0
        for v in range(n):
            if flags[v] and not covered[v]:
                covered[v] = True
                newly += 1
        dominators |= winners
        if newly == 0:
            stall += 1
            if stall > stall_cap:
                raise RoundCapError("no progress across too many phases")
        else:
            stall = 0
    return make_solution(g, DS2, dominators), stats
