"""Distributed O(log Delta)-approximate dominating set on the square graph.

Each phase estimates, for every vertex, how many uncovered vertices it
would cover (its closed 2-hop neighborhood intersected with the uncovered
set), rounds the estimate to a power of two, elects candidates whose
rounded density is maximal within four hops, and lets uncovered vertices
vote for their best candidate.  Candidates that attract at least an eighth
of their estimated coverage join the dominating set.

Cardinality estimation follows the minimum-of-exponentials scheme: every
uncovered vertex draws r exponential samples, and two relay-min rounds per
chunk of samples that a message holds spread the per-sample minima over
the 2-hop neighborhood; one engine run carries up to 32 chunks in wide
messages, each chunk charged as if sent alone.  The minima are folded in
word form by one loop over each message's (hi, lo) word pairs, and each
vertex keeps their sum: r divided by it estimates the count.  Low-degree
neighborhoods skip the sampling and count exactly from forwarded edges.
"""

import math
from fractions import Fraction

from .errors import InputError, RoundCapError
from .graph import DS2, make_solution
from .protocols import exchange, stream
from .sim import (
    CONGEST, Model, NodeProgram, RoundStats, default_round_cap, node_rng, run,
    to_words, word_bits,
)


class EstimateConfig:
    """Knobs for the 2-hop cardinality estimator.

    eps_est bounds each sampled estimate's relative error, but only with
    probability 1 - O(n^-2), not always; samples is the number of
    exponential draws (the default keeps the failure bound
    exp(-eps^2 r / 3) <= n^-2), and exact_threshold the degree below which
    neighborhoods are counted exactly instead of estimated.  Both are
    positive ints, or None for their defaults.
    """

    def __init__(self, eps_est=Fraction(1, 8), samples=None, exact_threshold=None):
        try:
            eps_est = Fraction(eps_est)
        except (TypeError, ValueError, OverflowError):
            eps_est = None
        if eps_est is None or not (0 < eps_est < Fraction(1, 4)):
            raise InputError("eps_est must lie strictly between 0 and 1/4")
        for name, value in (("samples", samples),
                            ("exact_threshold", exact_threshold)):
            if value is None:
                continue
            if type(value) is bool or not isinstance(value, int) or value < 1:
                raise InputError(f"{name} must be a positive integer")
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

_CHUNKS_PER_RUN = 32  # per sampled-stage run: bounds its memory, not its charge


class _SampleMinProgram(NodeProgram):
    """A three-sweep relay-min of fixed-point samples: U draws and sends,
    every node holding samples folds and relays them, and every node then
    outputs the sum of its per-sample minima, or None with no sample-holder
    within two hops.  A sample is two words, most significant first, so the
    least (hi, lo) pair is the least sample: a fold copies the running best
    (or one message) into a list and keeps each smaller pair, undecoded."""

    def __init__(self, ctx, rng, samples, frac_bits):
        super().__init__(ctx)
        self.rng = rng  # this node's sample stream, or None if not in U
        self.samples = samples
        self.frac_bits = frac_bits
        self.best = None  # running per-sample minima as words, or None

    def _fold(self, inbox):
        msgs = list(inbox.values())
        if self.best is not None:
            msgs.append(self.best)
        if len(msgs) < 2:
            return msgs[0] if msgs else None
        best = list(msgs.pop())  # the running best, when there is one
        hi_idx = range(0, len(best), 2)
        for m in msgs:
            for j in hi_idx:
                hi = m[j]
                if hi <= best[j] and (hi < best[j] or m[j + 1] < best[j + 1]):
                    best[j] = hi
                    best[j + 1] = m[j + 1]
        return tuple(best)

    def step(self, r, inbox):
        bits = self.ctx.word_bits
        if r:
            self.best = self._fold(inbox)
        elif self.rng is not None:
            self.best = _draw_words(self.rng, self.samples, self.frac_bits, bits)
        if r == 2:
            self.wake_at = None
            if self.best is not None:
                self.output = (sum(self.best[::2]) << bits) + sum(self.best[1::2])
            return {}
        if self.best is None:  # nothing to send: wait for the last sweep
            self.wake_at = 2
            return {}
        self.wake_at = r + 1  # send the draws, then relay the minima
        return dict.fromkeys(self.ctx.neighbors, self.best)


def _draw_words(rng, count, frac_bits, bits):
    """Inverse-CDF exponentials, rounded to fixed point and clamped to
    [1, 2^(2 bits) - 1], as two words each, most significant first."""
    scale, top, mask = 1 << frac_bits, (1 << 2 * bits) - 1, (1 << bits) - 1
    random, log = rng.random, math.log
    words = []
    for _ in range(count):
        q = round(-log(1.0 - random()) * scale)
        if q < 1:
            q = 1
        elif q > top:
            q = top
        words.append(q >> bits)
        words.append(q & mask)
    return tuple(words)


def _sample_sums(g, U, r, frac_bits, seed, model):
    """(sums of r per-sample minima, RoundStats), charged as documented in
    estimate_2hop_counts; a sum is None with no U within two hops."""
    per_chunk = model.bandwidth_words // 2
    chunks = -(-r // per_chunk)
    cap = default_round_cap(g.n)
    if 2 * chunks >= cap:  # the chunked schedule's last sweep, 2C, would
        raise RoundCapError(f"no termination within {cap} rounds")
    rngs = {u: node_rng(seed, u, salt=0x5EED) for u in U}
    sums = [0] * g.n
    size = _CHUNKS_PER_RUN * per_chunk
    for start in range(0, r, size):
        count = min(size, r - start)
        out, st = run(g, lambda ctx: _SampleMinProgram(
            ctx, rngs.get(ctx.node), count, frac_bits),
            Model(model.variant, bandwidth_words=2 * count))
        sums = [None if a is None or b is None else a + b for a, b in zip(sums, out)]
    bits = 2 * min(r, per_chunk) * word_bits(g.n) if st.messages else 0
    return sums, RoundStats(2 * chunks + 1, chunks * st.messages, bits)


def estimate_2hop_counts(g, U, cfg=None, seed=0, model=None):
    """Estimate |N2[v] & U| for every v; returns (estimates, exact flags,
    RoundStats).  Vertices whose whole 1-hop neighborhood is low-degree
    count exactly; the rest use minimum-of-exponentials sampling.

    Sampling is charged as its chunked schedule: B words hold k = B // 2
    samples, and C = ceil(r / k) chunks take two relay-min rounds each,
    plus one to fold the last, 2C + 1.  Who sends depends on G and U only,
    never on the draws (U sends its draws, then every node in or next to U
    relays minima), so every chunk sends one chunk's messages, C times that
    in all, the longest 2 min(r, k) words.  So one run carries up to 32
    independent chunks, each edge's messages joined into one, and each node
    of U draws from one stream in chunk order, so the sums match too.  The
    32-chunk cap bounds a run's memory, never the charge."""
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
    info, st = exchange(g, status, model)
    stats.add(st)

    exact = [  # from the neighbors' degrees as heard
        g.degree(v) < threshold
        and all(deg < threshold for _, deg in info[v].values())
        for v in range(n)
    ]

    # stage 2: low-degree vertices forward their edges with statuses
    edges = [
        [(u, info[v][u][0]) for u in g.adj[v]] if g.degree(v) < threshold else []
        for v in range(n)
    ]
    heard, st = stream(g, edges, model)
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
    frac_bits = max(1, 2 * word_bits(n) - 5)  # 5 integer bits
    sums, st = _sample_sums(g, U, r, frac_bits, seed, model)
    stats.add(st)

    for v in range(n):
        # a missing sum: no uncovered vertex within 2 hops
        if not exact[v] and sums[v] is not None:
            estimates[v] = Fraction(r << frac_bits, sums[v])
    return estimates, exact, stats


# ---------------------------------------------------------------------------
# per-phase relays
# ---------------------------------------------------------------------------

class _RelayBestProgram(NodeProgram):
    """Spread the extremal value tuple over a fixed number of hops.  The
    candidate and rank relays end each tuple with its origin id; the cover
    flood spreads the constant (1,), which a winner sends in sweep 0 and
    never relays.  Tracks the neighbor that first delivered the final best
    (the gateway toward the origin).  Only mail and the last sweep, `hops`, wake a node:
    sweep 0 sends every initial value.  The output is (best, gateway)."""

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
        for s, msg in inbox.items():  # sim.post admits only tuples
            if self._better(msg, self.best):
                self.best = msg
                self.gateway = s
                self.dirty = True
            elif msg == self.best and self.gateway is not None and s < self.gateway:
                self.gateway = s
        if r >= self.hops:
            self.wake_at = None
            self.output = (self.best, self.gateway)
            return {}
        if self.dirty and self.best is not None:
            self.dirty = False
            return dict.fromkeys(self.ctx.neighbors, self.best)
        return {}


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


def g2mds_logd(g, seed=0, cfg=None, model=None):
    """O(log Delta)-approximate dominating set of G^2; returns
    (Solution, RoundStats)."""
    if g.weights is not None:  # the O(log Delta) bound is by cardinality
        raise InputError("g2mds_logd is unweighted")
    if cfg is None:
        cfg = EstimateConfig()
    if model is None:
        model = Model(CONGEST)
    n = g.n
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
        out, st = run(g, lambda ctx: _RelayBestProgram(
            ctx, values[ctx.node], hops=4, prefer_min=False), model)
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
        out, st = run(g, lambda ctx: _RelayBestProgram(
            ctx, rank_vals[ctx.node], hops=2, prefer_min=True), model)
        stats.add(st)

        votes = [None] * n
        for v in sorted(U):
            best, gateway = out[v]
            if best is None:
                continue
            cand = best[4]
            votes[v] = (cand, cand if cand == v or gateway is None else gateway)

        tallies, st = run(g, lambda ctx: _VoteProgram(ctx, votes[ctx.node]), model)
        stats.add(st)

        winners = {
            c
            for c in candidates
            if est[c] > 0 and Fraction(tallies[c]) >= est[c] / 8
        }

        # winners flood a covered flag two hops out
        out, st = run(g, lambda ctx: _RelayBestProgram(
            ctx, (1,) if ctx.node in winners else None, hops=2,
            prefer_min=False), model)
        stats.add(st)
        newly = 0
        for v in range(n):
            if out[v][0] is not None and not covered[v]:
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
