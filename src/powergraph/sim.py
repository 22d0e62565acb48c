"""Synchronous round simulator for CONGEST and CONGESTED CLIQUE.

Messages are tuples of word-sized integers.  A word is ceil(log2(n+1)) bits;
every message may carry at most `bandwidth_words` words.  The simulator
delivers messages only at round boundaries, so execution order within a
round cannot matter, and all randomness flows from per-node streams keyed
by (seed, node id).

A run ends by one of two rules.  By default it ends once every node has
set `halted`.  With `stop_on_quiescence`, it also ends after the first
sweep in which no node sends; that silent sweep is not counted as a round.
Either way the engine then reads each node's `output`.
"""

import math
import os
import random

from .errors import BandwidthError, EncodingError, InputError, RoundCapError

CONGEST = "congest"
CLIQUE = "clique"

ROUND_CAP_ENV = "POWERGRAPH_ROUND_CAP"


class Model:
    __slots__ = ("variant", "bandwidth_words")

    def __init__(self, variant=CONGEST, bandwidth_words=8):
        if variant not in (CONGEST, CLIQUE):
            raise InputError(f"unknown model variant {variant!r}")
        if bandwidth_words < 0:
            raise InputError("bandwidth_words must be nonnegative")
        self.variant = variant
        self.bandwidth_words = bandwidth_words

    def __repr__(self):
        return f"Model({self.variant}, bandwidth_words={self.bandwidth_words})"


class RoundStats:
    __slots__ = ("rounds", "messages", "max_message_bits")

    def __init__(self, rounds=0, messages=0, max_message_bits=0):
        self.rounds = rounds
        self.messages = messages
        self.max_message_bits = max_message_bits

    def add(self, other):
        self.rounds += other.rounds
        self.messages += other.messages
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        return self

    def __repr__(self):
        return (
            f"RoundStats(rounds={self.rounds}, messages={self.messages}, "
            f"max_message_bits={self.max_message_bits})"
        )


def word_bits(n):
    return max(1, math.ceil(math.log2(n + 1))) if n > 0 else 1


class NodeContext:
    """Read-only per-node environment handed to NodePrograms."""

    __slots__ = ("node", "n", "neighbors", "model", "word_bits", "rng", "local")

    def __init__(self, node, n, neighbors, model, bits, rng, local):
        self.node = node
        self.n = n
        self.neighbors = neighbors
        self.model = model
        self.word_bits = bits
        self.rng = rng
        self.local = local

    @property
    def degree(self):
        return len(self.neighbors)


class NodeProgram:
    """Base class: subclasses override step() and keep halted/output set.

    step() returns this sweep's outbox, {destination: word tuple}.  A node
    that sets `halted` is not stepped again.  `output` is read when the run
    ends, by either stop rule, so a program run under `stop_on_quiescence`
    keeps it current as it goes: such a run can end after any silent sweep.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.halted = False
        self.output = None

    def step(self, round_index, inbox):
        raise NotImplementedError


def default_round_cap(n):
    env = os.environ.get(ROUND_CAP_ENV)
    if env is None:
        return 100 * max(1, n) * max(1, n)
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"{ROUND_CAP_ENV} must be a positive integer, got {env!r}")
    return cap


def run(g, factory, model, seed=0, round_cap=None, stop_on_quiescence=False):
    """Execute one NodeProgram per vertex until all halt, or, with
    stop_on_quiescence, until a sweep in which no node sends.

    factory(ctx) -> NodeProgram.  Returns (list of outputs, RoundStats).
    """
    n = g.n
    bits = word_bits(n)
    if round_cap is None:
        round_cap = default_round_cap(n)
    programs = []
    for v in range(n):
        rng = random.Random((int(seed) << 32) ^ v)  # stream keyed by (seed, node)
        ctx = NodeContext(v, n, g.adj[v], model, bits, rng, None)
        programs.append(factory(ctx))
    limit_words = model.bandwidth_words
    nbr_sets = [set(a) for a in g.adj]

    stats = RoundStats()
    inboxes = [{} for _ in range(n)]
    while True:
        if all(p.halted for p in programs):
            break
        if stats.rounds >= round_cap:
            raise RoundCapError(f"no termination within {round_cap} rounds")
        next_inboxes = [{} for _ in range(n)]
        sent_any = False
        for v in range(n):
            p = programs[v]
            if p.halted:
                continue
            outbox = p.step(stats.rounds, inboxes[v]) or {}
            for dest, msg in outbox.items():
                if model.variant == CONGEST:
                    if dest not in nbr_sets[v]:
                        raise InputError(
                            f"node {v} sent to non-neighbor {dest} under CONGEST"
                        )
                elif not (0 <= dest < n) or dest == v:
                    raise InputError(f"node {v} sent to invalid target {dest}")
                if not isinstance(msg, tuple):
                    raise EncodingError(f"message from {v} must be a tuple of words")
                for w in msg:
                    if not isinstance(w, int) or not (0 <= w < (1 << bits)):
                        raise EncodingError(
                            f"word {w!r} from node {v} does not fit {bits} bits"
                        )
                if len(msg) > limit_words:
                    raise BandwidthError(
                        v, stats.rounds, len(msg) * bits, limit_words * bits
                    )
                next_inboxes[dest][v] = msg
                stats.messages += 1
                stats.max_message_bits = max(stats.max_message_bits, len(msg) * bits)
                sent_any = True
        if stop_on_quiescence and not sent_any:
            break  # the silent sweep exchanged nothing: not a round
        stats.rounds += 1
        inboxes = next_inboxes
    return [p.output for p in programs], stats
