"""Synchronous round simulator for CONGEST and CONGESTED CLIQUE.

Messages are tuples of word-sized integers.  A word is ceil(log2(n+1)) bits;
every message may carry at most `bandwidth_words` words.  The simulator
delivers messages only at round boundaries, so execution order within a
round cannot matter, and all randomness flows from per-node streams keyed
by (seed, node id).

One rule ends a run.  Every node is stepped in sweep 0; after that a node
is stepped only when it has mail or is `awake`.  The run ends after a
sweep in which no node sends and none stays awake, and the engine then
reads each node's `output`.  A sweep counts as a round if a node sent in
it or was awake for it, and so do all sweeps before it; the last sweep,
silent by the rule above, is thus a round only if a node was awake for it.
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


def to_words(x, count, bits):
    """x as `count` words of `bits` bits, most significant first, so that
    tuple order is numeric order."""
    if not 0 <= x < 1 << (count * bits):
        raise EncodingError(f"{x} does not fit {count} words of {bits} bits")
    mask = (1 << bits) - 1
    return tuple((x >> (bits * k)) & mask for k in range(count - 1, -1, -1))


def from_words(words, bits):
    """Inverse of to_words."""
    x = 0
    for w in words:
        x = (x << bits) | w
    return x


def node_rng(seed, v, salt=0):
    """The random stream of node v under `seed`; a nonzero `salt` keys
    another stream for the same node."""
    return random.Random((int(seed) << 32) ^ salt ^ v)


class NodeContext:
    """Read-only per-node environment handed to NodePrograms."""

    __slots__ = ("node", "n", "neighbors", "model", "word_bits", "seed", "_rng")

    def __init__(self, node, n, neighbors, model, bits, seed):
        self.node = node
        self.n = n
        self.neighbors = neighbors
        self.model = model
        self.word_bits = bits
        self.seed = seed
        self._rng = None

    @property
    def rng(self):
        """This node's random stream, made on first use."""
        if self._rng is None:
            self._rng = node_rng(self.seed, self.node)
        return self._rng


class NodeProgram:
    """Base class: subclasses take their inputs as constructor arguments,
    override step() and keep `output` current.

    step() returns this sweep's outbox, {destination: word tuple}.  A node
    is stepped in sweep 0, whenever it has mail, and in every sweep that
    follows one it ends with `awake` set.  The run ends after a sweep in
    which no node sends and none stays awake, so a program that must act
    on a schedule stays awake until its last step, and one that holds
    work, such as a send queue, stays awake while it does.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.awake = False
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


def run(g, factory, model, seed=0, round_cap=None):
    """Execute one NodeProgram per vertex until the stop rule above holds.

    factory(ctx) -> NodeProgram.  Returns (list of outputs, RoundStats).
    """
    n = g.n
    bits = word_bits(n)
    if round_cap is None:
        round_cap = default_round_cap(n)
    programs = [
        factory(NodeContext(v, n, g.adj[v], model, bits, seed)) for v in range(n)
    ]
    limit_words = model.bandwidth_words
    congest = model.variant == CONGEST
    nbr_sets = [set(a) for a in g.adj]

    stats = RoundStats()
    inboxes = [{} for _ in range(n)]
    order = range(n)  # sweep 0 steps every node
    was_awake = any(p.awake for p in programs)
    sweep = 0
    while True:
        if sweep >= round_cap:
            raise RoundCapError(f"no termination within {round_cap} rounds")
        next_inboxes = [{} for _ in range(n)]
        sent_any = False
        awake = []
        for v in order:
            p = programs[v]
            outbox = p.step(sweep, inboxes[v]) or {}
            for dest, msg in outbox.items():
                if congest:
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
                    raise BandwidthError(v, sweep, len(msg) * bits, limit_words * bits)
                next_inboxes[dest][v] = msg
                stats.messages += 1
                stats.max_message_bits = max(stats.max_message_bits, len(msg) * bits)
                sent_any = True
            if p.awake:
                awake.append(v)
        if sent_any or was_awake:
            stats.rounds = sweep + 1
        if not (sent_any or awake):
            break
        sweep += 1
        inboxes = next_inboxes
        was_awake = bool(awake)
        if len(awake) == n:
            order = range(n)
        else:
            awake = set(awake)
            order = [v for v in range(n) if inboxes[v] or v in awake]
    return [p.output for p in programs], stats
