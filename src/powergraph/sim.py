"""Synchronous round simulator for CONGEST and CONGESTED CLIQUE.

Messages are tuples of word-sized integers.  A word is ceil(log2(n+1)) bits;
every message may carry at most `bandwidth_words` words.  The simulator
delivers messages only at round boundaries, so execution order within a
round cannot matter.  The engine itself draws nothing: a program that
draws takes its node's stream from node_rng through its constructor.

One rule ends a run.  Every node is stepped in sweep 0; after that a node
is stepped only when it has mail or its timer is due: a node's `wake_at`
names the next sweep at which it must be stepped even without mail, or is
None.  The run ends after a sweep when no mail is in flight and no timer
is set, and the engine then reads each node's `output`.  A sweep counts as
a round if a node sent in it or a timer was due in it, and so do all
sweeps before it.  So the last sweep, silent by the rule above, is a round
only if a timer was due in it, and the sweeps the engine skips while no
mail is in flight count as rounds because the timer it jumps to does.
"""

import heapq
import math
import os
import random
from collections import defaultdict

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

    __slots__ = ("node", "n", "neighbors", "model", "word_bits")

    def __init__(self, node, n, neighbors, model, bits):
        self.node = node
        self.n = n
        self.neighbors = neighbors
        self.model = model
        self.word_bits = bits


class NodeProgram:
    """Base class: subclasses take their inputs as constructor arguments,
    a random stream among them if they draw, override step() and keep
    `output` current.

    step() returns this sweep's outbox, {destination: word tuple}.  A node
    is stepped in sweep 0, whenever it has mail, and at the sweep its
    `wake_at` names.  After each step `wake_at` must be None or a sweep
    after the current one; the engine reads it then.  A program that acts
    on a schedule sets `wake_at` to its next scheduled step, one that
    holds work, such as a send queue, sets it to the next sweep while it
    does, and one that waits only for mail leaves it None.  A step with an
    empty inbox before `wake_at` must do nothing, since the engine does
    not make it.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.wake_at = None
        self.output = None

    def step(self, round_index, inbox):
        raise NotImplementedError


def default_round_cap(n):
    """100 n^2 sweeps, or the positive integer in POWERGRAPH_ROUND_CAP."""
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


def post(v, outbox, mail, sweep, n, nbrs, bits, limit_words):
    """Check node v's outbox in order and file each message as
    mail[dest][v]; return its longest message in words.  `nbrs` is v's
    neighbor set under CONGEST and None under CLIQUE.  The first faulty
    message raises.  A broadcast repeats one tuple, so a message that is
    the same object as the one before it is not checked again."""
    word_cap = 1 << bits
    longest = 0
    last = None
    for dest, msg in outbox.items():
        if nbrs is not None:
            if dest not in nbrs:
                raise InputError(f"node {v} sent to non-neighbor {dest} under CONGEST")
        elif dest not in range(n) or dest == v:
            raise InputError(f"node {v} sent to invalid target {dest}")
        if msg is not last:
            last = msg
            if not isinstance(msg, tuple):
                raise EncodingError(f"message from {v} must be a tuple of words")
            for w in msg:
                if not isinstance(w, int) or not 0 <= w < word_cap:
                    raise EncodingError(
                        f"word {w!r} from node {v} does not fit {bits} bits"
                    )
            if len(msg) > limit_words:
                raise BandwidthError(v, sweep, len(msg) * bits, limit_words * bits)
            if len(msg) > longest:
                longest = len(msg)
        mail[dest][v] = msg
    return longest


def run(g, factory, model):
    """Execute one NodeProgram per vertex until the stop rule above holds,
    or raise RoundCapError after default_round_cap(n) sweeps.

    factory(ctx) -> NodeProgram.  Returns (list of outputs, RoundStats).

    Nodes are stepped in ascending id order, so every inbox is a dict
    keyed in ascending sender order; programs may iterate it as is.
    """
    n = g.n
    bits = word_bits(n)
    round_cap = default_round_cap(n)
    programs = [factory(NodeContext(v, n, g.adj[v], model, bits)) for v in range(n)]
    limit_words = model.bandwidth_words
    congest = model.variant == CONGEST
    nbr_sets = [set(a) for a in g.adj] if congest else None

    stats = RoundStats()
    wakes = defaultdict(list)  # sweep -> nodes whose wake_at named it, stale too
    sweeps = []  # heap of the keys of wakes
    inboxes = {}
    order = range(n)  # sweep 0 steps every node
    timer_due = False
    sweep = 0
    while True:
        if sweep >= round_cap:
            raise RoundCapError(f"no termination within {round_cap} rounds")
        mail = defaultdict(dict)
        messages = 0
        longest = 0
        for v in order:
            p = programs[v]
            outbox = p.step(sweep, inboxes.get(v) or {})
            if outbox:
                nbrs = nbr_sets[v] if congest else None
                size = post(v, outbox, mail, sweep, n, nbrs, bits, limit_words)
                if size > longest:
                    longest = size
                messages += len(outbox)
            t = p.wake_at
            if t is not None:
                if t <= sweep:
                    raise InputError(
                        f"node {v} set wake_at {t} in sweep {sweep}; it must be later"
                    )
                if t not in wakes:
                    heapq.heappush(sweeps, t)
                wakes[t].append(v)
        if messages or timer_due:
            stats.rounds = sweep + 1
        if messages:
            stats.messages += messages
            stats.max_message_bits = max(stats.max_message_bits, longest * bits)

        # the next sweep: the following one while mail is in flight, else
        # the first sweep that some node's wake_at still names
        nxt = sweep + 1
        due = []
        while sweeps and not due and (sweeps[0] == nxt or not mail):
            nxt = heapq.heappop(sweeps)
            due = [v for v in wakes.pop(nxt) if programs[v].wake_at == nxt]
        if not (due or mail):
            break
        sweep = nxt
        timer_due = bool(due)
        inboxes = mail
        order = sorted(set(due).union(mail))
    return [p.output for p in programs], stats
