"""Reusable distributed building blocks: streams of messages to the
neighbors, leader election / BFS tree, pipelined convergecast toward the
root and broadcast from it, both by one relay program, a one-round
scatter from the root under CLIQUE, and packing items to the bandwidth."""

from itertools import chain

from .errors import ConnectivityError, EncodingError, InputError
from .sim import CLIQUE, CONGEST, Model, NodeProgram, run


class _StreamProgram(NodeProgram):
    """Send its own items to every neighbor, one per sweep, waking while
    items are left; the output maps each sender to the messages it sent."""

    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.queue = list(items)
        self.output = {}

    def step(self, r, inbox):
        for s, msg in inbox.items():
            self.output.setdefault(s, []).append(msg)
        if self.queue:
            msg = self.queue.pop(0)
            self.wake_at = r + 1 if self.queue else None
            return dict.fromkeys(self.ctx.neighbors, msg)
        return {}


def stream(g, items, model):
    """Every node v sends the messages items[v] to all its neighbors, one
    per round.

    Returns (per-node {neighbor: [messages]}, RoundStats).
    """
    return run(g, lambda ctx: _StreamProgram(ctx, items[ctx.node]), model)


def exchange(g, msgs, model):
    """One round in which every node v tells its neighbors msgs[v].

    Returns (per-node {neighbor: message}, RoundStats).
    """
    heard, stats = stream(g, [[m] for m in msgs], model)
    return [{s: ms[0] for s, ms in h.items()} for h in heard], stats


class _BfsFloodProgram(NodeProgram):
    """Min-id flood; every node learns the leader, its BFS parent and depth."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.output = (ctx.node, None, 0)  # (leader, parent, depth)
        self.dirty = True  # something new to announce

    def step(self, r, inbox):
        best, _, depth = self.output
        for sender, (leader, d) in inbox.items():
            if leader < best or (leader == best and d + 1 < depth):
                best, depth = leader, d + 1
                self.output = (best, sender, depth)
                self.dirty = True
        if not self.dirty:
            return {}
        self.dirty = False
        msg = (best, depth)
        return dict.fromkeys(self.ctx.neighbors, msg)


def elect_leader_bfs(g, model=None):
    """Return (leader id, parent map, depth map, RoundStats).

    Leader is the minimum id; the tree is the BFS tree grown by flooding.
    """
    if not g.is_connected():
        raise ConnectivityError("leader election requires a connected graph")
    if model is None:
        model = Model(CONGEST)
    outputs, stats = run(g, _BfsFloodProgram, model)
    leaders = {o[0] for o in outputs}
    if leaders != {0} and g.n > 0:
        raise ConnectivityError("flood did not converge to a single leader")
    parent = {v: outputs[v][1] for v in range(g.n)}
    depth = {v: outputs[v][2] for v in range(g.n)}
    leader = 0 if g.n else None
    return leader, parent, depth, stats


class _PipeProgram(NodeProgram):
    """Ship one message per sweep to every node in `dests`: first the
    node's own queue, then each message it receives.  A node wakes in the
    next sweep while messages wait.  When `kept` is a list, the output is
    that list with every received message appended."""

    def __init__(self, ctx, dests, queue, kept=None):
        super().__init__(ctx)
        self.dests = dests
        self.queue = list(queue)
        self.output = kept

    def step(self, r, inbox):
        for msg in inbox.values():
            if self.output is not None:
                self.output.append(msg)
            if self.dests:
                self.queue.append(msg)
        if self.queue and self.dests:
            msg = self.queue.pop(0)
            self.wake_at = r + 1 if self.queue else None
            return dict.fromkeys(self.dests, msg)
        return {}


def pipelined_convergecast(g, tree, items, model):
    """Gather every node's items at the tree root: along tree edges under
    CONGEST, straight to the root under CLIQUE.

    tree: (root, parent map); items: per-node list of word tuples.
    Returns (sorted item list at root, RoundStats).
    """
    root, parent = tree
    for v, its in enumerate(items):
        for item in its:
            if len(item) > model.bandwidth_words:
                raise EncodingError(
                    f"item of {len(item)} words exceeds bandwidth at node {v}"
                )

    def factory(ctx):
        v = ctx.node
        if v == root:
            return _PipeProgram(ctx, (), (), kept=list(items[v]))
        p = root if model.variant == CLIQUE else parent.get(v)
        if p is None:
            raise InputError(f"node {v} has no parent in the tree")
        return _PipeProgram(ctx, (p,), items[v])

    outputs, stats = run(g, factory, model)
    return (sorted(outputs[root]) if g.n else []), stats


def pipelined_broadcast(g, tree, payload, model):
    """Deliver `payload` (list of word tuples) from the root to every node.
    The first message announces how many items follow."""
    root, parent = tree
    children = {v: [] for v in range(g.n)}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for c in children.values():
        c.sort()
    sent = [(len(payload),)] + [tuple(p) for p in payload]

    def factory(ctx):
        if ctx.node == root:
            return _PipeProgram(ctx, children[root], sent, kept=list(sent))
        return _PipeProgram(ctx, children[ctx.node], (), kept=[])

    outputs, stats = run(g, factory, model)
    return [sorted(o[1:]) for o in outputs], stats


def pack(items, width, model):
    """Concatenate items of `width` words, as many to a message as the
    model's bandwidth holds; unpack reverses it."""
    if width > model.bandwidth_words:
        raise EncodingError(f"item of {width} words exceeds bandwidth")
    size = model.bandwidth_words // width * width
    flat = list(chain.from_iterable(items))
    return [tuple(flat[i:i + size]) for i in range(0, len(flat), size)]


def unpack(messages, width):
    """The items of `width` words that pack put into `messages`."""
    return list(zip(*[chain.from_iterable(messages)] * width))


class _ScatterProgram(NodeProgram):
    """Send `outbox` in sweep 0, and output the one word heard, if any."""

    def __init__(self, ctx, outbox):
        super().__init__(ctx)
        self.outbox = outbox

    def step(self, r, inbox):
        for (word,) in inbox.values():
            self.output = word
        return self.outbox if r == 0 else {}


def scatter(g, root, words, model):
    """One CLIQUE round in which the root tells every other node v the
    word words[v]: n - 1 messages of one word.

    Returns (per-node word heard, None at the root; RoundStats).
    """
    outbox = {v: (words[v],) for v in range(g.n) if v != root}
    return run(g, lambda ctx: _ScatterProgram(
        ctx, outbox if ctx.node == root else {}), model)
