"""Reusable distributed building blocks: streams of messages to the
neighbors, a BFS tree grown by one wave from node 0, pipelined
convergecast toward its root that records the route back to each origin,
routed downcast of addressed items along those routes, a one-round
scatter from the root under CLIQUE, and packing items to the bandwidth."""

from collections import deque
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


class _WaveProgram(NodeProgram):
    """One BFS wave from node 0.  A node joins under the lowest-id sender
    of the first wave it hears and tells every neighbor, once, its depth
    and its parent; node 0 names itself.  A neighbor that names this node
    is its child.  The output is (parent, depth, children)."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.output = (None, None, [])

    def step(self, r, inbox):
        parent, depth, children = self.output
        me = self.ctx.node
        children += [s for s, (_, p) in inbox.items() if p == me]
        if depth is not None or not (inbox or me == 0):
            return {}
        if inbox:
            parent = next(iter(inbox))
            depth = inbox[parent][0] + 1
        else:
            depth = 0
        self.output = (parent, depth, children)
        msg = (depth, me if parent is None else parent)
        return dict.fromkeys(self.ctx.neighbors, msg)


def elect_leader_bfs(g, model=None):
    """Return (leader, parent map, depth map, children lists, RoundStats).

    The leader is node 0, with no election: node ids are exactly 0..n-1
    and every node knows n, from which word sizes follow, so every node
    knows node 0 is there; CLIQUE Phase II picks node 0 the same way.  One
    BFS wave from it builds the tree in depth + 1 rounds with 2|E|
    messages, and each node learns its children from the parents its
    neighbors name.  A node the wave never reaches means g is not
    connected.
    """
    if model is None:
        model = Model(CONGEST)
    outputs, stats = run(g, _WaveProgram, model)
    if any(depth is None for _, depth, _ in outputs):
        raise ConnectivityError("the BFS wave from node 0 did not reach every node")
    parent = {v: o[0] for v, o in enumerate(outputs)}
    depth = {v: o[1] for v, o in enumerate(outputs)}
    leader = 0 if g.n else None
    return leader, parent, depth, [o[2] for o in outputs], stats


class _GatherProgram(NodeProgram):
    """Convergecast node: ship its own messages and then each one it
    receives, one per sweep, to `up`.  Once every node in `below` has
    ended its edge and the queue is down to its last message, end its own
    edge: head that message with the root's id, a word no other message
    starts with, or send the id alone if the message is full or there is
    none.  The root, with `up` None, keeps what arrives.  Each node
    records which neighbor delivered the messages of each origin, their
    first word.  The output is (messages kept, {origin: neighbor})."""

    def __init__(self, ctx, up, below, queue, root):
        super().__init__(ctx)
        self.up, self.waiting, self.root = up, set(below), root
        self.bandwidth = ctx.model.bandwidth_words
        self.queue = deque(() if up is None else queue)
        self.ended = up is None
        self.output = (list(queue) if up is None else None, {})

    def step(self, r, inbox):
        kept, routes = self.output
        for s, msg in inbox.items():
            if msg[0] == self.root:
                self.waiting.discard(s)
                msg = msg[1:]
                if not msg:
                    continue
            routes.setdefault(msg[0], s)
            (self.queue if kept is None else kept).append(msg)
        if self.ended or self.waiting and not self.queue:
            self.wake_at = None
            return {}
        msg = self.queue.popleft() if self.queue else ()
        if not (self.waiting or self.queue or msg and len(msg) == self.bandwidth):
            msg, self.ended = (self.root,) + msg, True
        idle = self.ended or self.waiting and not self.queue
        self.wake_at = None if idle else r + 1
        return {self.up: msg}


def pipelined_convergecast(g, tree, items, model):
    """Gather every node's messages at the tree root: along tree edges
    under CONGEST, straight to the root under CLIQUE.

    tree: (root, parent map, children lists) as elect_leader_bfs returns
    them; under CLIQUE only the root is read.  items: per-node list of
    messages, each starting with its node's id.  Each edge toward the
    root ends with a done marker, the root's id, in the free word of its
    last message or alone, so the root knows when it has everything.
    Returns (sorted messages at the root, per-node {origin: neighbor that
    delivered the origin's messages}, RoundStats).
    """
    root = tree[0]
    clique = model.variant == CLIQUE
    for v, its in enumerate(items):
        for msg in its:
            if len(msg) > model.bandwidth_words:
                raise EncodingError(
                    f"item of {len(msg)} words exceeds bandwidth at node {v}"
                )
            if not msg or msg[0] != v:
                raise InputError(f"a message of node {v} must start with its id")

    def factory(ctx):
        v = ctx.node
        if v == root:
            below = [u for u in range(g.n) if u != v] if clique else tree[2][v]
            return _GatherProgram(ctx, None, below, items[v], root)
        up = root if clique else tree[1].get(v)
        if up is None:
            raise InputError(f"node {v} has no parent in the tree")
        return _GatherProgram(ctx, up, () if clique else tree[2][v], items[v], root)

    outputs, stats = run(g, factory, model)
    gathered = sorted(outputs[root][0]) if g.n else []
    return gathered, [o[1] for o in outputs], stats


class _RouteProgram(NodeProgram):
    """Downcast node: keep the items addressed to it and queue every other
    item for the neighbor that `routes` names for its address; each sweep,
    send each such neighbor as many queued items as a message holds.  The
    output is the list of items kept."""

    def __init__(self, ctx, routes, width, items):
        super().__init__(ctx)
        self.routes, self.width = routes, width
        self.per = ctx.model.bandwidth_words // width
        self.queues = {}
        self.output = []
        self._file(items)

    def _file(self, items):
        for item in items:
            dest = item[0]
            if dest == self.ctx.node:
                self.output.append(item)
            elif dest in self.routes:
                self.queues.setdefault(self.routes[dest], deque()).append(item)
            else:
                raise InputError(f"node {self.ctx.node} has no route to {dest}")

    def step(self, r, inbox):
        for msg in inbox.values():
            self._file(unpack([msg], self.width))
        outbox = {}
        for nxt, q in self.queues.items():
            batch = [q.popleft() for _ in range(min(self.per, len(q)))]
            outbox[nxt] = tuple(chain.from_iterable(batch))
        self.queues = {nxt: q for nxt, q in self.queues.items() if q}
        self.wake_at = r + 1 if self.queues else None
        return outbox


def pipelined_broadcast(g, tree, payload, model):
    """Deliver addressed items from the root, each only down the path to
    the node it is for; the name is older than the routing.

    tree: (root, per-node {origin: neighbor}) as pipelined_convergecast
    records them, so an item can be for any node whose messages came up.
    payload: items of one width, each starting with the id of its node.
    Every edge carries as many items to a message as the bandwidth holds.
    A node off every item's path receives nothing, and no end marker is
    sent: a node knows how many items are for it.
    Returns (per-node sorted items kept, RoundStats).
    """
    root, routes = tree
    width = len(payload[0]) if payload else 1
    if any(len(item) != width for item in payload):
        raise InputError("addressed items must have one width")
    if width > model.bandwidth_words:
        raise EncodingError(f"item of {width} words exceeds bandwidth")

    def factory(ctx):
        v = ctx.node
        return _RouteProgram(ctx, routes[v], width, payload if v == root else ())

    outputs, stats = run(g, factory, model)
    return [sorted(o) for o in outputs], stats


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
