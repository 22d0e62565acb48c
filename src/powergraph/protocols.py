"""Reusable distributed building blocks: a one-round neighbor exchange,
leader election / BFS tree, pipelined convergecast toward the root, and
pipelined broadcast from it."""

from .errors import ConnectivityError, EncodingError, InputError
from .sim import CLIQUE, CONGEST, Model, NodeProgram, run


class _ExchangeProgram(NodeProgram):
    """Send one message to every neighbor in sweep 0; the output maps each
    neighbor to the message it sent."""

    def __init__(self, ctx, msg):
        super().__init__(ctx)
        self.msg = msg
        self.output = {}

    def step(self, r, inbox):
        self.output.update(inbox)
        if r == 0:
            return dict.fromkeys(self.ctx.neighbors, self.msg)
        return {}


def exchange(g, msgs, model, seed=0):
    """One round in which every node v tells its neighbors msgs[v].

    Returns (per-node {neighbor: message}, RoundStats).
    """
    return run(g, lambda ctx: _ExchangeProgram(ctx, msgs[ctx.node]), model, seed=seed)


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


def elect_leader_bfs(g, model=None, seed=0):
    """Return (leader id, parent map, depth map, RoundStats).

    Leader is the minimum id; the tree is the BFS tree grown by flooding.
    """
    if not g.is_connected():
        raise ConnectivityError("leader election requires a connected graph")
    if model is None:
        model = Model(CONGEST)
    outputs, stats = run(g, _BfsFloodProgram, model, seed=seed)
    leaders = {o[0] for o in outputs}
    if leaders != {0} and g.n > 0:
        raise ConnectivityError("flood did not converge to a single leader")
    parent = {v: outputs[v][1] for v in range(g.n)}
    depth = {v: outputs[v][2] for v in range(g.n)}
    leader = 0 if g.n else None
    return leader, parent, depth, stats


class _ConvergecastProgram(NodeProgram):
    """Ship one item per round toward the root: along tree edges under
    CONGEST, straight to the root under CLIQUE.  A node wakes in the next
    sweep while it has items to ship.  The root's output is the list of
    items it holds."""

    def __init__(self, ctx, parent, items):
        super().__init__(ctx)
        self.parent = parent
        if parent is None:
            self.output = list(items)
        else:
            self.queue = list(items)

    def step(self, r, inbox):
        for msg in inbox.values():
            if self.parent is None:
                self.output.append(msg)
            else:
                self.queue.append(msg)
        if self.parent is not None and self.queue:
            msg = self.queue.pop(0)
            self.wake_at = r + 1 if self.queue else None
            return {self.parent: msg}
        return {}


def pipelined_convergecast(g, tree, items, model, seed=0):
    """Gather every node's items at the tree root.

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
        if ctx.node == root:
            p = None
        elif model.variant == CLIQUE:
            p = root
        else:
            p = parent.get(ctx.node)
            if p is None:
                raise InputError(f"node {ctx.node} has no parent in the tree")
        return _ConvergecastProgram(ctx, p, items[ctx.node])

    outputs, stats = run(g, factory, model, seed=seed)
    return (sorted(outputs[root]) if g.n else []), stats


class _BroadcastProgram(NodeProgram):
    """Pipelined tree broadcast of a list of word tuples from the root.

    The first message announces how many items follow; the output is the
    list of items received so far.  A node wakes in the next sweep while it
    has items to forward.
    """

    def __init__(self, ctx, children, payload):
        super().__init__(ctx)
        self.children = children
        self.expected = None
        self.output = []
        self.queue = []
        if payload is not None:  # root
            self.expected = len(payload)
            self.output = [tuple(p) for p in payload]
            self.queue = [(len(payload),)] + self.output

    def step(self, r, inbox):
        for msg in inbox.values():
            if self.expected is None:
                (self.expected,) = msg
            else:
                self.output.append(msg)
            self.queue.append(msg)
        if self.queue and self.children:
            msg = self.queue.pop(0)
            self.wake_at = r + 1 if self.queue else None
            return {c: msg for c in self.children}
        self.queue = []
        return {}


def pipelined_broadcast(g, tree, payload, model, seed=0):
    """Deliver `payload` (list of word tuples) from the root to every node."""
    root, parent = tree
    children = {v: [] for v in range(g.n)}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for c in children.values():
        c.sort()

    def factory(ctx):
        return _BroadcastProgram(
            ctx, children[ctx.node], payload if ctx.node == root else None
        )

    outputs, stats = run(g, factory, model, seed=seed)
    return [sorted(o) for o in outputs], stats
