"""Span tracing for the traced benchmark run.

The package's modules import each other's functions by name
(``from .sim import run``), so a function is traced by rebinding every
module-level name that refers to it, in every loaded ``powergraph`` module.
Each call then records a span (name, start, end, parent) in memory; the
spans are written out once the run ends.  A layer's self time is its span
minus its child spans.  Counts (rounds, messages, node steps, ...) are
taken at the same boundaries from the values the functions return.

Spans named ``bench.*`` are the benchmark's own work inside a traced
attempt (the estimator check), kept apart so they do not count as the
package's time.
"""

import json
import sys
import time
from fractions import Fraction

import oracle

LB_GENERATORS = (
    "gen_mvc_base",
    "gen_mds_base",
    "gen_mwvc_square",
    "gen_mvc_square",
    "gen_mds_square_exact",
    "gen_mwds_square_approx",
    "gen_mds_square_approx_unweighted",
)

# (module, function, span name); every binding of the function is rebound
TARGETS = [
    ("sim", "run", "sim.run"),
    ("protocols", "elect_leader_bfs", "protocols.elect_leader_bfs"),
    ("protocols", "pipelined_convergecast", "protocols.pipelined_convergecast"),
    ("protocols", "pipelined_broadcast", "protocols.pipelined_broadcast"),
    ("mvc_distributed", "phase1_unweighted", "mvc_distributed.phase1_unweighted"),
    ("mvc_distributed", "weighted_phase1", "mvc_distributed.weighted_phase1"),
    ("mvc_distributed", "build_H_from_F", "mvc_distributed.build_H_from_F"),
    ("mvc_distributed", "g2mvc_eps", "mvc_distributed.g2mvc_eps"),
    ("mvc_distributed", "g2mwvc_eps", "mvc_distributed.g2mwvc_eps"),
    ("mvc_distributed", "g2mvc_cc_voting", "mvc_distributed.g2mvc_cc_voting"),
    ("mvc_centralized", "g2mvc_hybrid", "mvc_centralized.g2mvc_hybrid"),
    ("mvc_centralized", "g2mvc_53", "mvc_centralized.g2mvc_53"),
    ("mvc_centralized", "vc_53_on_square", "mvc_centralized.vc_53_on_square"),
    ("mds_distributed", "g2mds_logd", "mds_distributed.g2mds_logd"),
    ("mds_distributed", "estimate_2hop_counts", "mds_distributed.estimate_2hop_counts"),
    ("exact", "exact_mvc", "exact.exact_mvc"),
    ("exact", "exact_mds", "exact.exact_mds"),
    ("graph", "square", "graph.square"),
    ("graph", "is_feasible", "graph.is_feasible"),
    ("lowerbound", "verify_family", "lowerbound.verify_family"),
    ("graphio", "read_graph", "graphio.read_graph"),
    ("graphio", "write_graph", "graphio.write_graph"),
    ("cli", "main", "cli.main"),
] + [("lowerbound", name, "lowerbound.gen") for name in LB_GENERATORS]

# spans reported as inclusive time per attempt, "<span>.s"
INCLUSIVE = [
    "protocols.elect_leader_bfs",
    "protocols.pipelined_convergecast",
    "protocols.pipelined_broadcast",
    "mvc_distributed.phase1_unweighted",
    "mvc_distributed.weighted_phase1",
    "mvc_distributed.build_H_from_F",
    "mvc_distributed.g2mvc_cc_voting",
    "mds_distributed.estimate_2hop_counts",
    "exact.exact_mvc",
    "exact.exact_mds",
    "mvc_centralized.vc_53_on_square",
    "graph.square",
    "graph.is_feasible",
    "lowerbound.gen",
    "lowerbound.verify_family",
    "graphio.read_graph",
    "graphio.write_graph",
]

COUNTS = (
    "sim.rounds",
    "sim.messages",
    "sim.node_steps",
    "sim.useful_steps",
    "protocols.rounds",
    "mvc_distributed.phase1_unweighted.rounds",
    "mvc_distributed.weighted_phase1.rounds",
    "mds_distributed.estimate_2hop_counts.sampled_calls",
    "mds_distributed.estimate_2hop_counts.rounds",
    "mds_distributed.estimate_2hop_counts.messages",
    "mds_distributed.estimates_over_eps_est",
)
MAXIMA = (
    "sim.max_message_bits",
    "mvc_distributed.leader_H_vertices",
    "mds_distributed.estimate_rel_err_max",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.attempts = []  # (first span index, counters) per traced attempt
        self.counters = None
        self.errors = []
        self._eps_est = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def begin_attempt(self):
        self.counters = dict.fromkeys(COUNTS + MAXIMA, 0)
        self.attempts.append((len(self.spans), self.counters))

    def _add(self, key, value):
        self.counters[key] += value

    def _max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    # -- installation ------------------------------------------------------

    def install(self, pg):
        self._eps_est = pg.mds.EstimateConfig().eps_est
        modules = [m for k, m in sys.modules.items() if k.startswith("powergraph")]
        for mod_name, attr, span in TARGETS:
            orig = getattr(sys.modules["powergraph." + mod_name], attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, self._wrapper(span, orig, mod.__name__))
            families = pg.cli.LB_FAMILIES
            for fam, (shape, gen) in list(families.items()):
                if gen is orig:
                    families[fam] = (shape, self._wrapper(span, orig, "cli"))

    def _wrapper(self, span, fn, site):
        if span == "sim.run":
            return self._run_wrapper(fn)
        hook = {
            "protocols.elect_leader_bfs": self._protocol_hook,
            "protocols.pipelined_convergecast": self._protocol_hook,
            "protocols.pipelined_broadcast": self._protocol_hook,
            "mvc_distributed.phase1_unweighted": self._phase1_hook,
            "mvc_distributed.weighted_phase1": self._weighted_hook,
            "mds_distributed.estimate_2hop_counts": self._estimate_hook,
            "exact.exact_mvc": (
                self._leader_hook if site.endswith("mvc_distributed") else None
            ),
        }.get(span)

        def traced(*args, **kwargs):
            rec = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return traced

    def _run_wrapper(self, run):
        """sim.run: count node steps through the programs the factory makes."""

        def traced_run(g, factory, *args, **kwargs):
            counters = self.counters

            def counting_factory(ctx):
                prog = factory(ctx)
                step = prog.step

                def counted_step(r, inbox):
                    out = step(r, inbox)
                    counters["sim.node_steps"] += 1
                    if inbox or out:
                        counters["sim.useful_steps"] += 1
                    return out

                prog.step = counted_step
                return prog

            rec = self._open("sim.run")
            try:
                outputs, stats = run(g, counting_factory, *args, **kwargs)
            finally:
                self._close(rec)
            self._add("sim.rounds", stats.rounds)
            self._add("sim.messages", stats.messages)
            self._max("sim.max_message_bits", stats.max_message_bits)
            return outputs, stats

        return traced_run

    # -- hooks: counts at the layer boundaries ------------------------------

    def _protocol_hook(self, result, args, kwargs):
        self._add("protocols.rounds", result[-1].rounds)

    def _phase1_hook(self, result, args, kwargs):
        self._add("mvc_distributed.phase1_unweighted.rounds", result[-1].rounds)

    def _weighted_hook(self, result, args, kwargs):
        self._add("mvc_distributed.weighted_phase1.rounds", result[-1].rounds)

    def _leader_hook(self, result, args, kwargs):
        h = args[0]
        self._max("mvc_distributed.leader_H_vertices",
                  sum(1 for v in range(h.n) if h.adj[v]))

    def _estimate_hook(self, result, args, kwargs):
        estimates, exact, stats = result
        pre = "mds_distributed.estimate_2hop_counts"
        self._add(pre + ".rounds", stats.rounds)
        self._add(pre + ".messages", stats.messages)
        if not all(exact):
            self._add(pre + ".sampled_calls", 1)
        rec = self._open("bench.estimator_check")
        try:
            self._check_estimates(args[0], args[1], estimates, exact, args, kwargs)
        finally:
            self._close(rec)

    def _check_estimates(self, g, U, estimates, exact, args, kwargs):
        """Exact counts must equal |N2[v] & U|.

        A sampled count is within eps_est of it only with probability
        1 - O(n^-2) per estimate, so one beyond eps_est is counted, and
        one beyond twice eps_est (probability O(n^-8)) fails the run.
        """
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        eps_est = cfg.eps_est if cfg is not None else self._eps_est
        sq = oracle.square_adjacency(g.n, list(g.edges()))
        U = set(U)
        worst = 0.0
        for v in range(g.n):
            truth = len((sq[v] | {v}) & U)
            est = Fraction(estimates[v])
            if exact[v]:
                if est != truth:
                    self.errors.append(f"exact 2-hop count {est} != {truth} at {v}")
                continue
            if truth == 0:
                if est != 0:
                    self.errors.append(f"sampled count {est} for empty N2[{v}]")
                continue
            err = abs(est - truth) / truth
            worst = max(worst, float(err))
            if err > eps_est:
                self._add("mds_distributed.estimates_over_eps_est", 1)
            if err > 2 * eps_est:
                self.errors.append(
                    f"sampled count {float(est):.2f} vs {truth} at {v} "
                    f"exceeds twice eps_est {eps_est}")
        self._max("mds_distributed.estimate_rel_err_max", worst)

    # -- reduction ---------------------------------------------------------

    def attempt_metrics(self, index):
        """Per-layer figures of one traced attempt."""
        first, counters = self.attempts[index]
        last = (self.attempts[index + 1][0] if index + 1 < len(self.attempts)
                else len(self.spans))
        spans = self.spans[first:last]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        calls, total, self_ns = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + (end - start)
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        root_ns = spans[0][2] - spans[0][1]
        if sum(self_ns.values()) != root_ns:
            self.errors.append("span self times do not add up to the attempt")
        check_ns = total.get("bench.estimator_check", 0)

        def sec(ns):
            return ns / 1e9

        m = {}
        run_self = sec(self_ns.get("sim.run", 0))
        steps = counters["sim.node_steps"]
        msgs = counters["sim.messages"]
        m["sim.run.calls"] = calls.get("sim.run", 0)
        m["sim.run.self_s"] = run_self
        m["sim.rounds"] = counters["sim.rounds"]
        m["sim.messages"] = msgs
        m["sim.max_message_bits"] = counters["sim.max_message_bits"]
        m["sim.node_steps"] = steps
        m["sim.useful_step_ratio"] = counters["sim.useful_steps"] / steps if steps else 0.0
        m["sim.us_per_node_step"] = run_self / steps * 1e6 if steps else 0.0
        m["sim.us_per_message"] = run_self / msgs * 1e6 if msgs else 0.0
        for name in INCLUSIVE:
            m[name + ".s"] = sec(total.get(name, 0))
        for name in ("exact.exact_mvc", "exact.exact_mds", "graph.square",
                     "mds_distributed.estimate_2hop_counts"):
            m[name + ".calls"] = calls.get(name, 0)
        for key in COUNTS + MAXIMA:
            if not key.startswith("sim."):
                m[key] = counters[key]
        m["mds_distributed.g2mds_logd.self_s"] = sec(
            self_ns.get("mds_distributed.g2mds_logd", 0))
        m["cli.main.calls"] = calls.get("cli.main", 0)
        m["cli.main.self_s"] = sec(self_ns.get("cli.main", 0))
        m["trace.attempt_s"] = sec(root_ns - check_ns)
        m["trace.unattributed_s"] = sec(self_ns.get("attempt", 0))
        m["trace.estimator_check_s"] = sec(check_ns)
        return m

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "attempt_starts": [a[0] for a in self.attempts],
                       "spans": self.spans}, fh)
            fh.write("\n")
