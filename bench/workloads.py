"""The benchmark's three workloads.

Each workload builds its seeded corpus (``build``: generate, write through
``graphio``, read back), solves every instance once per attempt
(``attempt``), and checks the outputs against references computed apart
from the package (``check``, run after the timed loop on every distinct
output the attempts produced).  ``pg`` is a namespace holding the imported
``powergraph`` modules; functions are looked up on it at call time, so the
traced run sees the rebound names.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction

import corpus
import oracle

EPS = Fraction(1, 2)


class Instance:
    __slots__ = ("label", "n", "edges", "weights", "path", "graph")

    def __init__(self, label, n, edges, weights=None):
        self.label = label
        self.n = n
        self.edges = edges
        self.weights = weights
        self.path = None
        self.graph = None


class Op:
    """One operation of an attempt: its label and output, or the error."""

    __slots__ = ("label", "output", "error")

    def __init__(self, label, output=None, error=None):
        self.label = label
        self.output = output
        self.error = error


def _result(sol, stats):
    return (sol.members, sol.value, stats.rounds, stats.messages,
            stats.max_message_bits)


def _solve(pg, label, fn, *args, **kwargs):
    try:
        return Op(label, _result(*fn(*args, **kwargs)))
    except pg.errors.PowerGraphError as exc:
        return Op(label, error=f"{type(exc).__name__}: {exc}")


class Workload:
    name = None

    def __init__(self, seed):
        self.seed = seed
        self.instances = []

    def generate(self, rng):
        raise NotImplementedError

    def build(self, pg, workdir):
        """Generate the corpus, write it, read it back; returns timings."""
        t0 = time.perf_counter()
        self.instances = self.generate(random.Random(self.seed))
        graphs = []
        for inst in self.instances:
            w = None if inst.weights is None else dict(enumerate(inst.weights))
            graphs.append(pg.graph.Graph(inst.n, inst.edges, weights=w))
        t1 = time.perf_counter()
        for inst, g in zip(self.instances, graphs):
            inst.path = os.path.join(workdir, inst.label + ".graph")
            pg.graphio.write_graph(g, inst.path)
        t2 = time.perf_counter()
        for inst in self.instances:
            inst.graph = pg.graphio.read_graph(inst.path)
        t3 = time.perf_counter()
        return {"generate_s": t1 - t0, "write_graph_s": t2 - t1,
                "read_graph_s": t3 - t2}

    def fingerprint(self, ops):
        """What must repeat exactly from one attempt to the next."""
        return repr([(op.label, op.output, op.error) for op in ops])

    def _inst(self, label):
        return next(i for i in self.instances if i.label == label)


def _common_errors(inst, output, kind):
    """Feasibility on the benchmark's own G^2, value, message size."""
    members, value, rounds, messages, bits = output
    errors = []
    sq = oracle.square_adjacency(inst.n, inst.edges)
    ok = (oracle.is_vertex_cover(sq, members) if kind == "vc"
          else oracle.is_dominating_set(sq, members))
    if not ok:
        errors.append(f"{inst.label}: infeasible {kind} of G^2")
    if Fraction(value) != oracle.weight_of(members, inst.weights):
        errors.append(f"{inst.label}: reported value {value} is not the weight")
    limit = 8 * oracle.word_bits(inst.n)  # Model() default: 8 words
    if bits > limit:
        errors.append(f"{inst.label}: {bits}-bit message over {limit}")
    return errors, sq


class MvcDist(Workload):
    """Simulated MVC on G^2 in the CONGEST and CLIQUE models."""

    name = "mvc-dist"
    # n values keep the leader's H under exact.DEFAULT_CAP (64 active
    # vertices) on every seed: the weighted H holds about half of V.
    N_EPS, N_HYBRID, N_WEIGHTED, N_VOTING = 500, 1000, 90, 100
    VOTING_P = 0.2

    def generate(self, rng):
        return [
            Instance("eps", self.N_EPS,
                     corpus.sparse_connected(self.N_EPS, 6, rng)),
            Instance("hybrid", self.N_HYBRID,
                     corpus.sparse_connected(self.N_HYBRID, 6, rng)),
            Instance("weighted", self.N_WEIGHTED,
                     corpus.sparse_connected(self.N_WEIGHTED, 6, rng),
                     corpus.vertex_weights(self.N_WEIGHTED, 16, rng)),
            Instance("voting", self.N_VOTING,
                     corpus.gnp_connected(self.N_VOTING, self.VOTING_P, rng)),
        ]

    def attempt(self, pg):
        congest, clique = pg.sim.Model(pg.sim.CONGEST), pg.sim.Model(pg.sim.CLIQUE)
        s = self.seed
        g = [inst.graph for inst in self.instances]
        return [
            _solve(pg, "g2mvc_eps", pg.md.g2mvc_eps, g[0], EPS, model=congest, seed=s),
            _solve(pg, "g2mvc_hybrid", pg.mc.g2mvc_hybrid, g[1], model=congest, seed=s),
            _solve(pg, "g2mwvc_eps", pg.md.g2mwvc_eps, g[2], EPS, model=congest, seed=s),
            _solve(pg, "g2mvc_cc_voting", pg.md.g2mvc_cc_voting, g[3], EPS,
                   seed=s, model=clique),
        ]

    def check(self, pg, ops):
        errors = []
        l = math.ceil(1 / EPS)
        c1, c2 = pg.budgets.C1_CLUSTERING, pg.budgets.C2_VOTING
        for op, inst in zip(ops, self.instances):
            if op.error:
                continue
            errs, sq = _common_errors(inst, op.output, "vc")
            errors += errs
            value, rounds = Fraction(op.output[1]), op.output[2]
            if op.label in ("g2mvc_eps", "g2mvc_hybrid"):
                lb = oracle.clique_partition_bound(oracle.adjacency(inst.n, inst.edges))
                ratio = 1 + EPS if op.label == "g2mvc_eps" else Fraction(5, 3)
                budget = c1 * inst.n * l
            else:
                lb = oracle.min_vertex_cover(sq, inst.weights)
                ratio = 1 + EPS
                budget = (c2 * (math.log2(inst.n) + 1 / EPS)
                          if op.label == "g2mvc_cc_voting" else None)
            if value > ratio * lb:
                errors.append(f"{op.label}: value {value} > {ratio} x bound {lb}")
            if budget is not None and rounds > budget:
                errors.append(f"{op.label}: {rounds} rounds > budget {budget}")
        return errors


class MdsDist(Workload):
    """g2mds_logd on graphs with a hub (sampled estimates) and on hub-free
    graphs (exact counts only)."""

    name = "mds-dist"
    # Each hub is joined to every other vertex, so its degree is above the
    # estimator's exact-count threshold ceil(8 ln n) and every count is
    # sampled; G^2 is complete, so each of these runs takes one phase.
    N_HUB, HUB_BASE_DEGREE, HUB_GRAPHS = 60, 3, 2
    # The number of phases on a hub-free graph varies with the seed, so
    # that work is spread over several small graphs to average it out.
    N_FREE, FREE_GRAPHS = 80, 8

    def generate(self, rng):
        out = []
        for i in range(self.HUB_GRAPHS):
            base = corpus.sparse_connected(self.N_HUB, self.HUB_BASE_DEGREE, rng)
            out.append(Instance(f"hub{i}", self.N_HUB,
                                corpus.add_hub(self.N_HUB, base, rng)))
        for i in range(self.FREE_GRAPHS):
            out.append(Instance(f"hub-free{i}", self.N_FREE,
                                corpus.sparse_connected(self.N_FREE, 6, rng)))
        return out

    def attempt(self, pg):
        model = pg.sim.Model(pg.sim.CONGEST)
        return [
            _solve(pg, "g2mds_logd:" + inst.label, pg.mds.g2mds_logd,
                   inst.graph, seed=self.seed, model=model)
            for inst in self.instances
        ]

    def check(self, pg, ops):
        errors = []
        for op, inst in zip(ops, self.instances):
            if op.error:
                continue
            errs, sq = _common_errors(inst, op.output, "ds")
            errors += errs
            # the O(log Delta) guarantee: value <= 8 H(Delta(G^2)) OPT
            delta = max(len(s) for s in sq)
            lb = oracle.min_dominating_set(sq)
            bound = 8 * oracle.harmonic(delta) * lb
            if op.output[1] > bound:
                errors.append(f"{op.label}: value {op.output[1]} > {float(bound):.1f}")
        return errors


def _cli(pg, label, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pg.cli.main(argv)
    text = buf.getvalue()
    if code != 0:
        return Op(label, error=text.strip())
    return Op(label, text)


# (CLI family, generator, "k" or "set" parameters, size)
LB_FAMILIES = (
    ("mvc-base", "gen_mvc_base", "k", 4),
    ("mds-base", "gen_mds_base", "k", 2),
    ("mwvc-sq", "gen_mwvc_square", "k", 4),
    ("mvc-sq", "gen_mvc_square", "k", 4),
    ("mds-sq-exact", "gen_mds_square_exact", "k", 2),
    ("mwds-sq-approx", "gen_mwds_square_approx", "set", 2),
    ("mds-sq-approx", "gen_mds_square_approx_unweighted", "set", 2),
)
LB_UNIVERSE, LB_R = 8, 2


class Central(Workload):
    """Exact solvers, square(), the 5/3 routine, graphio and the CLI; no
    simulator."""

    name = "central"
    # Graphs for the exact solvers, under exact.DEFAULT_CAP.  The search
    # time of one graph varies widely with the seed, so many small graphs
    # average it out.
    SMALL = (32, 40, 48) * 8
    N_BIG = 3000

    def generate(self, rng):
        out = [Instance(f"small{i}", n, corpus.sparse_connected(n, 3, rng))
               for i, n in enumerate(self.SMALL)]
        out.append(Instance("big", self.N_BIG,
                            corpus.sparse_connected(self.N_BIG, 6, rng)))
        self.lb = []
        for i, (fam, gen, shape, size) in enumerate(LB_FAMILIES):
            x, y = corpus.string_pair(size * size, i % 2 == 0, rng)
            self.lb.append((fam, gen, shape, size, x, y, rng.randrange(1 << 16)))
        return out

    def build(self, pg, workdir):
        timings = super().build(pg, workdir)
        big = self._inst("big")
        u, v = big.edges[0]
        self.bad_solution = os.path.join(workdir, "infeasible.sol")
        with open(self.bad_solution, "w", encoding="utf-8") as fh:
            fh.write(" ".join(str(w) for w in range(big.n) if w not in (u, v)))
        self.good_solution = os.path.join(workdir, "g2mvc53.sol")
        self.workdir = workdir
        return timings

    def _lb_path(self, fam):
        return os.path.join(self.workdir, f"lb-{fam}.graph")

    def attempt(self, pg):
        ops = []
        for inst in self.instances[:-1]:
            for algo in ("exact-mvc2", "exact-mds2", "g2mvc-53"):
                ops.append(_cli(pg, f"{algo}:{inst.label}", [
                    "run", "--algo", algo, "--input", inst.path, "--with-opt"]))
        big = self._inst("big")
        ops.append(_cli(pg, "g2mvc-53:big", [
            "run", "--algo", "g2mvc-53", "--input", big.path]))
        try:
            sol, _trace = pg.mc.g2mvc_53(big.graph)
            members = sorted(sol.members)
            ops.append(Op("g2mvc_53:big", tuple(members)))
            with open(self.good_solution, "w", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, members)) + "\n")
        except pg.errors.PowerGraphError as exc:
            ops.append(Op("g2mvc_53:big", error=str(exc)))
        for label, path in (("verify:good", self.good_solution),
                            ("verify:bad", self.bad_solution)):
            ops.append(_cli(pg, label, [
                "verify", "--input", big.path, "--solution", path, "--kind", "vc2"]))
        for fam, gen, shape, size, x, y, seed in self.lb:
            argv = ["gen", "lb", "--family", fam, "--x", corpus.to_hex(x),
                    "--y", corpus.to_hex(y), "--output", self._lb_path(fam)]
            if shape == "k":
                argv += ["--k", str(size)]
                gen_args, gen_kwargs = (size, x, y), {}
            else:
                argv += ["-T", str(size), "--universe", str(LB_UNIVERSE),
                         "--r", str(LB_R), "--seed", str(seed)]
                gen_args = (size, LB_UNIVERSE, LB_R, x, y)
                gen_kwargs = {"seed": seed}
            ops.append(_cli(pg, f"gen-lb:{fam}", argv))
            try:
                inst = getattr(pg.lowerbound, gen)(*gen_args, **gen_kwargs)
                ops.append(Op(f"verify_family:{fam}",
                              pg.lowerbound.verify_family(inst)))
            except pg.errors.PowerGraphError as exc:
                ops.append(Op(f"verify_family:{fam}", error=str(exc)))
        return ops

    def fingerprint(self, ops):
        digest = hashlib.sha256(super().fingerprint(ops).encode())
        for fam, *_ in self.lb:
            for path in (self._lb_path(fam), self._lb_path(fam) + ".json"):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        return digest.hexdigest()

    def check(self, pg, ops):
        errors = []
        out = {op.label: op.output for op in ops if not op.error}
        for inst in self.instances[:-1]:
            sq = oracle.square_adjacency(inst.n, inst.edges)
            opt_vc = oracle.min_vertex_cover(sq)
            opt_ds = oracle.min_dominating_set(sq)
            for algo, opt in (("exact-mvc2", opt_vc), ("exact-mds2", opt_ds),
                              ("g2mvc-53", opt_vc)):
                label = f"{algo}:{inst.label}"
                if label not in out:
                    continue
                rep = json.loads(out[label])
                if not rep["feasible"] or rep["opt"] != opt:
                    errors.append(f"{label}: feasible={rep['feasible']} "
                                  f"opt={rep['opt']} vs milp {opt}")
                limit = opt if algo.startswith("exact") else Fraction(5, 3) * opt
                if rep["value"] > limit:
                    errors.append(f"{label}: value {rep['value']} > {limit}")
        big = self._inst("big")
        sq = oracle.square_adjacency(big.n, big.edges)
        members = out.get("g2mvc_53:big")
        if members is not None:
            if not oracle.is_vertex_cover(sq, members):
                errors.append("g2mvc_53:big: infeasible cover of G^2")
            lb = oracle.clique_partition_bound(oracle.adjacency(big.n, big.edges))
            if len(members) > Fraction(5, 3) * lb:
                errors.append(f"g2mvc_53:big: {len(members)} > 5/3 x {lb}")
            if "g2mvc-53:big" in out:
                rep = json.loads(out["g2mvc-53:big"])
                if rep["value"] != len(members) or not rep["feasible"]:
                    errors.append(f"g2mvc-53:big: CLI reports {rep}")
            if "verify:good" in out:
                rep = json.loads(out["verify:good"])
                if not rep["feasible"] or rep["size"] != len(members):
                    errors.append(f"verify:good: {rep}")
        if "verify:bad" in out:
            with open(self.bad_solution, encoding="utf-8") as fh:
                bad = {int(t) for t in fh.read().split()}
            if json.loads(out["verify:bad"])["feasible"] != oracle.is_vertex_cover(sq, bad):
                errors.append("verify:bad: feasibility differs from the reference")
        for fam, gen, shape, size, x, y, seed in self.lb:
            errors += self._check_family(out, fam, x, y)
        return errors

    def _check_family(self, out, fam, x, y):
        if f"gen-lb:{fam}" not in out:
            return []
        path = self._lb_path(fam)
        n, edges, weights = oracle.parse_graph_file(path)
        with open(path + ".json", encoding="utf-8") as fh:
            side = json.load(fh)
        errors = []
        if side["x"] != "".join(map(str, x)) or side["y"] != "".join(map(str, y)):
            errors.append(f"gen-lb:{fam}: sidecar strings differ from the input")
        th = side["thresholds"]
        adj = (oracle.square_adjacency(n, edges) if th["power"] == 2
               else oracle.adjacency(n, edges))
        solve = (oracle.min_vertex_cover if th["problem"] == "vc"
                 else oracle.min_dominating_set)
        opt = solve(adj, weights)
        intersect = any(a and b for a, b in zip(x, y))
        errors += oracle.threshold_errors(f"gen-lb:{fam}", opt, th, intersect)
        rep = out.get(f"verify_family:{fam}")
        if rep and (rep["agree"] is not True or rep["disj"] != (not intersect)
                    or rep["oracle_value"] != opt):
            errors.append(f"verify_family:{fam}: {rep} vs milp {opt}")
        return errors


WORKLOADS = {w.name: w for w in (MvcDist, MdsDist, Central)}
