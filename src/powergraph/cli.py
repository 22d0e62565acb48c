"""Command-line harness: instance generation, runs, verification, sweeps.

All output is machine-readable (JSON objects with sorted keys, or CSV) and
byte-deterministic for identical invocations; timing is only emitted when
explicitly requested with --timing.
"""

import argparse
import csv
import functools
import io
import json
import random
import sys
import time
from fractions import Fraction

from .errors import GenerationError, InputError, PowerGraphError
from .exact import exact_mds, exact_mvc
from .graph import DS2, VC2, Graph, is_feasible, make_solution, square
from .graphio import format_graph, read_graph, write_graph, write_sidecar
from .lowerbound import (
    gen_mds_base,
    gen_mds_square_approx_unweighted,
    gen_mds_square_exact,
    gen_mvc_base,
    gen_mvc_square,
    gen_mwds_square_approx,
    gen_mwvc_square,
)
from .mds_distributed import g2mds_logd
from .mvc_centralized import g2mvc_hybrid, vc_53_on_square
from .mvc_distributed import (
    g2mvc_cc_voting,
    g2mvc_eps,
    g2mvc_trivial,
    g2mwvc_eps,
)
from .sim import CLIQUE, CONGEST, Model, RoundStats

CENTRAL = "central"

LB_FAMILIES = {
    "mvc-base": ("k", gen_mvc_base),
    "mwvc-sq": ("k", gen_mwvc_square),
    "mvc-sq": ("k", gen_mvc_square),
    "mds-base": ("k", gen_mds_base),
    "mds-sq-exact": ("k", gen_mds_square_exact),
    "mwds-sq-approx": ("set", gen_mwds_square_approx),
    "mds-sq-approx": ("set", gen_mds_square_approx_unweighted),
}

# name: (default model, solution kind, needs --eps, returns the optimum,
# runner).  A runner takes (g, sq, eps, seed, model); sq() returns
# square(g), computed once.  A central runner gets model None and returns
# the members, the others (solution, stats).  Runners look package
# functions up by name when called, so rebinding those names reaches them.
ALGORITHMS = {
    "g2mvc-eps": (CONGEST, VC2, True, False, lambda g, sq, eps, seed, model:
                  g2mvc_eps(g, eps, model=model, seed=seed)),
    "g2mwvc-eps": (CONGEST, VC2, True, False, lambda g, sq, eps, seed, model:
                   g2mwvc_eps(g, eps, model=model, seed=seed)),
    "g2mvc-trivial": (CENTRAL, VC2, False, False, lambda g, sq, eps, seed, model:
                      g2mvc_trivial(g).members),
    "g2mvc-cc": (CLIQUE, VC2, True, False, lambda g, sq, eps, seed, model:
                 g2mvc_cc_voting(g, eps, seed=seed, model=model)),
    "g2mvc-53": (CENTRAL, VC2, False, False, lambda g, sq, eps, seed, model:
                 vc_53_on_square(sq())[0]),
    "g2mvc-hybrid": (CONGEST, VC2, False, False, lambda g, sq, eps, seed, model:
                     g2mvc_hybrid(g, model=model, seed=seed)),
    "g2mds-logd": (CONGEST, DS2, False, False, lambda g, sq, eps, seed, model:
                   g2mds_logd(g, seed=seed, model=model)),
    "exact-mvc2": (CENTRAL, VC2, False, True, lambda g, sq, eps, seed, model:
                   exact_mvc(sq()).members),
    "exact-mds2": (CENTRAL, DS2, False, True, lambda g, sq, eps, seed, model:
                   exact_mds(sq()).members),
}
ALGOS = tuple(ALGORITHMS)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors become records."""

    def error(self, message):
        raise InputError(message)


def _parse_fraction(text, label):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{label} must be a rational a/b, got {text!r}")


def _parse_eps(text):
    eps = _parse_fraction(text, "eps")
    if eps <= 0:
        raise InputError("eps must be positive")
    return eps


def _parse_p(text):
    p = _parse_fraction(text, "p")
    if not 0 <= p <= 1:
        raise InputError(f"p must lie in [0, 1], got {text!r}")
    return p


def _parse_hex_bits(text, length, label):
    try:
        value = int(text, 16)
    except ValueError:
        raise InputError(f"{label} must be a hex string, got {text!r}")
    if value < 0 or value >= 1 << length:
        raise InputError(f"{label} must fit in {length} bits")
    return tuple((value >> t) & 1 for t in range(length))


def _gen_gnp(n, p, rng):
    for _ in range(500):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise GenerationError(
        f"no connected G({n},{p}) sample found in 500 tries"
    )


def _gen_tree(n, rng):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def _cmd_gen_random(args):
    if args.n < 1:
        raise InputError("--n must be positive")
    p = _parse_p(args.p)
    rng = random.Random(args.seed)
    if args.model == "gnp":
        g = _gen_gnp(args.n, float(p), rng)
    else:
        g = _gen_tree(args.n, rng)
    if args.weights is not None:
        if args.weights < 1:
            raise InputError("--weights must be at least 1")
        weights = {v: rng.randint(1, args.weights) for v in range(g.n)}
        g = Graph(g.n, list(g.edges()), weights=weights)
    if args.output:
        write_graph(g, args.output)
    else:
        sys.stdout.write(format_graph(g))
    return 0


def _cmd_gen_lb(args):
    shape, gen = LB_FAMILIES[args.family]
    if shape == "k":
        if args.k is None:
            raise InputError(f"--k is required for family {args.family}")
        bits = args.k * args.k
        x = _parse_hex_bits(args.x, bits, "--x")
        y = _parse_hex_bits(args.y, bits, "--y")
        inst = gen(args.k, x, y)
    else:
        bits = args.T * args.T
        x = _parse_hex_bits(args.x, bits, "--x")
        y = _parse_hex_bits(args.y, bits, "--y")
        inst = gen(args.T, args.universe, args.r, x, y, seed=args.seed)
    write_graph(inst.graph, args.output)
    write_sidecar(inst.sidecar(), args.output + ".json")
    return 0


def _value_json(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def _execute(algo, g, sq, eps, seed, model_name):
    """Run one algorithm; sq() returns square(g).  Returns (solution, stats)."""
    default_model, kind, needs_eps, _, runner = ALGORITHMS[algo]
    if needs_eps and eps is None:
        raise InputError(f"--eps is required for {algo}")
    central = default_model == CENTRAL
    if model_name == CENTRAL and not central:
        raise InputError(f"{algo} needs a message-passing model")
    if model_name != CENTRAL and central:
        raise InputError(f"{algo} runs centrally; use --model central")
    if central:
        members = runner(g, sq, eps, seed, None)
        return make_solution(g, kind, members), RoundStats()
    return runner(g, sq, eps, seed, Model(model_name))


def run_report(algo, g, eps=None, seed=0, model_name=None, with_opt=False,
               timing=False):
    default_model, kind, _, optimal, _ = ALGORITHMS[algo]
    if model_name is None:
        model_name = default_model
    sq = functools.cache(lambda: square(g))
    start = time.perf_counter()
    sol, stats = _execute(algo, g, sq, eps, seed, model_name)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "algo": algo,
        "model": model_name,
        "n": g.n,
        "m": g.m,
        "eps": str(eps) if eps is not None else None,
        "seed": seed,
        "rounds": stats.rounds,
        "messages": stats.messages,
        "max_message_bits": stats.max_message_bits,
        "value": _value_json(sol.value),
        "feasible": is_feasible(g, kind, sol.members),
    }
    if with_opt:
        if optimal:
            opt = sol.value
        else:
            opt = (exact_mds(sq()) if kind == DS2 else exact_mvc(sq())).value
        report["opt"] = _value_json(opt)
        if opt > 0:
            report["ratio"] = float(Fraction(sol.value) / Fraction(opt))
        elif Fraction(sol.value) == 0:
            report["ratio"] = 1.0
    if timing:
        report["wall_ms"] = round(elapsed_ms, 3)
    return report


def _cmd_run(args):
    g = read_graph(args.input)
    eps = _parse_eps(args.eps) if args.eps is not None else None
    report = run_report(
        args.algo, g, eps=eps, seed=args.seed, model_name=args.model,
        with_opt=args.with_opt, timing=args.timing,
    )
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args):
    g = read_graph(args.input)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError:
        raise InputError("solution file is not UTF-8 text")
    try:
        members = sorted({int(t) for t in tokens})
    except ValueError:
        raise InputError("solution file must contain whitespace-separated "
                         "vertex ids")
    kind = VC2 if args.kind == "vc2" else DS2
    feasible = is_feasible(g, kind, members)
    out = {
        "kind": args.kind,
        "n": g.n,
        "size": len(members),
        "value": _value_json(g.total_weight(members)),
        "feasible": feasible,
    }
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


SWEEP_COLUMNS = (
    "algo", "model", "n", "m", "eps", "seed",
    "rounds", "messages", "max_message_bits", "value", "feasible",
    "opt", "ratio",
)


def _sweep_acceptance():
    """Deterministic desk-scale matrix exercising every algorithm."""
    rows = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        g = _gen_gnp(10, 0.4, rng)
        weights = {v: rng.randint(1, 16) for v in range(g.n)}
        gw = Graph(g.n, list(g.edges()), weights=weights)
        runs = [
            ("g2mvc-eps", g, Fraction(1, 2)),
            ("g2mwvc-eps", gw, Fraction(1, 2)),
            ("g2mvc-trivial", g, None),
            ("g2mvc-cc", g, Fraction(1, 2)),
            ("g2mvc-53", g, None),
            ("g2mvc-hybrid", g, None),
            ("g2mds-logd", g, None),
            ("exact-mvc2", g, None),
            ("exact-mds2", g, None),
        ]
        for algo, graph, eps in runs:
            rows.append(run_report(algo, graph, eps=eps, seed=seed,
                                   with_opt=True))
    rows.sort(key=lambda r: (r["seed"], r["algo"]))
    return rows


def _cmd_sweep(args):
    if args.suite != "acceptance":
        raise InputError(f"unknown suite {args.suite!r}")
    rows = _sweep_acceptance()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in SWEEP_COLUMNS})
    sys.stdout.write(buf.getvalue())
    return 0


@functools.cache
def build_parser():
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="powergraph")
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen")
    gensub = gen.add_subparsers(dest="kind", required=True)
    g_rand = gensub.add_parser("random")
    g_rand.add_argument("--model", choices=("gnp", "tree"), required=True)
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--p", default="1/2")
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--weights", type=int, default=None)
    g_rand.add_argument("--output", default=None)
    g_lb = gensub.add_parser("lb")
    g_lb.add_argument("--family", choices=sorted(LB_FAMILIES), required=True)
    g_lb.add_argument("--k", type=int, default=None)
    g_lb.add_argument("-T", "--T", dest="T", type=int, default=2)
    g_lb.add_argument("--universe", type=int, default=8)
    g_lb.add_argument("--r", type=int, default=2)
    g_lb.add_argument("--x", required=True)
    g_lb.add_argument("--y", required=True)
    g_lb.add_argument("--seed", type=int, default=0)
    g_lb.add_argument("--output", required=True)

    run = sub.add_parser("run")
    run.add_argument("--algo", choices=ALGOS, required=True)
    run.add_argument("--input", required=True)
    run.add_argument("--eps", default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--model", choices=(CONGEST, CLIQUE, CENTRAL),
                     default=None)
    run.add_argument("--with-opt", action="store_true")
    run.add_argument("--timing", action="store_true")

    ver = sub.add_parser("verify")
    ver.add_argument("--input", required=True)
    ver.add_argument("--solution", required=True)
    ver.add_argument("--kind", choices=("vc2", "ds2"), required=True)

    sweep = sub.add_parser("sweep")
    sweep.add_argument("--suite", required=True)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.cmd == "gen":
            if args.kind == "random":
                return _cmd_gen_random(args)
            return _cmd_gen_lb(args)
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (PowerGraphError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
