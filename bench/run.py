"""Benchmark entry point.

    python3 bench/run.py --workload mvc-dist --seed 1 --seconds 30 --trace 0

Runs one workload in this single process, from the root of a source
checkout (the package is imported from ``src/``).  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it spends half the time
untraced and half traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5

# Fixed before the interpreter starts: lowerbound keys dicts and sets by
# strings, the solvers must see one thread, and every import of the
# package compiles it from source, whether or not a cache was written.
ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

MODULES = {
    "budgets": "budgets", "cli": "cli", "errors": "errors", "exact": "exact",
    "graph": "graph", "graphio": "graphio", "lowerbound": "lowerbound",
    "mc": "mvc_centralized", "md": "mvc_distributed", "mds": "mds_distributed",
    "protocols": "protocols", "sim": "sim",
}


class Package:
    """A fresh import of the powergraph modules, by short name.

    Earlier imports of the package are dropped first, so each set-up pays
    for executing (and compiling) the package again; modules outside the
    package stay loaded after the first set-up.
    """

    def __init__(self):
        for name in [m for m in sys.modules if m.split(".")[0] == "powergraph"]:
            del sys.modules[name]
        for short, mod in MODULES.items():
            setattr(self, short, importlib.import_module("powergraph." + mod))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl, pg, seconds, distinct, tracer=None):
    """Attempt whole rounds of the workload until ``seconds`` have passed.

    Each attempt's ops are filed in ``distinct`` by their fingerprint.
    Returns (attempt times, attempted, failed).
    """
    times = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.begin_attempt()
            t0 = time.perf_counter()
            ops = tracer.call("attempt", wl.attempt, pg)
        else:
            t0 = time.perf_counter()
            ops = wl.attempt(pg)
        times.append(time.perf_counter() - t0)
        attempted += len(ops)
        failed += sum(1 for op in ops if op.error)
        distinct.setdefault(wl.fingerprint(ops), ops)
        if time.perf_counter() - start >= seconds:
            return times, attempted, failed


def check(wl, pg, distinct):
    errors = []
    if len(distinct) > 1:
        errors.append(f"{len(distinct)} different outputs across attempts")
    for ops in distinct:
        for op in ops:
            if op.error:
                print(f"failed: {op.label}: {op.error}", file=sys.stderr)
        errors += wl.check(pg, ops)
    return errors


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def per_layer(tracer, setups, untraced_times, errors):
    per_attempt = [tracer.attempt_metrics(i) for i in range(len(tracer.attempts))]
    out = {}
    for key in per_attempt[0]:
        values = [m[key] for m in per_attempt]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                errors.append(f"count {key} differs across attempts: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_ratio"] = out["trace.attempt_s"] / statistics.median(
        untraced_times)
    for key in setups[0]:
        out["setup." + key] = statistics.median(s[key] for s in setups)
    return out


def main(argv):
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + argv, dict(os.environ, **ENV))
    if not os.path.isfile(os.path.join(SRC, "powergraph", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_specs()

    sys.path.insert(0, SRC)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            gc.collect()  # free the previous set-up before the next one
            t0 = time.perf_counter()
            pg = Package()
            timing = {"import_s": time.perf_counter() - t0}
            wl = WORKLOADS[args.workload](args.seed)
            timing.update(wl.build(pg, workdir))
            setups.append(timing)
        if not pg.cli.__file__.startswith(SRC):
            print(f"powergraph imported from {pg.cli.__file__}", file=sys.stderr)
            return 2
        setup_s = statistics.median(sum(s.values()) for s in setups)

        seconds = args.seconds / 2 if args.trace else args.seconds
        distinct = {}
        times, attempted, failed = measure(wl, pg, seconds, distinct)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(pg)
            _, att, fail = measure(wl, pg, seconds, distinct, tracer)
            attempted += att
            failed += fail
        errors = check(wl, pg, list(distinct.values()))
        if args.trace:
            errors += tracer.errors
            metrics = per_layer(tracer, setups, times, errors)
            tracer.dump(os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
            units = layer_units
        else:
            metrics = {"setup_s": setup_s,
                       "solve_s_p50": statistics.median(times),
                       "peak_rss_mb": peak_rss_mb}
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    missing = set(units) - set(metrics)
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
