"""qudotn benchmark: end-to-end solves through the public API, checked.

    python3 perfbench/run.py --workload tau-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; the program is imported
from the ``src/`` next to this directory).  One operation solves one
instance with every method of the workload, in order, through
``qudotn.driver.solve_instance``: a closed loop with one caller on one
thread.  Every operation's outputs are checked; a ``QudotnError`` counts as
a failed operation and any other exception ends the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates whole
passes over the instance pool without and with layer probes (see
``probes.py``) and reports the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON result.  The full
report, with the Python and numpy versions, ``nproc`` and the thread
environment, is written to ``perfbench/out/`` (spans too, when traced).
Exit status: 0 when every output check passed, 1 when any failed, 2 when the
program cannot be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probes import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MODULES = ("driver", "problem", "chain_solver", "waterfall",
                 "dense_solver", "tn_core", "oracle", "errors")
OPTIMAL_REL_TOL = 1e-9


def import_program():
    """Import qudotn afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "qudotn" or m.startswith("qudotn.")]:
        del sys.modules[name]
    return importlib.import_module("qudotn")


def measure_setup(docs: list):
    """Median over repeats of ``import qudotn`` plus parsing every document."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg = import_program()
        problems = [pkg.parse_instance(doc) for doc in docs]
        times.append(perf_counter() - start)
    return statistics.median(times), problems


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ.get(var) for var in THREAD_ENV}}


class Runner:
    """Closed-loop operations over one workload's parsed instance pool."""

    def __init__(self, workload, problems, mods):
        self.workload = workload
        self.problems = problems
        self.cfg = mods["tn_core"].SolverConfig(tau=workload.tau, tau_grid=workload.tau_grid)
        self.evaluate_cost = mods["problem"].evaluate_cost
        self.expected_error = mods["errors"].QudotnError
        self.solve = mods["driver"].solve_instance
        self.first = {}  # instance index -> assignments of its first operation
        self.reference = []
        self.reference_s = []
        for p in problems:
            start = perf_counter()
            if workload.reference == "brute":
                self.reference.append(mods["oracle"].brute_force(p).best_cost)
            elif workload.reference == "waterfall":
                self.reference.append(self.solve(p, "waterfall", self.cfg).assignment)
            else:
                self.reference.append(None)
            self.reference_s.append(perf_counter() - start)

    def check(self, idx: int, outs: list):
        """Returns (error or None, optimal or None) for one operation's outputs."""
        p = self.problems[idx]
        for method, out in zip(self.workload.methods, outs):
            if out.cost != self.evaluate_cost(p, out.assignment):
                return f"{method}: reported cost differs from evaluate_cost", None
        assignments = [list(out.assignment) for out in outs]
        if any(a != assignments[0] for a in assignments):
            return "methods returned different assignments", None
        if self.first.setdefault(idx, assignments) != assignments:
            return "assignment changed between operations on one instance", None
        ref = self.reference[idx]
        if self.workload.reference == "waterfall" and assignments[0] != list(ref):
            return "assignment differs from the waterfall solve", None
        if self.workload.reference == "brute":
            cost = outs[0].cost
            if math.isclose(cost, ref, rel_tol=OPTIMAL_REL_TOL, abs_tol=0.0):
                return None, True
            if cost < ref:
                return "cost below the brute-force optimum", None
            return None, False
        return None, None

    def run(self, seconds: float, first_op: int = 0, min_ops: int = 1, tracer=None) -> dict:
        """Operations until ``seconds`` of wall time have passed and at least
        ``min_ops`` operations ran."""
        solve = self.solve if tracer is None else tracer.span("driver.solve_instance", self.solve)
        samples, errors, optimal = [], [], []
        op = first_op
        gc.collect()
        deadline = perf_counter() + seconds
        while op < first_op + min_ops or perf_counter() < deadline:
            idx = op % len(self.problems)
            p = self.problems[idx]
            if tracer is not None:
                tracer.op = op
            start = perf_counter()
            try:
                outs = [solve(p, method, self.cfg) for method in self.workload.methods]
            except self.expected_error as exc:
                errors.append(f"op {op}: {type(exc).__name__}: {exc}")
                op += 1
                continue
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.op = -1
            error, is_optimal = self.check(idx, outs)
            if error is None:
                samples.append(elapsed)
            else:
                errors.append(f"op {op}: {error}")
            if is_optimal is not None:
                optimal.append(is_optimal)
            op += 1
        return {"samples": samples, "errors": errors, "optimal": optimal,
                "ops": list(range(first_op, op))}


def solves_per_s(samples: list) -> float:
    return len(samples) / sum(samples) if samples else 0.0


def end_to_end(phase: dict, setup_s: float):
    """(metrics of the JSON result, extra metrics for the report) of one phase."""
    samples = phase["samples"]
    attempted = len(phase["ops"])
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 \
        else (samples[0] if samples else 0.0)
    metrics = {
        "solves_per_s": (solves_per_s(samples), "1/s"),
        "solve_p50_s": (statistics.median(samples) if samples else 0.0, "s"),
        "solve_p90_s": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "failed_frac": (len(phase["errors"]) / attempted, "1"),
        "samples": (len(samples), "count"),
        "samples_beyond_p90": (sum(s > p90 for s in samples), "count"),
    }
    if phase["optimal"]:
        extra["optimal_frac"] = (sum(phase["optimal"]) / len(phase["optimal"]), "1")
    return metrics, extra


def run_workload(args) -> int:
    if not (SRC / "qudotn" / "__init__.py").is_file():
        print(f"perfbench: no qudotn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, pool_documents

    workload = WORKLOADS[args.workload]
    docs = pool_documents(workload, args.seed)
    setup_s, problems = measure_setup(docs)
    pkg = sys.modules["qudotn"]
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        print(f"perfbench: qudotn was imported from {pkg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    mods = {name: sys.modules["qudotn." + name] for name in MODULES}
    runner = Runner(workload, problems, mods)
    runner.run(0.0)  # warm-up operation, checked but not reported

    env = environment()
    print(f"env workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {json.dumps(env, sort_keys=True)}")
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        parse_s = []
        for doc in docs:
            start = perf_counter()
            mods["problem"].parse_instance(doc)
            parse_s.append(perf_counter() - start)
        # Whole passes over the pool, alternately untraced and traced, so the
        # overhead compares operations made under the same machine load, and
        # every instance weighs the same in the medians (exact counts repeat).
        tracer = Tracer()
        passes, op = [], 0
        deadline = perf_counter() + args.seconds
        while len(passes) < 2 or perf_counter() < deadline:
            traced = len(passes) % 2 == 1
            if traced:
                tracer.install(mods)
            try:
                passes.append(runner.run(0.0, first_op=op, min_ops=len(problems),
                                         tracer=tracer if traced else None))
            finally:
                tracer.uninstall()
            op += len(problems)
        phases = passes
        plain_sps = solves_per_s([s for ph in passes[0::2] for s in ph["samples"]])
        traced_sps = solves_per_s([s for ph in passes[1::2] for s in ph["samples"]])
        traced_ops = [o for ph in passes[1::2] for o in ph["ops"]]
        metrics = layer_metrics(tracer, traced_ops)
        metrics["problem.parse_instance_s"] = (statistics.median(parse_s), "s")
        metrics["oracle.brute_force_s"] = (
            statistics.median(runner.reference_s) if workload.reference == "brute" else 0.0, "s")
        metrics["trace.overhead_frac"] = (1.0 - traced_sps / plain_sps if plain_sps else 0.0, "1")
        extra = {"untraced_solves_per_s": (plain_sps, "1/s"),
                 "traced_solves_per_s": (traced_sps, "1/s"),
                 "spans": (len(tracer.spans), "count"),
                 "traced_ops": (len(traced_ops), "count")}
    else:
        phase = runner.run(args.seconds)
        phases = (phase,)
        metrics, extra = end_to_end(phase, setup_s)

    attempted = sum(len(ph["ops"]) for ph in phases)
    errors = [e for ph in phases for e in ph["errors"]]
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit} (ops={attempted})")
    for error in errors[:20]:
        print(f"FAILED {error}")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in {**metrics, **extra}.items()}
    report["errors"] = errors
    report["op_seconds"] = [s for ph in phases for s in ph["samples"]]
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.csv.gz"))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    from workloads import WORKLOADS
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or results[name] is None:
            print(f"[{name}] exited with status {proc.returncode}")
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS/OpenMP read these when numpy loads, so they are set before the
    # first numpy import: the numbers should measure the program, not
    # thread scheduling on a small machine.
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(['all', *WORKLOADS])}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
