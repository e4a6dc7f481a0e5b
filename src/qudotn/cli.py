"""Command-line front end: instance generation, solving, cross-method
comparison, scaling sweeps and waterfall-probability studies.

All delimited output is plain CSV with a mandatory header row and C-locale
decimal points.  Given the same seeds, every output is byte-identical across
runs except for wall-time columns.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from .driver import METHODS, solve_instance
from .errors import QudotnError
from .problem import (Problem, evaluate_cost, parse_instance, random_instance,
                      serialize_instance)
from .tn_core import SolverConfig

COMPARE_COLUMNS = ["instance", "seed", "n", "d", "k", "method", "tau", "cost",
                   "relative_error", "error_mode", "wall_time",
                   "peak_memory_proxy", "w_prob"]
SCALING_COLUMNS = ["axis", "value", "method", "n", "d", "k", "tau",
                   "median_wall_time", "repeats"]
WPROB_COLUMNS = ["d", "n", "instances", "mean_w_prob", "stderr_w_prob"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path, header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_text(path, out.getvalue())


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def relative_error(cost: float, reference: float):
    """1 - cost/reference; falls back to the absolute difference (flagged)
    when the reference cost is zero."""
    if reference == 0.0:
        return cost - reference, "absolute"
    return 1.0 - cost / reference, "relative"


def _parse_tau_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected MIN,MAX,COUNT")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _make_config(args) -> SolverConfig:
    return SolverConfig(
        tau=args.tau,
        tau_grid=args.tau_grid,
        restart_factor=getattr(args, "restart_factor", 1.0),
    )


def _load_instance(path) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    p = random_instance(args.kind, args.n, args.d, args.k, args.seed,
                        lin_enabled=args.lin)
    _write_text(args.output, serialize_instance(p) + "\n")
    return 0


def cmd_solve(args) -> int:
    p = _load_instance(args.input)
    cfg = _make_config(args)
    start = time.perf_counter()
    out = solve_instance(p, args.method, cfg, k=args.k)
    elapsed = time.perf_counter() - start
    print("assignment " + " ".join(str(v) for v in out.assignment))
    print(f"cost {_fmt(float(out.cost))}")
    if out.tau is not None:
        print(f"tau {_fmt(float(out.tau))}")
    if out.stats is not None:
        print(f"w_prob {_fmt(out.stats.w_prob)}")
    for tau, message in out.skipped_taus:
        print(f"skipped_tau {_fmt(tau)} {message}")
    print(f"wall_time {elapsed:.6f}")
    return 0


def cmd_compare(args) -> int:
    p = _load_instance(args.input)
    cfg = _make_config(args)
    methods = args.methods
    if args.reference == "brute":
        ref_cost = solve_instance(p, "brute", cfg).cost
    else:
        ref_cost = None  # best-of: filled after all methods ran
    records = []
    for method in methods:
        start = time.perf_counter()
        out = solve_instance(p, method, cfg, k=args.k)
        elapsed = time.perf_counter() - start
        cost = evaluate_cost(p, out.assignment)  # independent recomputation
        records.append((method, out, cost, elapsed))
    if ref_cost is None:
        ref_cost = min(cost for _, _, cost, _ in records)
    rows = []
    for method, out, cost, elapsed in records:
        err, mode = relative_error(cost, ref_cost)
        w_prob = out.stats.w_prob if out.stats is not None else None
        rows.append([args.input, args.seed, p.n, p.d, args.k or p.bandwidth,
                     method, out.tau, float(cost), float(err), mode,
                     round(elapsed, 6), out.peak_memory_proxy, w_prob])
    _write_rows(args.output, COMPARE_COLUMNS, rows)
    return 0


def cmd_bench_scaling(args) -> int:
    if not args.values:
        raise ValueError("empty sweep range")
    if args.repeats < 1:
        raise ValueError("need at least one repeat")
    cfg = SolverConfig(tau=args.tau)
    fixed = {"n": args.n, "d": args.d, "k": args.k}
    rows = []
    for value in args.values:
        params = dict(fixed)
        params[args.axis] = value
        for method in args.methods:
            times = []
            out = None
            for rep in range(args.repeats):
                p = random_instance("qudo", params["n"], params["d"],
                                    params["k"], args.seed + rep)
                start = time.perf_counter()
                out = solve_instance(p, method, cfg, k=params["k"])
                times.append(time.perf_counter() - start)
            rows.append([args.axis, value, method, params["n"], params["d"],
                         params["k"], args.tau,
                         float(np.median(times)), args.repeats])
    _write_rows(args.output, SCALING_COLUMNS, rows)
    return 0


def cmd_waterfall_prob(args) -> int:
    if args.instances < 1:
        raise ValueError("need at least one instance per d value")
    cfg = SolverConfig(tau=args.tau, tau_grid=args.tau_grid)
    rows = []
    for d in args.d_range:
        probs = []
        for inst in range(args.instances):
            seed = args.seed + 1000 * d + inst
            if args.decoupled:
                p = Problem(kind="qudo", n=args.n, d=d,
                            quad={(i, i): 0.0 for i in range(args.n)})
            else:
                p = random_instance("qudo", args.n, d, 1, seed)
            out = solve_instance(p, "waterfall", cfg, k=1)
            probs.append(out.stats.w_prob)
        mean = float(np.mean(probs))
        stderr = float(np.std(probs, ddof=1) / np.sqrt(len(probs))) if len(probs) > 1 else 0.0
        rows.append([d, args.n, args.instances, mean, stderr])
    _write_rows(args.output, WPROB_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qudotn",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--tau", type=float, default=50.0)
        sp.add_argument("--tau-grid", type=_parse_tau_grid, default=None,
                        metavar="MIN,MAX,COUNT")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--output", default=None)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.add_argument("--kind", choices=("qubo", "qudo", "tqudo"), default="qudo")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--lin", action="store_true",
                     help="draw linear coefficients too (qudo only)")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=cmd_generate)

    sol = sub.add_parser("solve", help="solve one instance file")
    sol.add_argument("--input", required=True)
    sol.add_argument("--method", choices=METHODS, required=True)
    sol.add_argument("--restart-factor", type=float, default=1.0)
    add_common(sol)
    sol.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="run several methods, emit CSV")
    cmp_.add_argument("--input", required=True)
    cmp_.add_argument("--methods", type=lambda s: s.split(","),
                      default=["matrix", "tensor", "waterfall"])
    cmp_.add_argument("--reference", choices=("brute", "best-of"),
                      default="brute")
    add_common(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    ben = sub.add_parser("bench-scaling", help="runtime sweep over n, d or k")
    ben.add_argument("--axis", choices=("n", "d", "k"), required=True)
    ben.add_argument("--values", type=_int_list, required=True,
                     metavar="V1,V2,...")
    ben.add_argument("--methods", type=lambda s: s.split(","),
                     default=["matrix", "tensor"])
    ben.add_argument("--n", type=int, default=100)
    ben.add_argument("--d", type=int, default=2)
    ben.add_argument("--repeats", type=int, default=3)
    add_common(ben)
    ben.set_defaults(k=2)
    ben.set_defaults(func=cmd_bench_scaling)

    wat = sub.add_parser("waterfall-prob",
                         help="cascade probability sweep over d")
    wat.add_argument("--d-range", type=_int_list, required=True,
                     metavar="D1,D2,...")
    wat.add_argument("--n", type=int, default=200)
    wat.add_argument("--instances", type=int, default=50)
    wat.add_argument("--decoupled", action="store_true",
                     help="use zero-coupling instances (cascade everywhere)")
    add_common(wat)
    wat.set_defaults(func=cmd_waterfall_prob)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QudotnError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
