"""Method dispatch and tau-grid best-of solving, shared by the CLI and the
benchmark harness."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .chain_solver import solve_matrix, solve_tensor
from .dense_solver import solve_dense
from .errors import NumericFaultError
from .oracle import brute_force
from .problem import Problem, chain_view
from .tn_core import SolverConfig, pick_best
from .waterfall import solve_waterfall

METHODS = ("dense", "matrix", "tensor", "waterfall", "brute")


@dataclass
class SolveOutcome:
    """One method's answer.  With a tau grid, tau is the winning grid point
    and skipped_taus lists the (tau, message) pairs of the points that
    faulted numerically."""

    method: str
    assignment: list
    cost: float
    tau: float | None
    stats: object = None
    peak_memory_proxy: int = 0
    skipped_taus: list = field(default_factory=list)


def _per_tau(solve, cfg: SolverConfig):
    """(result, tau, skipped) of solve(cfg) at each tau of cfg's grid in
    turn, for the dense solver, which takes one tau at a time."""
    if cfg.tau_grid is None:
        return solve(cfg), cfg.tau, []
    taus = cfg.taus()
    results, faults = [], []
    for tau in taus:
        try:
            results.append(solve(replace(cfg, tau=float(tau), tau_grid=None)))
            faults.append(None)
        except NumericFaultError as exc:
            results.append(None)
            faults.append(str(exc))
    best, skipped = pick_best(taus, [r and r.cost for r in results], faults)
    return results[best], float(taus[best]), skipped


def solve_instance(p: Problem, method: str, cfg: SolverConfig,
                   k: int | None = None) -> SolveOutcome:
    """Solve with one method; with a tau grid, keep the lowest-cost result.

    Grid points that fault numerically (extreme tau) are skipped and listed
    in the outcome; at least one point must succeed.  Ties keep the first
    (smallest) tau, so results are deterministic.  matrix, tensor and
    waterfall solve the whole grid in one pass; dense solves it one tau at a
    time.
    """
    if method == "brute":
        res = brute_force(p)
        return SolveOutcome(method, res.best, res.best_cost, None)
    if method == "dense":
        res, tau, skipped = _per_tau(lambda c: solve_dense(p, c), cfg)
        return SolveOutcome(method, res.assignment, res.cost, tau,
                            peak_memory_proxy=p.n - 1, skipped_taus=skipped)
    kk = k if k is not None else max(p.bandwidth, 1)
    chain = chain_view(p, kk)
    if method in ("matrix", "tensor"):
        res = (solve_matrix if method == "matrix" else solve_tensor)(chain, cfg)
        return SolveOutcome(method, res.assignment, res.cost, res.tau,
                            peak_memory_proxy=res.messages_held,
                            skipped_taus=res.skipped_taus)
    if method == "waterfall":
        res = solve_waterfall(chain, cfg)
        return SolveOutcome(method, res.assignment, res.cost, res.tau,
                            stats=res.stats,
                            peak_memory_proxy=res.stats.peak_tables_held,
                            skipped_taus=res.skipped_taus)
    raise ValueError(f"unknown method {method!r}")
