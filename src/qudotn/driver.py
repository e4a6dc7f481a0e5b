"""Method dispatch and tau-grid best-of solving, shared by the CLI and the
benchmark harness."""
from __future__ import annotations

from dataclasses import dataclass, field

from .chain_solver import solve_matrix, solve_tensor
from .dense_solver import solve_dense
from .oracle import brute_force
from .problem import Problem, chain_view
from .tn_core import SolverConfig
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


def solve_instance(p: Problem, method: str, cfg: SolverConfig,
                   k: int | None = None) -> SolveOutcome:
    """Solve with one method; with a tau grid, keep the lowest-cost result.

    Every method but brute solves the whole grid in one pass (see
    chain_solver.solve_grid).  Grid points that fault numerically (extreme
    tau) are skipped and listed in the outcome; at least one point must
    succeed.  Ties keep the first (smallest) tau, so results are
    deterministic.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "brute":
        res = brute_force(p)
        return SolveOutcome(method, res.best, res.best_cost, None)
    if method == "dense":
        res = solve_dense(p, cfg)
    else:
        chain = chain_view(p, k if k is not None else max(p.bandwidth, 1))
        if method == "waterfall":
            res = solve_waterfall(chain, cfg)
            return SolveOutcome(method, res.assignment, res.cost, res.tau,
                                stats=res.stats,
                                peak_memory_proxy=res.stats.peak_tables_held,
                                skipped_taus=res.skipped_taus)
        res = (solve_matrix if method == "matrix" else solve_tensor)(chain, cfg)
    return SolveOutcome(method, res.assignment, res.cost, res.tau,
                        peak_memory_proxy=res.messages_held,
                        skipped_taus=res.skipped_taus)
