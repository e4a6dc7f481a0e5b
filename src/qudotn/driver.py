"""Method dispatch and tau-grid best-of solving, shared by the CLI and the
benchmark harness."""
from __future__ import annotations

from .chain_solver import solve_matrix, solve_tensor
from .dense_solver import solve_dense
from .oracle import brute_force
from .problem import Problem, chain_view
from .tn_core import SolveOutcome, SolverConfig
from .waterfall import solve_waterfall

METHODS = ("dense", "matrix", "tensor", "waterfall", "brute")


def solve_instance(p: Problem, method: str, cfg: SolverConfig,
                   k: int | None = None) -> SolveOutcome:
    """Solve with one method; with a tau grid, keep the lowest-cost result.

    Every method but brute solves the whole grid in one pass (see
    chain_solver.solve_grid).  Grid points that fault numerically (extreme
    tau) are skipped and listed in the outcome; at least one point must
    succeed.  Ties keep the first (smallest) tau, so results are
    deterministic.  The solver's own record is returned.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "brute":
        res = brute_force(p)
        return SolveOutcome(res.best, res.best_cost, None, [], 0)
    if method == "dense":
        return solve_dense(p, cfg)
    chain = chain_view(p, k if k is not None else max(p.bandwidth, 1))
    if method == "waterfall":
        return solve_waterfall(chain, cfg)
    return (solve_matrix if method == "matrix" else solve_tensor)(chain, cfg)
