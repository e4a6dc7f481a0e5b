"""Brute-force ground truth: exhaustive optimum search and direct marginal
summation by enumeration.  Deliberately free of any tensor-network machinery
so it can validate the solvers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericFaultError, env_cap
from .problem import Problem

DEFAULT_STATE_CAP = 2_000_000


@dataclass
class OracleResult:
    best: list
    best_cost: float
    optima_count: int


def _all_assignments(n: int, d: int) -> np.ndarray:
    """All d**n assignments in lexicographic order, one row each."""
    states = d ** n
    cols = []
    for i in range(n):
        reps = d ** (n - 1 - i)
        col = np.repeat(np.tile(np.arange(d), d ** i), reps)
        cols.append(col)
    out = np.empty((states, n), dtype=np.int64)
    for i, col in enumerate(cols):
        out[:, i] = col
    return out


def _costs(p: Problem, xs: np.ndarray) -> np.ndarray:
    """Vectorized costs, accumulating terms in the same sorted order as
    evaluate_cost so the two paths agree bit-for-bit."""
    total = np.zeros(xs.shape[0])
    if p.kind == "tqudo":
        for (i, j, a, b) in sorted(p.qhat):
            mask = (xs[:, i] == a) & (xs[:, j] == b)
            total[mask] += p.qhat[(i, j, a, b)]
        return total
    for (i, j) in sorted(p.quad):
        total += p.quad[(i, j)] * (xs[:, i] * xs[:, j]).astype(float)
    for i in sorted(p.lin):
        total += p.lin[i] * xs[:, i].astype(float)
    return total


def brute_force(p: Problem, cap: int | None = None) -> OracleResult:
    """Exhaustive optimum over all d**n assignments.

    Ties keep the lexicographically smallest assignment; enumeration order
    makes that the first argmin.
    """
    cap = env_cap("QUDOTN_BRUTE_CAP", DEFAULT_STATE_CAP) if cap is None else cap
    states = p.d ** p.n
    if states > cap:
        raise CapacityError(f"{states} states exceed brute-force cap {cap}")
    xs = _all_assignments(p.n, p.d)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = _costs(p, xs)
    idx = int(np.argmin(costs))  # the first nan, if any
    best_cost = float(costs[idx])
    if not math.isfinite(best_cost):
        raise NumericFaultError("overflow: cost sums leave float range")
    return OracleResult(
        best=[int(v) for v in xs[idx]],
        best_cost=best_cost,
        optima_count=int(np.count_nonzero(costs == best_cost)),
    )


def direct_marginal(p: Problem, i: int, fixed, tau: float,
                    cap: int | None = None) -> np.ndarray:
    """Unnormalized marginal of variable i by direct summation.

    Entry j is the sum of exp(-tau * cost) over every completion consistent
    with the fixed values that has x_i = j.  Each bucket is summed with
    compensated summation (math.fsum) to keep tight tolerances honest.
    """
    cap = env_cap("QUDOTN_BRUTE_CAP", DEFAULT_STATE_CAP) if cap is None else cap
    fixed = dict(fixed or {})
    if not 0 <= i < p.n:
        raise ValueError(f"variable index {i} out of range")
    if i in fixed:
        raise ValueError(f"target variable {i} must not be fixed")
    free = [v for v in range(p.n) if v not in fixed]
    states = p.d ** len(free)
    if states > cap:
        raise CapacityError(f"{states} states exceed enumeration cap {cap}")
    grid = _all_assignments(len(free), p.d)
    xs = np.empty((states, p.n), dtype=np.int64)
    for var, val in fixed.items():
        xs[:, var] = int(val)
    for col, var in enumerate(free):
        xs[:, var] = grid[:, col]
    weights = np.exp(-tau * _costs(p, xs))
    out = np.empty(p.d)
    for j in range(p.d):
        out[j] = math.fsum(weights[xs[:, i] == j])
    return out
