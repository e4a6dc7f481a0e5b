"""Waterfall variant of the matrix method.

Instead of retaining every backward message, each row stores only a table of
best values, one entry per possible combination of its k predecessors.  A
table that is constant (in the restricted sense for k > 1) proves its
variable independent of everything before it; that resolves the variable and,
in cascade, every variable after it, at which point the stored tables can be
released.  With restarts disabled the resulting assignment is identical to
solve_matrix by construction, since each table row is the same conditional
marginal the matrix method computes for the realized prefix.

Like solve_matrix, one pass serves a whole tau grid: tables, cascade tests,
resolved values and table release are kept per grid point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_solver import (ChainFactors, GridFaults, MessageState,
                           _candidates_flat, _check_chain_capacity, _digits,
                           _transfer_flat, solve_grid)
from .errors import NumericFaultError
from .problem import ChainProblem
from .tn_core import SolverConfig


@dataclass
class WaterfallTable:
    """Best value of variable row per predecessor combination.

    entries[t] is the argmax value when the predecessors (x_{row-1},
    x_{row-2}, ...) take the combination encoded little-endian in t, nearest
    predecessor in the lowest digit.  In a grid solve entries has a leading
    axis with one table per grid point.
    """

    row: int
    entries: np.ndarray  # (d**npred,) ints
    npred: int
    d: int


@dataclass
class WaterfallStats:
    uniform_events: int = 0
    w_prob: float = 0.0
    peak_tables_held: int = 0
    restarts: int = 0


@dataclass
class WaterfallResult:
    assignment: list
    cost: float
    stats: WaterfallStats = field(default_factory=WaterfallStats)
    tau: float | None = None
    skipped_taus: list = field(default_factory=list)


def candidate_table(message: MessageState | None, chain: ChainProblem, m: int,
                    cfg: SolverConfig, fac: ChainFactors | None = None,
                    faults: GridFaults | None = None) -> WaterfallTable:
    """Table of best values for row m over every predecessor combination.

    message is the backward message summarizing everything after variable m
    (None for the last row).  The candidate vectors themselves are transient.
    """
    fac = fac or ChainFactors(chain, cfg.tau)
    d = chain.d
    K = min(chain.k, m)
    cand = _candidates_flat(chain, fac, m, message, _digits(d, K), faults)
    return WaterfallTable(row=m, entries=np.argmax(cand, axis=-1), npred=K, d=d)


def check_cascade(tables, d: int, k: int):
    """Cascade test over consecutive tables starting at some row m.

    The first table must be globally constant; each following one only needs
    to be constant on the combinations consistent with the values already
    pinned, which is the restricted-constancy rule for k > 1.  Returns the
    pinned values, or None when the cascade does not fire.  Tables of a grid
    solve give a (G, len(tables)) array instead, with -1 on the points where
    the cascade does not fire.
    """
    first = tables[0].entries
    fired = (first == first[..., :1]).all(axis=-1)
    vals = np.empty(first.shape[:-1] + (len(tables),), dtype=first.dtype)
    vals[..., 0] = first[..., 0]
    for r, tab in enumerate(tables[1:], start=1):
        if not fired.any():
            break
        pinned = min(r, tab.npred)
        # the consistent combinations are those whose low digits hold the
        # pinned predecessors; t0 is the first of them
        t0 = sum(vals[..., r - 1 - j] * d ** j for j in range(pinned))
        entry = np.take_along_axis(tab.entries, t0[..., None], axis=-1)
        consistent = np.arange(d ** tab.npred) % d ** pinned == t0[..., None]
        fired &= ((tab.entries == entry) | ~consistent).all(axis=-1)
        vals[..., r] = entry[..., 0]
    if vals.ndim > 1:
        vals[~fired] = -1
        return vals
    return vals.tolist() if fired else None


def _lookup(table: WaterfallTable, x: np.ndarray, m: int) -> np.ndarray:
    """Each grid point's table entry at its own predecessor values."""
    t = sum(x[:, m - 1 - j] * table.d ** j for j in range(table.npred))
    return table.entries[np.arange(len(x)), t]


class _Pass:
    """Per-point outcome of one waterfall pass over a batch of grid points.

    restart_at > 0 marks a point whose prefix 0..restart_at-1 is still to be
    re-solved; the rest of its row of x is final.
    """

    def __init__(self, G: int, n: int):
        self.x = np.zeros((G, n), dtype=np.intp)
        self.events = np.zeros(G, dtype=int)
        self.peak = np.zeros(G, dtype=int)
        self.restart_at = np.zeros(G, dtype=int)
        self.faults = GridFaults(G)


def _waterfall_pass(chain: ChainProblem, cfg: SolverConfig, taus) -> _Pass:
    """Backward pass keeping only candidate tables, for the grid points taus.

    On a cascade at row m, a point resolves variables m..n-1 and releases its
    tables past row m+k; the tables for rows m..m+k-1 stay so cascade checks
    at earlier rows can still apply the restricted rule.  A table leaves
    memory once every point that has not faulted released it.  With
    restart_factor != 1, a point's first cascade at a row m > 0 takes it out
    of the batch to have its prefix re-solved.  Row 0's table has a single
    entry, so every point still live there cascades and is resolved.
    """
    d, k, n = chain.d, chain.k, chain.n
    out = _Pass(len(taus), n)
    x, faults = out.x, out.faults
    fac = ChainFactors(chain, taus, faults)
    resolved_from = np.full(len(taus), n)  # rows resolved_from.. of x are final
    live = np.ones(len(taus), dtype=bool)  # neither faulted nor out for a restart
    tables: dict = {}
    msg: MessageState | None = None  # becomes B_{m+1} at iteration m
    for m in range(n - 1, -1, -1):
        tables[m] = candidate_table(msg, chain, m, cfg, fac, faults=faults)
        live &= ~faults.mask
        # a point holds rows m.. up to k past its resolved suffix
        held = np.minimum(resolved_from + k, n) - m
        np.maximum(out.peak, held, out=out.peak, where=live)
        vals = check_cascade([tables[r] for r in range(m, min(m + k, n))], d, k)
        fired = live & (vals[:, 0] >= 0)
        if fired.any():
            out.events += fired
            for r in range(m, resolved_from[fired].max()):
                off = r - m
                v = vals[:, off] if off < vals.shape[1] else _lookup(tables[r], x, r)
                x[:, r] = np.where(fired & (r < resolved_from), v, x[:, r])
            resolved_from[fired] = m
            release = (resolved_from[~faults.mask] + k).max(initial=0)
            for r in [r for r in tables if r >= release]:
                del tables[r]
            if cfg.restart_factor != 1.0 and m > 0:
                out.restart_at[fired] = m
                faults.frozen |= fired
                live &= ~fired
        if not live.any():
            break
        if m > 0:
            msg = _transfer_flat(msg, m, fac, chain, faults)
    return out


def _fold_prefix(chain: ChainProblem, x: np.ndarray, m: int) -> ChainProblem:
    """Variables 0..m-1 with the resolved values x[m:] folded into the local
    costs of the variables that interact with them."""
    k = chain.k
    diag = chain.diag_cost[:m].copy()
    cross = chain.cross_cost[:m].copy()
    for l in range(max(0, m - k), m):
        for j in range(1, k + 1):
            tgt = l + j
            if m <= tgt <= chain.n - 1:
                diag[l] += chain.cross_cost[l, j - 1][:, x[tgt]]
                cross[l, j - 1] = 0.0
    return ChainProblem(problem=None, k=k, n=m, d=chain.d,
                        diag_cost=diag, cross_cost=cross)


def _restart(chain: ChainProblem, cfg: SolverConfig, out: _Pass, g: int, tau: float):
    """Re-solve the prefix of grid point g until no cascade asks for another
    restart.  Each round solves variables 0..m-1, with the boundary folded in,
    as a one-point pass at tau times the restart factor, and fills x[:m].
    Returns the number of rounds.  The factor compounds per round: a tau
    that reaches inf is a numeric fault, one that reaches 0 solves on."""
    x = out.x[g]
    m = int(out.restart_at[g])
    rounds = 0
    while m > 0:
        chain = _fold_prefix(chain, x, m)
        tau = tau * cfg.restart_factor
        if tau == np.inf:
            raise NumericFaultError("overflow: restart tau leaves float range")
        sub = _waterfall_pass(chain, cfg, np.array([tau]))
        if sub.faults.messages[0] is not None:
            raise NumericFaultError(sub.faults.messages[0])
        x[:m] = sub.x[0]
        out.events[g] += sub.events[0]
        out.peak[g] = max(out.peak[g], sub.peak[0])
        rounds += 1
        m = int(sub.restart_at[0])
    return rounds


def solve_waterfall(chain: ChainProblem, cfg: SolverConfig) -> WaterfallResult:
    """Backward pass keeping only candidate tables; forward pass is lookup.

    With restart_factor != 1, a cascade also re-solves the remaining prefix
    as a smaller subproblem under the rescaled tau, absorbing the known
    boundary values into the local costs, and again after each cascade of
    that subproblem.  With cfg.tau_grid set, one pass serves the whole grid
    and the best point wins (see solve_grid); its stats are returned.
    """
    def solve_batch(taus):
        out = _waterfall_pass(chain, cfg, taus)
        restarts = np.zeros(len(taus), dtype=int)
        for g in np.flatnonzero(out.restart_at):
            try:
                restarts[g] = _restart(chain, cfg, out, g, taus[g])
            except NumericFaultError as exc:
                out.faults.messages[g] = str(exc)

        def finish(g, cost):
            x = out.x[g].tolist()
            events = int(out.events[g])
            stats = WaterfallStats(uniform_events=events, w_prob=events / chain.n,
                                   peak_tables_held=int(out.peak[g]),
                                   restarts=int(restarts[g]))
            return WaterfallResult(assignment=x, cost=cost, stats=stats)
        return out.x, out.faults.messages, finish

    return solve_grid(chain.problem, cfg, _check_chain_capacity(chain), solve_batch)
