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

from dataclasses import dataclass

import numpy as np

from .chain_solver import (ChainFactors, GridFaults, MessageState,
                           _candidates_flat, _check_chain_capacity, _digits,
                           _transfer_flat, solve_grid)
from .problem import ChainProblem
from .tn_core import SolveOutcome, SolverConfig


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
    """Per-point outcome of one waterfall pass over a batch of grid points:
    assignments, cascade events, peak tables held, restarts and faults."""

    def __init__(self, G: int, n: int):
        self.x = np.zeros((G, n), dtype=np.intp)
        self.events = np.zeros(G, dtype=int)
        self.peak = np.zeros(G, dtype=int)
        self.restarts = np.zeros(G, dtype=int)
        self.faults = GridFaults(G)


def _waterfall_pass(chain: ChainProblem, cfg: SolverConfig, taus) -> _Pass:
    """Backward pass keeping only candidate tables, for the grid points taus.

    On a cascade at row m, a point resolves variables m..n-1 and releases its
    tables past row m+k; the tables for rows m..m+k-1 stay so cascade checks
    at earlier rows can still apply the restricted rule.  A table leaves
    memory once every point that has not faulted released it.  Row 0's
    table has a single entry, so every point still live there cascades and
    is resolved.

    With restart_factor != 1, a cascade at a row m > 0 restarts the point on
    the prefix 0..m-1: its tau is multiplied by the factor (once per
    cascade) for the rows below m, and its message B_m becomes the one-hot
    of its resolved values, which folds them into rows m-k..m-1 as fixed
    boundary values.  The prefix then solves as a chain of its own that
    ends at row m, within the same pass, so the point holds no table past m.
    """
    d, k, n = chain.d, chain.k, chain.n
    out = _Pass(len(taus), n)
    x, faults = out.x, out.faults
    fac = ChainFactors(chain, taus, faults)
    taus = np.array(taus, dtype=float)  # each point's tau, rescaled per restart
    resolved_from = np.full(len(taus), n)  # rows resolved_from.. of x are final
    reach = k if cfg.restart_factor == 1.0 else 0  # tables held past that suffix
    tables: dict = {}
    msg: MessageState | None = None  # becomes B_{m+1} at iteration m
    for m in range(n - 1, -1, -1):
        tables[m] = candidate_table(msg, chain, m, cfg, fac, faults=faults)
        live = ~faults.mask
        held = np.minimum(resolved_from + reach, n) - m  # rows m.. that a point holds
        np.maximum(out.peak, held, out=out.peak, where=live)
        # tables a restarted point released but others hold pass on its pinned values
        vals = check_cascade([tables[r] for r in range(m, m + k) if r in tables], d, k)
        fired = live & (vals[:, 0] >= 0)
        if fired.any():
            out.events += fired
            for r in range(m, resolved_from[fired].max()):
                off = r - m
                v = vals[:, off] if off < vals.shape[1] else _lookup(tables[r], x, r)
                x[:, r] = np.where(fired & (r < resolved_from), v, x[:, r])
            resolved_from[fired] = m
            release = (resolved_from[~faults.mask] + reach).max(initial=0)
            for r in [r for r in tables if r >= release]:
                del tables[r]
        if not live.any() or m == 0:
            break
        restart = fired & (cfg.restart_factor != 1.0)
        if msg is None or (live & ~restart).any():
            # a point fires only if row m's table had a finite shift for every
            # predecessor, so the transfer it discards has one too: no fault
            msg = _transfer_flat(msg, m, fac, chain, faults)
        else:  # every live point restarts and discards row m's transfer
            msg = MessageState(np.ones((len(taus), d ** min(k, n - m))), m, min(k, n - m), d)
        if restart.any():
            taus[restart] *= cfg.restart_factor
            faults.flag(restart & (taus == np.inf), "overflow: restart tau leaves float range")
            # a faulted point's rows take unit factors, as at tau = 0
            fac.rescale(chain, m, np.where(faults.mask, 0.0, taus), faults)
            restart &= ~faults.mask
            pinned = x[restart, m:m + msg.length] @ d ** np.arange(msg.length)
            msg.entries[restart] = np.arange(d ** msg.length) == pinned[:, None]
            out.restarts += restart
    return out


def solve_waterfall(chain: ChainProblem, cfg: SolverConfig) -> SolveOutcome:
    """Backward pass keeping only candidate tables; forward pass is lookup.

    With restart_factor != 1, each cascade at a row m > 0 re-solves the
    remaining prefix at the rescaled tau, with the resolved values as its
    boundary, in the same pass (see _waterfall_pass).  With cfg.tau_grid
    set, one pass serves the whole grid and the best point wins (see
    solve_grid); its stats are returned.  A batch holds as many points as
    their largest row tables fit under the chain cap.
    """
    def solve_batch(taus):
        out = _waterfall_pass(chain, cfg, taus)

        def finish(g, cost):
            events = int(out.events[g])
            stats = WaterfallStats(uniform_events=events, w_prob=events / chain.n,
                                   peak_tables_held=int(out.peak[g]),
                                   restarts=int(out.restarts[g]))
            return SolveOutcome(out.x[g].tolist(), cost, None, [], stats.peak_tables_held,
                                stats=stats)
        return out.x, out.faults.messages, finish

    return solve_grid(chain.problem, cfg, _check_chain_capacity(chain, table=True), solve_batch)
