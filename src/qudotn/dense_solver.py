"""Dense stair-network solver for general (all-pairs) coupling.

The network is contracted row by row from the bottom (last variable) upward;
each row is absorbed right to left, exploiting the structural nonzero
patterns of the nodes (diagonal value transmission).  Intermediate boundary
tensors from the first determination are kept and reused for the remaining
variables, so the whole solve costs a single full contraction.  The cost
exponents are the chain solvers', for the chain view at k = n - 1, with their
leading tau-grid axis: every boundary carries it too, so one contraction
serves a batch of grid points, and the best point is kept by the chain
solvers' solve_grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_solver import (ChainFactors, GridFaults, _chain_finish,
                           _stable_weights, solve_grid)
from .errors import CapacityError, env_cap
from .problem import Problem, chain_view
from .tn_core import MarginalVector, SolveOutcome, SolverConfig, argmax_extract, normalize
# unused here; still bound because the benchmark's layer probes rebind them
from .problem import evaluate_cost  # noqa: F401
from .tn_core import cross_cost, self_cost  # noqa: F401

DEFAULT_DENSE_CAP = 32768  # max boundary-tensor elements, d**(n-1)


# ---------------------------------------------------------------------------
# Network description


@dataclass(frozen=True)
class StairNode:
    kind: str  # plus | plus_trace | self | cross | cross_last | copy
    l: int = -1
    m: int = -1


@dataclass
class StairRow:
    var: int
    nodes: list


@dataclass
class StairNetwork:
    problem: Problem
    cfg: SolverConfig
    rows: list
    band_k: int

    def node_multiset(self):
        out = {}
        for row in self.rows:
            for node in row.nodes:
                out[node] = out.get(node, 0) + 1
        return out


def _stair_rows(n: int, band_k: int) -> list:
    """Row layout shared by the dense and banded stair networks.

    A cross node for the pair (i, j) sits in row i; pairs whose upper variable
    is the final one use the 3-index last-row variant.  Copy nodes replicate a
    variable's value down its column, one fewer than the crosses that read it.
    """
    rows = []
    readers = {j: 0 for j in range(n)}
    for i in range(n):
        nodes = [StairNode("plus", l=i), StairNode("self", l=i, m=i)]
        for j in range(i + 1, min(i + band_k, n - 1) + 1):
            kind = "cross_last" if j == n - 1 else "cross"
            nodes.append(StairNode(kind, l=i, m=j))
            readers[j] += 1
        nodes.append(StairNode("plus_trace", l=i))
        rows.append(StairRow(var=i, nodes=nodes))
    for j, count in readers.items():
        for _ in range(max(0, count - 1)):
            rows[j].nodes.append(StairNode("copy", m=j))
    return rows


def build_stair(p: Problem, cfg: SolverConfig) -> StairNetwork:
    """Full stair network; its contraction with row i left open is the
    marginal of variable i up to a dropped positive scale."""
    _check_capacity(p)
    return StairNetwork(problem=p, cfg=cfg, rows=_stair_rows(p.n, p.n - 1),
                        band_k=p.n - 1)


def _check_capacity(p: Problem) -> int:
    """Grid points per batch: as many as fit under the cap, each point
    counted at the larger of its boundary, d**(n-1), and its factor tables,
    n*(n-1)*d**2 (at least one point).  Raises when one point's boundary
    exceeds the cap."""
    cap = env_cap("QUDOTN_DENSE_CAP", DEFAULT_DENSE_CAP)
    size = p.d ** (p.n - 1)
    if size > cap:
        raise CapacityError(
            f"dense contraction needs d^(n-1) = {size} boundary "
            f"elements, above the cap of {cap}"
        )
    return max(1, cap // max(size, p.n * (p.n - 1) * p.d ** 2))


# ---------------------------------------------------------------------------
# Contraction


def _prefix_rows(fac: ChainFactors, m: int, x: np.ndarray) -> np.ndarray:
    """(G, d): the summed exponents cc[g, l, m-l-1, x[g, l]] that point g's
    fixed variables l, the L columns of x, put on the values of variable m."""
    ls = np.arange(x.shape[1])
    return fac.cc[(*fac.points, ls, m - ls - 1, x)].sum(axis=1)


def _absorb_row_sparse(bound: np.ndarray, m: int, base: int, fac: ChainFactors,
                       x: np.ndarray, faults: GridFaults | None = None) -> np.ndarray:
    """Absorb row m into the boundary over free variables (base..m).

    bound and every table carry the grid axis in front.  The row's exponent
    sums sc[g, m], the local cost exponent of variable m, and cc[g, l,
    m-l-1], that of the pair (l, m): fixed variables (index < base, point
    g's values in x[g]) enter by the slice at their value, per the
    value-transmission constraint; free ones broadcast their full slab.  It
    is exponentiated once, as the chain kernels do (_stable_weights), the
    row's own index summed out and each point's result scaled to a largest
    entry of 1.
    """
    G, d = fac.sc.shape[0], fac.sc.shape[-1]
    last = (G,) + (1,) * (m - base) + (d,)  # broadcasts onto the axis of x_m
    expo = fac.sc[:, m]
    if base:
        expo = expo + _prefix_rows(fac, m, x[:, :base])
    expo = expo.reshape(last)
    for l in range(base, m):
        f = fac.cc[:, l, m - l - 1]
        expo = expo + f.reshape((G,) + (1,) * (l - base) + (d,) + (1,) * (m - l - 1) + (d,))
    axes = tuple(range(1, bound.ndim))
    out = _stable_weights(expo, bound, axes, faults).sum(axis=-1)
    return normalize(out, axis=axes[:-1])[0]


def _row_local_marginal(vec: np.ndarray, i: int, fac: ChainFactors,
                        x: np.ndarray, faults: GridFaults | None = None) -> np.ndarray:
    """Row i's own exponents at each point's fixed prefix x[:, :i], weighted
    onto vec, scaled to a largest entry of 1."""
    expo = fac.sc[:, i] + _prefix_rows(fac, i, x[:, :i])
    return normalize(_stable_weights(expo, vec, -1, faults), axis=-1)[0]


def contract_marginal(net: StairNetwork, i: int, fixed) -> MarginalVector:
    """Marginal of variable i given fixed values for variables 0..i-1.

    Rows below i are absorbed bottom-to-top with normalization between
    absorptions; the remaining boundary is combined with row i's local
    factors.  This is solve_dense's kernel on a one-point grid; a numeric
    fault is raised.
    """
    p, cfg = net.problem, net.cfg
    _check_capacity(p)
    fixed_vals = {int(k): int(v) for k, v in dict(fixed or {}).items()}
    if sorted(fixed_vals) != list(range(i)):
        raise ValueError(f"fixed must cover exactly variables 0..{i - 1}")
    x = np.array([fixed_vals[l] for l in range(i)], dtype=np.intp).reshape(1, i)
    fac = ChainFactors(chain_view(p, max(p.n - 1, 1)), np.array([cfg.tau]))
    bound = np.ones((1,) + (p.d,) * (p.n - i))  # boundary over x_i .. x_{n-1}
    for m in range(p.n - 1, i, -1):
        bound = _absorb_row_sparse(bound, m, i, fac, x)
    vec = _row_local_marginal(bound.reshape(1, p.d), i, fac, x)
    return MarginalVector(entries=vec[0])


def solve_dense(p: Problem, cfg: SolverConfig) -> SolveOutcome:
    """Iteratively determine every variable from its marginal argmax.

    One backward sweep stores the boundary tensor left after absorbing the
    rows above each position; each variable then needs only a slice of it at
    the fixed prefix and a d-vector of local factors.  With cfg.tau_grid set,
    one sweep serves a batch of grid points and the best point wins (see
    solve_grid); a batch holds at most QUDOTN_DENSE_CAP // d**(n-1) points,
    fewer where the factor tables outgrow the boundary (_check_capacity).
    """
    size = _check_capacity(p)
    chain = chain_view(p, max(p.n - 1, 1))

    def solve_batch(taus):
        faults = GridFaults(len(taus))
        fac = ChainFactors(chain, taus, faults)
        stored = {}
        bound = np.ones((len(taus),) + (p.d,) * p.n)
        for m in range(p.n - 1, 0, -1):
            bound = _absorb_row_sparse(bound, m, 0, fac, None, faults)
            stored[m - 1] = bound  # boundary over x_0 .. x_{m-1}
        x = np.zeros((len(taus), p.n), dtype=np.intp)
        points = np.arange(len(taus))
        margs = []
        for i in range(p.n):
            if i < p.n - 1:
                vec = stored[i][(points, *x[:, :i].T)]
            else:
                vec = np.ones((len(taus), p.d))
            vec = _row_local_marginal(vec, i, fac, x, faults)
            margs.append(vec)
            x[:, i] = argmax_extract(vec)
        return x, faults.messages, _chain_finish(x, margs, p.n - 1)

    return solve_grid(p, cfg, size, solve_batch)
