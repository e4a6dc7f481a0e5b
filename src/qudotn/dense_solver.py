"""Dense stair-network solver for general (all-pairs) coupling.

The network is contracted row by row from the bottom (last variable) upward;
each row is absorbed right to left, exploiting the structural nonzero
patterns of the nodes (diagonal value transmission).  Intermediate boundary
tensors from the first determination are kept and reused for the remaining
variables, so the whole solve costs a single full contraction.  The factor
tables are the chain solvers', for the chain view at k = n - 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_solver import ChainFactors, _normalize_msg
from .errors import CapacityError, env_cap
from .problem import Problem, chain_view, evaluate_cost
from .tn_core import MarginalVector, SolverConfig, argmax_extract
# unused here; still bound because the benchmark's layer probes rebind them
from .tn_core import cross_cost, normalize, self_cost  # noqa: F401

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


def _check_capacity(p: Problem):
    cap = env_cap("QUDOTN_DENSE_CAP", DEFAULT_DENSE_CAP)
    if p.d ** (p.n - 1) > cap:
        raise CapacityError(
            f"dense contraction needs d^(n-1) = {p.d ** (p.n - 1)} boundary "
            f"elements, above the cap of {cap}"
        )


def _factors(p: Problem, tau: float) -> ChainFactors:
    """Factor tables of all pairs: sv[m] is the local weight of variable m,
    cf[l, m-l-1] the interaction weight of the pair (l, m)."""
    return ChainFactors(chain_view(p, max(p.n - 1, 1)), tau)


# ---------------------------------------------------------------------------
# Contraction


def _absorb_row_sparse(bound: np.ndarray, m: int, base: int, fac: ChainFactors,
                       fixed) -> np.ndarray:
    """Absorb row m into the boundary over free variables (base..m).

    Fixed variables (index < base, values in fixed) enter by selecting the
    matching slice of their cross factor, per the value-transmission
    constraint; free ones broadcast their full factor.  The row's own index
    is then summed out and the result scaled to a largest entry of 1.
    """
    axes = m - base + 1  # boundary covers x_base .. x_m
    out = bound * fac.sv[m]
    for l in range(m):
        f = fac.cf[l, m - l - 1]
        if l < base:
            out = out * f[fixed[l], :]
        else:
            view = f.reshape((f.shape[0],) + (1,) * (m - l - 1) + (f.shape[1],))
            out = out * view
    return _normalize_msg(out.sum(axis=axes - 1), m, axis=None)


def _row_local_marginal(vec: np.ndarray, i: int, fac: ChainFactors,
                        fixed) -> np.ndarray:
    """Row i's own factors at the fixed prefix times vec, scaled to a
    largest entry of 1."""
    out = vec * fac.sv[i]
    for l in range(i):
        out = out * fac.cf[l, i - l - 1][fixed[l], :]
    return _normalize_msg(out, i)


def contract_marginal(net: StairNetwork, i: int, fixed) -> MarginalVector:
    """Marginal of variable i given fixed values for variables 0..i-1.

    Rows below i are absorbed bottom-to-top with normalization between
    absorptions; the remaining boundary is combined with row i's local
    factors.
    """
    p, cfg = net.problem, net.cfg
    _check_capacity(p)
    fixed_vals = {int(k): int(v) for k, v in dict(fixed or {}).items()}
    if sorted(fixed_vals) != list(range(i)):
        raise ValueError(f"fixed must cover exactly variables 0..{i - 1}")
    fac = _factors(p, cfg.tau)
    bound = np.ones((p.d,) * (p.n - i))  # boundary over x_i .. x_{n-1}
    for m in range(p.n - 1, i, -1):
        bound = _absorb_row_sparse(bound, m, i, fac, fixed_vals)
    vec = _row_local_marginal(bound.reshape(p.d), i, fac, fixed_vals)
    return MarginalVector(entries=vec)


@dataclass
class DenseSolveResult:
    assignment: list
    cost: float
    marginals: list = field(default_factory=list)


def solve_dense(p: Problem, cfg: SolverConfig) -> DenseSolveResult:
    """Iteratively determine every variable from its marginal argmax.

    One backward sweep stores the boundary tensor left after absorbing the
    rows above each position; each variable then needs only a slice of it at
    the fixed prefix and a d-vector of local factors.
    """
    _check_capacity(p)
    fac = _factors(p, cfg.tau)
    stored = {}
    bound = np.ones((p.d,) * p.n)
    for m in range(p.n - 1, 0, -1):
        bound = _absorb_row_sparse(bound, m, 0, fac, {})
        stored[m - 1] = bound  # boundary over x_0 .. x_{m-1}
    assignment = []
    marginals = []
    for i in range(p.n):
        vec = stored[i][tuple(assignment)] if i < p.n - 1 else np.ones(p.d)
        marg = MarginalVector(entries=_row_local_marginal(vec, i, fac, assignment))
        assignment.append(argmax_extract(marg))
        marginals.append(marg)
    return DenseSolveResult(assignment=assignment,
                            cost=evaluate_cost(p, assignment),
                            marginals=marginals)
