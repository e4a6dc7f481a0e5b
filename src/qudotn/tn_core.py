"""Shared tensor-network core: node element rules, imaginary-time factors,
value extraction and overflow-safe normalization.

Every solver weights an assignment by exp(-tau * cost), determines one
variable at a time from the argmax of its marginal vector, and rescales
intermediate tensors by their maximum between contraction steps.  Rescaling
is safe because argmax and bit extraction are invariant under positive
scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFaultError
from .problem import Problem

@dataclass
class SolverConfig:
    """Knobs shared by all solvers.

    tau_grid, when set, is a geometric grid (min, max, count) swept by the
    best-of drivers.  restart_factor rescales tau for the subproblem left
    after a waterfall cascade; 1.0 disables restarts.  keep_trace makes the
    waterfall solver retain per-variable candidate vectors for inspection at
    the price of the method's memory advantage.
    """

    tau: float = 50.0
    tau_grid: tuple | None = None
    restart_factor: float = 1.0
    keep_trace: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.tau_grid is not None:
            lo, hi, count = self.tau_grid
            if not (0 < lo < hi and count >= 1):
                raise ValueError("tau_grid needs 0 < min < max and count >= 1")

    def taus(self) -> np.ndarray:
        """The tau values a solve covers: the grid when set, else tau alone."""
        if self.tau_grid is None:
            return np.array([float(self.tau)])
        return tau_grid_values(self.tau_grid)


def tau_grid_values(grid) -> np.ndarray:
    """Geometric tau grid for best-of sweeps."""
    lo, hi, count = grid
    if count == 1:
        return np.array([float(lo)])
    return np.geomspace(lo, hi, int(count))


@dataclass
class MarginalVector:
    """The d-entry vector whose argmax selects a variable's value."""

    entries: np.ndarray


def _entries(v) -> np.ndarray:
    if isinstance(v, MarginalVector):
        return np.asarray(v.entries, dtype=float)
    return np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# Imaginary-time factors


def self_cost(p: Problem, l: int, a: int) -> float:
    """Local cost of variable l at value a (self term plus linear term)."""
    if p.kind == "tqudo":
        return p.qhat.get((l, l, a, a), 0.0)
    return p.quad.get((l, l), 0.0) * a * a + p.lin.get(l, 0.0) * a


def cross_cost(p: Problem, l: int, m: int, a: int, b: int) -> float:
    """Interaction cost between variable l at value a and m at value b (l < m)."""
    if p.kind == "tqudo":
        return p.qhat.get((l, m, a, b), 0.0)
    return p.quad.get((l, m), 0.0) * (a * b)


def factor_self(p: Problem, l: int, a: int, tau: float) -> float:
    """exp(-tau * local cost); missing coefficients give factor 1."""
    return math.exp(-tau * self_cost(p, l, a))


def factor_cross(p: Problem, l: int, m: int, a: int, b: int, tau: float) -> float:
    """exp(-tau * interaction cost); missing coefficients give factor 1."""
    return math.exp(-tau * cross_cost(p, l, m, a, b))


# ---------------------------------------------------------------------------
# Node element rules (dense arrays; used for structure checks)


def superposition_node(d: int) -> np.ndarray:
    """All-ones vector: sums a variable over its full value range."""
    return np.ones(d)


def copy_node(d: int) -> np.ndarray:
    """3-index control tensor: forwards its input unchanged on both outputs."""
    node = np.zeros((d, d, d))
    for i in range(d):
        node[i, i, i] = 1.0
    return node


def self_interaction_node(p: Problem, l: int, tau: float) -> np.ndarray:
    """d x d tensor, nonzero only on the diagonal: the local weight of l."""
    node = np.zeros((p.d, p.d))
    for i in range(p.d):
        node[i, i] = factor_self(p, l, i, tau)
    return node


def cross_interaction_node(p: Problem, l: int, m: int, tau: float) -> np.ndarray:
    """4-index tensor: passes both values through and weights their interaction."""
    node = np.zeros((p.d, p.d, p.d, p.d))
    for i in range(p.d):
        for j in range(p.d):
            node[i, i, j, j] = factor_cross(p, l, m, i, j, tau)
    return node


def last_row_cross_node(p: Problem, m: int, tau: float) -> np.ndarray:
    """3-index variant for interactions with the final variable: no downward pass."""
    node = np.zeros((p.d, p.d, p.d))
    for i in range(p.d):
        for j in range(p.d):
            node[i, i, j] = factor_cross(p, m, p.n - 1, i, j, tau)
    return node


# ---------------------------------------------------------------------------
# Extraction


def argmax_extract(v):
    """Index of the maximum entry; ties resolve to the lowest index.

    A stack of vectors (leading axes, e.g. one per tau grid point) gives an
    integer array of their indices.
    """
    arr = _entries(v)
    if arr.size == 0:
        raise ValueError("empty marginal vector")
    if np.isnan(arr).any():
        raise NumericFaultError("NaN entry in marginal vector")
    if arr.ndim == 1:
        return int(np.argmax(arr))
    return np.argmax(arr, axis=-1)


def bit_extract(v, j: int) -> int:
    """Bit j of the selected value via the signed contraction and Heaviside.

    Contracts the marginal with the (-1, +1) sign vector of bit j and applies
    the step function, with H(0) = 0 matching the lowest-index tie-break.
    """
    arr = _entries(v)
    d = arr.size
    if d < 2:
        raise ValueError("bit extraction needs d >= 2")
    nbits = (d - 1).bit_length()
    if not 0 <= j < nbits:
        raise ValueError(f"bit position {j} out of range for d={d}")
    signs = np.array([1.0 if (a >> j) & 1 else -1.0 for a in range(d)])
    omega = float(signs @ arr)
    return 1 if omega > 0 else 0


def normalize(v, axis=None):
    """Divide by the maximum entry; extraction results are unchanged.

    With an axis, each slice along it is divided by its own maximum (a stack
    of messages, one per tau grid point).  Raises a numeric fault for an
    all-zero or non-finite slice, which is how solvers surface
    underflow/overflow instead of silently degrading.
    """
    arr = _entries(v)
    if arr.size == 0:
        raise NumericFaultError("non-finite entries during normalization")
    peak = arr.max(axis=axis, keepdims=True)
    if peak.size == 1:
        low = high = peak.item()
    else:
        low, high = peak.min().item(), peak.max().item()
    if not (0.0 < low and high < math.inf):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NumericFaultError("non-finite entries during normalization")
        raise NumericFaultError("underflow: all entries vanished during normalization")
    return arr / peak, True
