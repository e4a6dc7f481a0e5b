"""k-neighbor linear-chain solvers.

Two routes contract the same banded stair network:

* the matrix method works on flat message vectors over the d**k states of the
  next k undetermined variables, applying the sparse transfer rule through
  integer digit arithmetic (state t = sum_j d**j * value_j);
* the tensor method works on shaped boundary tensors with one axis per open
  variable, absorbing the row nodes one by one.

Backward messages run from the last variable toward the first; variables are
then determined first-to-last.  Both routes share the factor tables and the
lowest-index tie-break, so they must return identical assignments.

The flat route solves a whole tau grid in one pass: factor tables built from
an array of G tau values carry a leading grid axis, and every kernel below
then advances all G points with one numpy call per row.  A single tau is the
G = 1 case.  Each point's arithmetic is the same as in a solve of that point
alone, so its result is too.  A scalar tau gives the tables without the grid
axis, as the tensor route and the per-row helpers use them.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, NumericFaultError
from .problem import ChainProblem, chain_cost, evaluate_cost
from .tn_core import (MarginalVector, SolverConfig, argmax_extract, normalize,
                      pick_best)

DEFAULT_CHAIN_CAP = 1 << 20  # max d**k message entries


def chain_cap() -> int:
    return int(os.environ.get("QUDOTN_CHAIN_CAP", DEFAULT_CHAIN_CAP))


def result_cost(chain: ChainProblem, assignment) -> float:
    if chain.problem is not None:
        return evaluate_cost(chain.problem, assignment)
    return chain_cost(chain, assignment)


class ChainFactors:
    """exp(-tau * cost) tables for one chain at one tau or a grid of taus.

    Each factor is rescaled by its own maximum so that extreme tau values
    stay inside float range; messages are scale-free anyway.
    sv[m, z] is the local weight of variable m, cf[m, j-1, a, b] the
    interaction weight between variable m at a and variable m+j at b;
    sc and cc hold the corresponding shifted cost exponents, so that
    multi-factor products can be summed in exponent space and
    exponentiated once instead of multiplied into the underflow region.
    An array of G taus gives every table a leading axis of length G.
    """

    def __init__(self, chain: ChainProblem, tau):
        self.taus = np.asarray(tau, dtype=float)
        # tau > 0 and rounding is monotone, so tau * min(cost) is exactly
        # the minimum of the scaled costs: the reductions run once per chain
        # instead of once per grid point
        t = self.taus[..., None, None]
        self.sc = t * chain.diag_cost
        self.sc -= t * chain.diag_cost.min(axis=-1, keepdims=True)
        self.sv = np.exp(-self.sc)
        t = t[..., None, None]
        self.cc = t * chain.cross_cost
        self.cc -= t * chain.cross_cost.min(axis=(-2, -1), keepdims=True)
        # leading index that pairs each grid point with its own table rows
        # when rows are picked per point by fancy indexing
        self.points = (np.arange(self.taus.size)[:, None],) if self.taus.ndim else ()

    @cached_property
    def cf(self) -> np.ndarray:
        return np.exp(-self.cc)


class GridFaults:
    """The first numeric fault of each point of a batched solve.

    A kernel that meets a fault on some points records it here and gives
    those points ones in place of their values, so the other points go on.
    Points in ``frozen`` have left the batch (a pending restart) and record
    nothing more.
    """

    def __init__(self, size: int):
        self.messages: list = [None] * size
        self.mask = np.zeros(size, dtype=bool)
        self.frozen = np.zeros(size, dtype=bool)

    def record(self, g: int, message: str):
        if self.messages[g] is None and not self.frozen[g]:
            self.messages[g] = message
            self.mask[g] = True

    def flag(self, bad: np.ndarray, message: str) -> np.ndarray:
        """Record message for the points with any True in bad (leading axis
        = grid point); returns the per-point mask."""
        points = bad.reshape(len(self.messages), -1).any(axis=1)
        for g in np.flatnonzero(points):
            self.record(g, message)
        return points


def _stable_weights(exponent: np.ndarray, values: np.ndarray,
                    axis=None, faults: GridFaults | None = None) -> np.ndarray:
    """exp(-exponent) * values with the exponent shifted by its minimum over
    the states that still carry weight.

    values are nonnegative message entries (zeros allowed).  The shift is a
    positive rescale, which every caller discards through normalization or
    argmax, and it guarantees that the term at the shift point survives in
    float range, so products of many small factors cannot silently vanish.
    Faults when no weighted state exists at all.
    """
    positive = (values > 0).all()
    masked = exponent if positive else np.where(values > 0, exponent, np.inf)
    shift = masked.min(axis=axis, keepdims=axis is not None)
    bad = None
    if not np.isfinite(shift).all():
        message = "underflow: all weighted states vanished during contraction"
        if faults is None:
            raise NumericFaultError(message)
        bad = faults.flag(~np.isfinite(shift), message)
        shift = np.where(np.isfinite(shift), shift, 0.0)
    w = shift - exponent  # exactly -(exponent - shift)
    if not positive:
        # exponent < shift only where values == 0; clamping avoids a spurious
        # overflow there without changing any surviving term
        np.minimum(w, 0.0, out=w)
    np.exp(w, out=w)
    w *= values
    if bad is not None:
        w[bad] = 1.0
    return w


@lru_cache(maxsize=64)
def _digits(d: int, length: int) -> tuple:
    """digit j (value of the j-th state variable) for every flat state index.

    Every row of every solve asks for the same few tables, so they are made
    once, read-only."""
    idx = np.arange(d ** length)
    digits = tuple((idx // d ** j) % d for j in range(length))
    for digit in digits:
        digit.flags.writeable = False
    return digits


@dataclass
class MessageState:
    """Backward message over the d**L states of variables origin..origin+L-1,
    flat little-endian (digit j holds the value of variable origin + j).
    entries carries the factors' grid axis in front, if they have one."""

    entries: np.ndarray
    origin: int
    length: int
    d: int


def _check_chain_capacity(chain: ChainProblem):
    if chain.d ** chain.k > chain_cap():
        raise CapacityError(
            f"message size d^k = {chain.d ** chain.k} exceeds chain cap {chain_cap()}"
        )


def _transfer_flat(msg: MessageState, m: int, fac: ChainFactors,
                   chain: ChainProblem, do_norm: bool,
                   faults: GridFaults | None = None) -> MessageState:
    """One sparse transfer step: message with origin m+1 -> origin m.

    Each new state prepends a value z for variable m; the weight multiplies
    the local factor of m and its crosses into the state variables.  When the
    state is already k long, the oldest variable m+k is summed out; that sum
    plus the d**k target states is the d**(k+1)-operation sparse rule.
    """
    d, k, n = chain.d, chain.k, chain.n
    L = msg.length
    digs = _digits(d, L)
    expo = fac.sc[..., m, :, None]  # (d, 1), broadcast over the states
    for j in range(1, L + 1):
        expo = expo + fac.cc[..., m, j - 1, :, :][..., digs[j - 1]]
    w = _stable_weights(expo, msg.entries[..., None, :], (-2, -1), faults)
    if L == k and m + k <= n - 1:
        # drop variable m+k: most-significant digit of the old state
        w = w.reshape(w.shape[:-1] + (d, d ** (k - 1))).sum(axis=-2)
        new_len = k
    else:
        new_len = L + 1
    new = np.swapaxes(w, -1, -2).reshape(w.shape[:-2] + (-1,))
    if do_norm:
        new = _normalize_msg(new, m, faults)
    return MessageState(entries=new, origin=m, length=new_len, d=d)


def _normalize_msg(arr: np.ndarray, row: int, faults: GridFaults | None = None,
                   axis=-1) -> np.ndarray:
    try:
        return normalize(arr, axis=axis)[0]
    except NumericFaultError as exc:
        if faults is None:
            raise NumericFaultError(f"row {row}: {exc}") from exc
    arr = arr.copy()
    for g, vec in enumerate(arr):
        try:
            normalize(vec)
        except NumericFaultError as exc:
            faults.record(g, f"row {row}: {exc}")
            arr[g] = 1.0
    return normalize(arr, axis=axis)[0]


def _argmax(vec: np.ndarray, faults: GridFaults | None = None):
    try:
        return argmax_extract(vec)
    except NumericFaultError as exc:
        if faults is None:
            raise
        bad = faults.flag(np.isnan(vec), str(exc))
        return argmax_extract(np.where(bad[:, None], 1.0, vec))


def backward_pass_matrix(chain: ChainProblem, cfg: SolverConfig,
                         fac: ChainFactors | None = None,
                         faults: GridFaults | None = None,
                         dense_operator: bool = False) -> list:
    """Messages B_{n-1}, ..., B_1, all retained for reuse.

    B_m sums, over every variable past the state window, the product of all
    factors whose lowest variable is >= m.  dense_operator applies the
    materialized transfer matrix on interior rows instead of the sparse rule.
    """
    _check_chain_capacity(chain)
    fac = fac or ChainFactors(chain, cfg.tau)
    d, k, n = chain.d, chain.k, chain.n
    msg = MessageState(entries=fac.sv[..., n - 1, :].copy(), origin=n - 1,
                       length=1, d=d)
    if cfg.normalize:
        msg.entries = _normalize_msg(msg.entries, n - 1, faults)
    out = [msg]
    for m in range(n - 2, 0, -1):
        if dense_operator and msg.length == k and m + k <= n - 1:
            taus = fac.taus.reshape(-1)
            rows = msg.entries.reshape(len(taus), -1)
            new = np.stack([transfer_operator_dense(chain, m, tau) @ row
                            for tau, row in zip(taus, rows)]).reshape(msg.entries.shape)
            if cfg.normalize:
                new = _normalize_msg(new, m, faults)
            msg = MessageState(entries=new, origin=m, length=k, d=d)
        else:
            msg = _transfer_flat(msg, m, fac, chain, cfg.normalize, faults)
        out.append(msg)
    return out


def transfer_operator_dense(chain: ChainProblem, m: int, tau: float) -> np.ndarray:
    """Dense d**k x d**k transfer matrix for an interior row m.

    Row index encodes (z, a_1..a_{k-1}), column index (a_1..a_k); an entry is
    nonzero only when the shared k-1 values agree, giving exactly d**(k+1)
    structural nonzeros.  Used for sparsity checks and the dense benchmark
    mode.
    """
    d, k, n = chain.d, chain.k, chain.n
    if not (1 <= m and m + k <= n - 1):
        raise ValueError("dense transfer operator is defined for interior rows")
    fac = ChainFactors(chain, tau)
    size = d ** k
    op = np.zeros((size, size))
    digs = _digits(d, k)
    for s in range(size):
        z = s % d
        shared = s // d  # (a_1..a_{k-1})
        for ak in range(d):
            sp = shared + ak * d ** (k - 1)
            wgt = fac.sv[m][z]
            for j in range(1, k + 1):
                wgt *= fac.cf[m, j - 1][z, digs[j - 1][sp]]
            op[s, sp] = wgt
    return op


def _candidates_flat(chain: ChainProblem, fac: ChainFactors, m: int,
                     msg: MessageState | None, tdig: list,
                     faults: GridFaults | None = None) -> np.ndarray:
    """Marginal-style candidate vectors for variable m, one row per
    predecessor combination: (T, d), after the factors' grid axis if any.

    tdig[j] holds, per combination, the value of predecessor m-1-j: a (T,)
    array shared by every grid point, or (G, T) with a row per point.  The
    computation contracts the next backward message with variable m's local
    factors, the fixed crosses into m, and the fixed crosses that skip over m
    into later state variables (those exist only for k > 1).
    """
    d, k = chain.d, chain.k
    K = len(tdig)
    T = tdig[0].shape[-1] if K else 1
    if msg is None:
        L = 0
        entries = np.ones(1)
        digs = []
    else:
        L = msg.length
        entries = msg.entries
        digs = _digits(d, L)
    states = d ** L
    # total shifted cost exponent, one slab per predecessor combination
    expo = np.zeros(fac.sc.shape[:-2] + (T, d, states))
    expo += fac.sc[..., m, None, :, None]
    for j in range(1, L + 1):
        expo += fac.cc[..., m, j - 1, :, :][..., None, :, digs[j - 1]]
    for i in range(1, L + 1):  # state variable m+i
        for j in range(i + 1, k + 1):
            l = m + i - j
            if 0 <= l <= m - 1:
                rows = fac.cc[(*fac.points, l, j - 1, tdig[j - i - 1])]
                expo += rows[..., :, None, digs[i - 1]]
    for j in range(1, K + 1):
        expo += fac.cc[(*fac.points, m - j, j - 1, tdig[j - 1])][..., None]
    # stabilize per predecessor combination: each row is only ever used for
    # an argmax or a normalized marginal, so a per-row positive rescale is
    # exact
    w = _stable_weights(expo, entries[..., None, None, :], (-2, -1), faults)
    return w.sum(axis=-1)


def marginal_matrix(chain: ChainProblem, fac: ChainFactors, m: int,
                    msg: MessageState | None, prefix,
                    faults: GridFaults | None = None) -> np.ndarray:
    """Conditional marginal of variable m given the solved prefix (flat route).

    With grid factors, prefix holds one row of values per grid point."""
    prefix = np.asarray(prefix)
    tdig = [prefix[..., m - 1 - j, None] for j in range(min(chain.k, m))]
    return _candidates_flat(chain, fac, m, msg, tdig, faults)[..., 0, :]


@dataclass
class ChainSolveResult:
    assignment: list
    cost: float
    marginals: list = field(default_factory=list)
    messages_held: int = 0
    tau: float | None = None
    skipped_taus: list = field(default_factory=list)


def solve_grid(chain: ChainProblem, cfg: SolverConfig, solve_batch):
    """Solve every tau of cfg (its grid, or tau alone) and keep the best point.

    The taus go to solve_batch in batches of at most chain_cap() // d**k
    points, so that one batched message holds no more entries than the chain
    cap allows.  solve_batch(taus) returns the (G, n) assignments, the fault
    message of each point (None when it solved) and finish(g, cost), which
    builds the result of point g.  The result carries the winning tau and the
    (tau, message) pairs of the faulted points.
    """
    _check_chain_capacity(chain)
    taus = cfg.taus()
    size = max(1, chain_cap() // chain.d ** chain.k)
    points, costs, faults = [], [], []
    known: dict = {}  # grid points often agree, so cost each assignment once
    for start in range(0, len(taus), size):
        xs, messages, finish = solve_batch(taus[start:start + size])
        for g, (x, message) in enumerate(zip(xs, messages)):
            cost = None
            if message is None:
                key = x.tobytes()
                if key not in known:
                    known[key] = result_cost(chain, x.tolist())
                cost = known[key]
            points.append((finish, g))
            costs.append(cost)
            faults.append(message)
    best, skipped = pick_best(taus, costs, faults)
    finish, g = points[best]
    res = finish(g, costs[best])
    res.tau = float(taus[best])
    res.skipped_taus = skipped
    return res


def solve_matrix(chain: ChainProblem, cfg: SolverConfig, *,
                 dense_operator: bool = False) -> ChainSolveResult:
    """Transfer-matrix solve: one backward pass, then per-variable argmax.

    With cfg.tau_grid set, one pass serves the whole grid and the best point
    wins (see solve_grid).  dense_operator=True applies the materialized
    d**k x d**k matrix on interior rows instead of the sparse rule; results
    must be identical up to rounding and the mode exists for benchmarking the
    dense-format claims.
    """
    def solve_batch(taus):
        fac = ChainFactors(chain, taus)
        faults = GridFaults(len(taus))
        msgs = backward_pass_matrix(chain, cfg, fac, faults, dense_operator)
        by_origin = {msg.origin: msg for msg in msgs}
        x = np.zeros((len(taus), chain.n), dtype=np.intp)
        margs = []
        for m in range(chain.n):
            vec = marginal_matrix(chain, fac, m, by_origin.get(m + 1), x, faults)
            if cfg.normalize:
                vec = _normalize_msg(vec, m, faults)
            margs.append(vec)
            x[:, m] = _argmax(vec, faults)
        held = len(msgs)

        def finish(g, cost):
            return ChainSolveResult(
                assignment=x[g].tolist(), cost=cost,
                marginals=[MarginalVector(entries=v[g], scale_dropped=cfg.normalize)
                           for v in margs],
                messages_held=held)
        return x, faults.messages, finish

    return solve_grid(chain, cfg, solve_batch)


# ---------------------------------------------------------------------------
# Tensor (4-index) method


def build_chain_stair(chain: ChainProblem, cfg: SolverConfig):
    """Banded stair network: row i keeps cross nodes only for j - i <= k."""
    from .dense_solver import StairNetwork, _stair_rows
    _check_chain_capacity(chain)
    p = chain.problem
    return StairNetwork(problem=p, cfg=cfg,
                        rows=_stair_rows(chain.n, chain.k), band_k=chain.k)


def _transfer_shaped(bound: np.ndarray | None, m: int, fac: ChainFactors,
                     chain: ChainProblem, do_norm: bool) -> np.ndarray:
    """Absorb row m into the shaped boundary tensor (axis j = variable m+j).

    The row's nodes are applied one at a time: the fused local node adds the
    new axis, each cross node multiplies along its pair of axes, and the
    furthest cross contracts the departing axis.
    """
    d, k, n = chain.d, chain.k, chain.n
    if bound is None:
        out = fac.sv[m].copy()
    else:
        prev = bound.ndim
        expo = np.zeros((d,) + bound.shape)
        expo += fac.sc[m].reshape((d,) + (1,) * prev)
        full = prev == k and m + k <= n - 1
        for j in range(1, prev + 1):
            view = fac.cc[m, j - 1].reshape((d,) + (1,) * (j - 1) + (d,) + (1,) * (prev - j))
            expo = expo + view
        out = _stable_weights(expo, bound[None, ...])
        if full:
            out = out.sum(axis=-1)  # contract the departing variable m+k
    if do_norm:
        out = _normalize_msg(out, m, axis=None)
    return out


def _marginal_shaped(chain: ChainProblem, fac: ChainFactors, m: int,
                     bound: np.ndarray | None, prefix) -> np.ndarray:
    """Conditional marginal of variable m from the shaped boundary above it."""
    d, k = chain.d, chain.k
    if bound is None:
        expo = fac.sc[m].copy()
        for j in range(1, min(k, m) + 1):
            expo = expo + fac.cc[m - j, j - 1][prefix[m - j], :]
        return _stable_weights(expo, np.ones(d))
    L = bound.ndim
    expo = np.zeros((d,) + bound.shape)
    expo += fac.sc[m].reshape((d,) + (1,) * L)
    for j in range(1, L + 1):
        view = fac.cc[m, j - 1].reshape((d,) + (1,) * (j - 1) + (d,) + (1,) * (L - j))
        expo = expo + view
    for i in range(1, L + 1):  # fixed crosses skipping over m
        for j in range(i + 1, k + 1):
            l = m + i - j
            if 0 <= l <= m - 1:
                vec = fac.cc[l, j - 1][prefix[l], :]
                expo = expo + vec.reshape((1,) * i + (d,) + (1,) * (L - i))
    for j in range(1, min(k, m) + 1):
        vec = fac.cc[m - j, j - 1][prefix[m - j], :]
        expo = expo + vec.reshape((d,) + (1,) * L)
    out = _stable_weights(expo, bound[None, ...])
    return out.sum(axis=tuple(range(1, L + 1)))


def solve_tensor(chain: ChainProblem, cfg: SolverConfig) -> ChainSolveResult:
    """Stair-tensor solve: shaped boundary with up to k open indices.

    Shares tie-break and factor tables with solve_matrix and must return the
    same assignment on every instance.
    """
    _check_chain_capacity(chain)
    build_chain_stair(chain, cfg)  # capacity + structure validation
    fac = ChainFactors(chain, cfg.tau)
    n = chain.n
    bounds: dict = {}
    bound = _transfer_shaped(None, n - 1, fac, chain, cfg.normalize)
    bounds[n - 1] = bound
    for m in range(n - 2, 0, -1):
        bound = _transfer_shaped(bound, m, fac, chain, cfg.normalize)
        bounds[m] = bound
    assignment: list = []
    marginals = []
    for m in range(n):
        above = bounds.get(m + 1)
        vec = _marginal_shaped(chain, fac, m, above, assignment)
        if cfg.normalize:
            vec = _normalize_msg(vec, m)
        marginals.append(MarginalVector(entries=vec, scale_dropped=cfg.normalize))
        assignment.append(argmax_extract(vec))
    return ChainSolveResult(assignment=assignment,
                            cost=result_cost(chain, assignment),
                            marginals=marginals,
                            messages_held=len(bounds))
