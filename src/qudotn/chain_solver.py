"""k-neighbor linear-chain solvers.

The matrix and the tensor method contract the same banded stair network with
one kernel: flat message vectors over the d**k states of the next k
undetermined variables, applying the sparse transfer rule through integer
digit arithmetic (state t = sum_j d**j * value_j).  The tensor method's
boundary tensors are these messages, reshaped (see solve_tensor).

Backward messages run from the last variable toward the first; variables are
then determined first-to-last, ties going to the lowest index.

One pass solves a whole tau grid: factor tables built from an array of G tau
values carry a leading grid axis, and every kernel below then advances all G
points with one numpy call per row.  A single tau is the G = 1 case.  Each
point's arithmetic is the same as in a solve of that point alone, so its
result is too.  A scalar tau gives the tables without the grid axis, as the
per-row helpers use them.  solve_grid keeps the best point of a grid for
every method, the dense solver's included.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, NumericFaultError, env_cap
from .problem import ChainProblem, Problem, evaluate_cost
from .tn_core import MarginalVector, SolverConfig, argmax_extract, normalize

DEFAULT_CHAIN_CAP = 1 << 20  # max d**k message entries


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

    A tau at which tau * cost leaves float range is a numeric fault: raised
    for a scalar tau, else recorded in faults for that grid point, whose
    tables then hold unit factors so that the other points go on.
    """

    def __init__(self, chain: ChainProblem, tau, faults: GridFaults | None = None):
        self.taus = np.asarray(tau, dtype=float)
        # tau > 0 and rounding is monotone, so tau * max|cost| bounds every
        # scaled cost and tau * min(cost) is exactly the minimum of the scaled
        # costs: the reductions run once per chain instead of once per point
        peak = max(np.abs(chain.diag_cost).max(), np.abs(chain.cross_cost).max())
        with np.errstate(over="ignore"):
            over = ~np.isfinite(self.taus * peak)
        taus = self.taus
        if over.any():
            message = f"overflow: tau * cost leaves float range (|cost| up to {peak:.3g})"
            if faults is None:
                raise NumericFaultError(message)
            faults.flag(over, message)
            taus = np.where(over, 0.0, taus)
        t = taus[..., None, None]
        # a shift of finite scaled costs can still overflow to +inf, which
        # is the right exponent there: its weight is 0
        with np.errstate(over="ignore"):
            self.sc = t * chain.diag_cost
            self.sc -= t * chain.diag_cost.min(axis=-1, keepdims=True)
            t = t[..., None, None]
            self.cc = t * chain.cross_cost
            self.cc -= t * chain.cross_cost.min(axis=(-2, -1), keepdims=True)
        self.sv = np.exp(-self.sc)
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


def _check_chain_capacity(chain: ChainProblem) -> int:
    """Grid points per batch: as many as fit, message entries summed, under
    the chain cap.  Raises when one message of d**k entries exceeds it."""
    cap = env_cap("QUDOTN_CHAIN_CAP", DEFAULT_CHAIN_CAP)
    if chain.d ** chain.k > cap:
        raise CapacityError(
            f"message size d^k = {chain.d ** chain.k} exceeds chain cap {cap}")
    return cap // chain.d ** chain.k


def _transfer_flat(msg: MessageState | None, m: int, fac: ChainFactors,
                   chain: ChainProblem,
                   faults: GridFaults | None = None) -> MessageState:
    """One sparse transfer step: message with origin m+1 -> origin m, scaled
    to a largest entry of 1.  Without a message, m is the last variable and
    its message is its local factor.

    Each new state prepends a value z for variable m; the weight multiplies
    the local factor of m and its crosses into the state variables.  When the
    state is already k long, the oldest variable m+k is summed out; that sum
    plus the d**k target states is the d**(k+1)-operation sparse rule.
    """
    d, k, n = chain.d, chain.k, chain.n
    if msg is None:
        return MessageState(_normalize_msg(fac.sv[..., m, :], m, faults), m, 1, d)
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
    return MessageState(_normalize_msg(new, m, faults), m, new_len, d)


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
                         faults: GridFaults | None = None) -> list:
    """Messages B_{n-1}, ..., B_1, all retained for reuse.

    B_m sums, over every variable past the state window, the product of all
    factors whose lowest variable is >= m, scaled to a largest entry of 1.
    """
    _check_chain_capacity(chain)
    fac = fac or ChainFactors(chain, cfg.tau)
    msg = _transfer_flat(None, chain.n - 1, fac, chain, faults)
    out = [msg]
    for m in range(chain.n - 2, 0, -1):
        msg = _transfer_flat(msg, m, fac, chain, faults)
        out.append(msg)
    return out


def transfer_operator_dense(chain: ChainProblem, m: int, tau: float) -> np.ndarray:
    """Dense d**k x d**k transfer matrix for an interior row m.

    Row index encodes (z, a_1..a_{k-1}), column index (a_1..a_k); an entry is
    nonzero only when the shared k-1 values agree, giving exactly d**(k+1)
    structural nonzeros.  Used for the sparsity checks.
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


def _chain_finish(x: np.ndarray, margs: list, held: int):
    """finish(g, cost) for solve_grid: grid point g's ChainSolveResult from a
    batch's (G, n) assignments and per-variable (G, d) marginals."""
    def finish(g, cost):
        return ChainSolveResult(
            assignment=x[g].tolist(), cost=cost,
            marginals=[MarginalVector(entries=v[g]) for v in margs],
            messages_held=held)
    return finish


def solve_grid(p: Problem, cfg: SolverConfig, size: int, solve_batch):
    """Solve every tau of cfg (its grid, or tau alone) and keep the best point.

    The taus go to solve_batch in batches of at most size points, the
    caller's bound on what one batch may hold.  solve_batch(taus) returns the
    (G, n) assignments, the fault message of each point (None when it
    solved) and finish(g, cost), which builds the result of point g.  The
    lowest cost of p wins and ties keep the first, i.e. the smallest, tau.
    The result carries the winning tau and the (tau, message) pairs of the
    faulted points; when every point faulted, the last fault is raised.
    """
    taus = cfg.taus()
    best, skipped = None, []
    known: dict = {}  # grid points often agree, so cost each assignment once
    for start in range(0, len(taus), size):
        xs, messages, finish = solve_batch(taus[start:start + size])
        for g, (x, message) in enumerate(zip(xs, messages)):
            tau = float(taus[start + g])
            if message is not None:
                skipped.append((tau, message))
                continue
            key = x.tobytes()
            if key not in known:
                known[key] = evaluate_cost(p, x.tolist())
            if best is None or known[key] < best[0]:
                best = (known[key], tau, finish, g)
    if best is None:
        raise NumericFaultError(skipped[-1][1])
    cost, tau, finish, g = best
    res = finish(g, cost)
    res.tau = tau
    res.skipped_taus = skipped
    return res


def solve_matrix(chain: ChainProblem, cfg: SolverConfig) -> ChainSolveResult:
    """Transfer-matrix solve: one backward pass, then per-variable argmax.

    With cfg.tau_grid set, one pass serves the whole grid and the best point
    wins (see solve_grid).
    """
    def solve_batch(taus):
        faults = GridFaults(len(taus))
        fac = ChainFactors(chain, taus, faults)
        msgs = backward_pass_matrix(chain, cfg, fac, faults)
        by_origin = {msg.origin: msg for msg in msgs}
        x = np.zeros((len(taus), chain.n), dtype=np.intp)
        margs = []
        for m in range(chain.n):
            vec = marginal_matrix(chain, fac, m, by_origin.get(m + 1), x, faults)
            vec = _normalize_msg(vec, m, faults)
            margs.append(vec)
            x[:, m] = _argmax(vec, faults)
        return x, faults.messages, _chain_finish(x, margs, len(msgs))

    return solve_grid(chain.problem, cfg, _check_chain_capacity(chain), solve_batch)


def solve_tensor(chain: ChainProblem, cfg: SolverConfig) -> ChainSolveResult:
    """Stair-tensor solve: the chain's 4-order tensor network, contracted row
    by row with one open index per state variable.

    Its boundary tensor after absorbing rows n-1..m, with axis j for variable
    m+j, is the flat message B_m with its last axis reshaped to (d,)*L in
    Fortran order,
    so the contraction is solve_matrix's batched pass and the result is
    solve_matrix's, bit for bit, tau grids included.
    """
    return solve_matrix(chain, cfg)


def build_chain_stair(chain: ChainProblem, cfg: SolverConfig):
    """Banded stair network: row i keeps cross nodes only for j - i <= k."""
    from .dense_solver import StairNetwork, _stair_rows
    _check_chain_capacity(chain)
    p = chain.problem
    return StairNetwork(problem=p, cfg=cfg,
                        rows=_stair_rows(chain.n, chain.k), band_k=chain.k)
