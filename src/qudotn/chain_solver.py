"""k-neighbor linear-chain solvers.

The matrix and the tensor method contract the same banded stair network with
one kernel: flat message vectors over the d**k states of the next k
undetermined variables, applying the sparse transfer rule through integer
digit arithmetic (state t = sum_j d**j * value_j).  The tensor method's
boundary tensors are these messages, reshaped (see solve_tensor).  At one
tau, where a row's rule has d**(k+1) <= SCALAR_CELLS weights, the backward
transfer runs on Python floats instead, with the same bytes.

Backward messages run from the last variable toward the first; variables are
then determined first-to-last, ties going to the lowest index.  Where a
row's candidates for all d**k predecessor combinations are small, the
forward pass builds them for a block of rows at once, as the waterfall's
tables, and walks them; otherwise it takes one variable at a time.

One pass solves a whole tau grid: factor tables built from an array of G tau
values carry a leading grid axis, and every kernel below then advances all G
points with one numpy call per row.  A single tau is the G = 1 case.  Each
point's arithmetic is the same as in a solve of that point alone, so its
result is too.  A scalar tau gives the tables without the grid axis, as the
per-row helpers use them.  solve_grid keeps the best point of a grid for
every method, the dense solver's included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add, itemgetter, mul

import numpy as np

from .errors import CapacityError, NumericFaultError, env_cap
from .problem import ChainProblem, Problem, evaluate_cost
from .tn_core import MarginalVector, SolveOutcome, SolverConfig, argmax_extract, normalize

DEFAULT_CHAIN_CAP = 1 << 20  # max d**k message entries
ROW_BLOCK = 32  # rows per block of row tables, so they hold O(1) rows in n
BLOCK_CELLS = 512  # most G * d**(2k+1) candidate cells per row for block forward
SCALAR_CELLS = 32  # most d**(k+1) weights per row for the one-point scalar transfer


class ChainFactors:
    """tau * cost exponent tables for one chain at one tau or a grid of taus.

    Each exponent is shifted by its own minimum so that extreme tau values
    stay inside float range; messages are scale-free anyway.
    sc[m, z] is the local cost exponent of variable m, cc[m, j-1, a, b]
    that of the interaction between variable m at a and variable m+j at b.
    Every solver sums a row's exponents and exponentiates once
    (_stable_weights) instead of multiplying factors into the underflow
    region.
    An array of G taus gives every table a leading axis of length G.

    A tau at which tau * cost leaves float range is a numeric fault: raised
    for a scalar tau, else recorded in faults for that grid point, whose
    tables then hold unit factors so that the other points go on.
    """

    def __init__(self, chain: ChainProblem, tau, faults: GridFaults | None = None):
        self.d, self.k, self.n = chain.d, chain.k, chain.n
        # the row tables of the last block built, the only one held: start
        # row, E, W, per-row flags that every point's shift is finite, and
        # W as Python lists for the scalar transfer
        self._block = [None] * 5
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
        # is the right exponent there: its weight is 0.  Only a faulted
        # point meets nan (0 * an infinite cost), and it is zeroed below
        with np.errstate(over="ignore", invalid="ignore"):
            self.sc = t * chain.diag_cost
            self.sc -= t * chain.diag_cost.min(axis=-1, keepdims=True)
            t = t[..., None, None]
            self.cc = t * chain.cross_cost
            self.cc -= t * chain.cross_cost.min(axis=(-2, -1), keepdims=True)
        if over.any():
            self.sc[over] = self.cc[over] = 0.0
        # leading index that pairs each grid point with its own table rows
        # when rows are picked per point by fancy indexing
        self.points = (np.arange(self.taus.size)[:, None],) if self.taus.ndim else ()

    def exponent(self, m: int | slice, L: int) -> np.ndarray:
        """Row m's exponent sc[m, z] + sum_j cc[m, j-1, z, digit_j(s)] over
        the d**L states s of variables m+1..m+L: (..., d, d**L).  A row whose
        window holds all d**k states reads its block's table E, and so can a
        slice m of such rows inside one block: (..., B, d, d**L)."""
        if L < self.k:
            return _row_exponent(self, m, L)
        first = m.start if isinstance(m, slice) else m
        start = first - first % ROW_BLOCK
        if self._block[0] != start:
            rows = slice(start, min(start + ROW_BLOCK, self.n - self.k))
            self._block = [start, _row_exponent(self, rows, L), None, None, None]
        return self._block[1][..., _offset(m, -start), :, :]

    def weights(self, m: int) -> np.ndarray | None:
        """W = exp(min E - E) for a row m with a full window, the min taken
        per grid point over the row, as _stable_weights takes it for an
        all-positive message; None when some point's min is not finite."""
        self.exponent(m, self.k)
        start, E, W, finite = self._block[:4]
        if W is None:
            shift = E.min(axis=(-2, -1), keepdims=True)
            ok = np.isfinite(shift)
            W = np.where(ok, shift, 0.0) - E
            finite = ok.reshape(-1, ok.shape[-3]).all(axis=0)
            self._block[2:4] = np.exp(W, out=W), finite
        return W[..., m - start, :, :] if finite[m - start] else None

    def rescale(self, chain: ChainProblem, m: int, taus: np.ndarray, faults: GridFaults):
        """Rows 0..m-1 at the grid points' taus, built as a chain of those
        rows alone: a point whose tau is unchanged keeps the same rows."""
        prefix = ChainFactors(replace(chain, n=m, diag_cost=chain.diag_cost[:m],
                                      cross_cost=chain.cross_cost[:m]), taus, faults)
        self.sc[:, :m], self.cc[:, :m] = prefix.sc, prefix.cc
        self._block = [None] * 5

    def weight_lists(self, m: int) -> list | None:
        """weights(m) of a one-point factor as d Python lists, list a holding
        the weights of dropped value a in output state order (see
        _transfer_scalar); made once per block.  None where weights(m) is."""
        start = m - m % ROW_BLOCK
        if self._block[0] != start or self._block[4] is None:
            self.weights(m)
            W, finite = self._block[2:4]
            lay = _scalar_layout(self.d, self.k)[0]
            self._block[4] = [[pick(row) for pick in lay] if ok else None for row, ok
                              in zip(W.reshape(len(finite), -1).tolist(), finite.tolist())]
        return self._block[4][m - start]


def _offset(m: int | slice, shift: int):
    """Row m, or the slice m of rows, moved by shift."""
    if isinstance(m, slice):
        return slice(m.start + shift, m.stop + shift)
    return m + shift


def _row_exponent(fac: ChainFactors, rows, L: int) -> np.ndarray:
    """sc[rows, z] + sum_j cc[rows, j-1, z, digit_j(s)] for j = 1..L, summed
    in that order; rows is one row or a slice of rows.  C-ordered, so that
    sums over the states run in the same order for every row."""
    digs = _digits(fac.d, L)
    expo = fac.sc[..., rows, :, None]
    for j in range(1, L + 1):
        expo = expo + fac.cc[..., rows, j - 1, :, :][..., digs[j - 1]]
    return np.ascontiguousarray(expo)


class GridFaults:
    """The first numeric fault of each point of a batched solve.

    A kernel that meets a fault on some points records it here and gives
    those points ones in place of their values, so the other points go on.
    A point keeps its first message.
    """

    def __init__(self, size: int):
        self.messages: list = [None] * size
        self.mask = np.zeros(size, dtype=bool)

    def flag(self, bad: np.ndarray, message: str) -> np.ndarray:
        """Record message for the points with any True in bad (leading axis
        = grid point); returns the per-point mask."""
        points = bad.reshape(len(self.messages), -1).any(axis=1)
        for g in np.flatnonzero(points & ~self.mask):
            self.messages[g] = message
        self.mask |= points
        return points


def _stable_weights(exponent: np.ndarray, values: np.ndarray,
                    axis=None, faults: GridFaults | None = None) -> np.ndarray:
    """exp(-exponent) * values with the exponent shifted by its minimum over
    the states that still carry weight.

    values are nonnegative message entries (zeros allowed).  The shift is a
    positive rescale, which every caller discards through normalization or
    argmax, and it guarantees that the term at the shift point survives in
    float range, so products of many small factors cannot silently vanish.
    Faults when no weighted state has a finite exponent: messages are
    scaled to a peak of 1, so some state carries weight, and its exponent
    is +inf only where a sum of tau * cost overflowed.
    """
    positive = (values > 0).all()
    masked = exponent if positive else np.where(values > 0, exponent, np.inf)
    shift = masked.min(axis=axis, keepdims=axis is not None)
    bad = None
    if not np.isfinite(shift).all():
        message = "overflow: tau * cost sums of all weighted states leave float range"
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


def _check_chain_capacity(chain: ChainProblem, table: bool = False) -> int:
    """Grid points per batch: as many as fit under the chain cap, each
    holding a d**k-entry message, or with table a waterfall row table of up
    to d**(min(2k, n-1)+1) cells.  Raises when one point's exceeds it."""
    cap = env_cap("QUDOTN_CHAIN_CAP", DEFAULT_CHAIN_CAP)
    size = chain.d ** (min(2 * chain.k, chain.n - 1) + 1 if table else chain.k)
    if size > cap:
        what = "candidate table size d^(min(2k, n-1)+1)" if table else "message size d^k"
        raise CapacityError(f"{what} = {size} exceeds chain cap {cap}")
    return cap // size


@lru_cache(maxsize=64)
def _scalar_layout(d: int, k: int) -> tuple:
    """Per dropped value a of variable m+k, getters that lay out a row's flat
    weights W[z, s] and a message's entries B[s] in output state order
    o = s' * d + z, where s = s' + a * d**(k-1)."""
    size, h = d ** k, d ** (k - 1)
    order = [(z, r) for r in range(h) for z in range(d)]
    return (tuple(itemgetter(*[z * size + a * h + r for z, r in order]) for a in range(d)),
            tuple(itemgetter(*[a * h + r for _, r in order]) for a in range(d)))


def _transfer_scalar(msg: MessageState, m: int, fac: ChainFactors) -> MessageState | None:
    """_transfer_flat's full-window step for one grid point on Python floats:
    the same products and the same sums over the dropped value, added in
    its order 0, 1, ..., so the message has the same bytes.  None where the
    row's shift is not finite or an entry is not positive: the numpy route
    then runs, with its faults.  The weights lie in [0, 1] and hold an
    exact exp(0) = 1, the entries in (0, 1], so the peak lies in [min
    entry, d] and needs no check."""
    values = msg.entries.ravel().tolist()
    if not min(values) > 0.0 or (W := fac.weight_lists(m)) is None:
        return None
    picks = _scalar_layout(fac.d, fac.k)[1]
    new = list(map(mul, W[0], picks[0](values)))
    for a in range(1, fac.d):
        new = list(map(add, new, map(mul, W[a], picks[a](values))))
    return MessageState(np.divide(new, max(new)).reshape(msg.entries.shape), m, fac.k, fac.d)


def _transfer_flat(msg: MessageState | None, m: int, fac: ChainFactors,
                   chain: ChainProblem,
                   faults: GridFaults | None = None) -> MessageState:
    """One sparse transfer step: message with origin m+1 -> origin m, scaled
    to a largest entry of 1.  Without a message, m is the last variable and
    its message is its local factor exp(-sc[m]), whose largest entry is
    exp(0) = 1 already.

    Each new state prepends a value z for variable m; the weight multiplies
    the local factor of m and its crosses into the state variables.  When the
    state is already k long, the oldest variable m+k is summed out; that sum
    plus the d**k target states is the d**(k+1)-operation sparse rule.  For
    one grid point and at most SCALAR_CELLS weights it runs on Python floats
    (_transfer_scalar), where numpy's dispatch would cost more than the rule.
    """
    d, k, n = chain.d, chain.k, chain.n
    if msg is None:
        return MessageState(np.exp(-fac.sc[..., m, :]), m, 1, d)
    L = msg.length
    full = L == k and m + k <= n - 1
    if full and fac.taus.size == 1 and d ** (k + 1) <= SCALAR_CELLS:
        new = _transfer_scalar(msg, m, fac)
        if new is not None:
            return new
    values = msg.entries[..., None, :]
    W = fac.weights(m) if L == k and (values > 0).all() else None
    if W is not None:
        w = W * values  # what _stable_weights gives on this row
    else:
        w = _stable_weights(fac.exponent(m, L), values, (-2, -1), faults)
    if full:
        # drop variable m+k: most-significant digit of the old state
        w = w.reshape(w.shape[:-1] + (d, d ** (k - 1))).sum(axis=-2)
        new_len = k
    else:
        new_len = L + 1
    new = np.swapaxes(w, -1, -2).reshape(w.shape[:-2] + (-1,))
    return MessageState(normalize(new, axis=-1)[0], m, new_len, d)


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
    sv, cf = np.exp(-fac.sc[m]), np.exp(-fac.cc[m])
    size = d ** k
    op = np.zeros((size, size))
    digs = _digits(d, k)
    for s in range(size):
        z = s % d
        shared = s // d  # (a_1..a_{k-1})
        for ak in range(d):
            sp = shared + ak * d ** (k - 1)
            wgt = sv[z]
            for j in range(1, k + 1):
                wgt *= cf[j - 1][z, digs[j - 1][sp]]
            op[s, sp] = wgt
    return op


def _candidates_flat(chain: ChainProblem, fac: ChainFactors, m: int | slice,
                     msg: MessageState | None, tdig: list,
                     faults: GridFaults | None = None) -> np.ndarray:
    """Marginal-style candidate vectors for variable m, one row per
    predecessor combination: (T, d), after the factors' grid axis if any.

    tdig[j] holds, per combination, the value of predecessor m-1-j: a (T,)
    array shared by every grid point, or (G, T) with a row per point.  The
    computation contracts the next backward message with variable m's local
    factors, the fixed crosses into m, and the fixed crosses that skip over m
    into later state variables (those exist only for k > 1).

    m may also be a slice of rows m >= k inside one row block, whose windows
    all hold d**k states: msg.entries then carries their messages on a row
    axis after the grid axis, tdig is shared, and the result is (..., B, T, d).
    """
    d, k = chain.d, chain.k
    K = len(tdig)
    if msg is None:
        L = 0
        entries = np.ones(1)
    else:
        L = msg.length
        entries = msg.entries
    digs = _digits(d, L)
    # total shifted cost exponent, one C-ordered slab per predecessor
    # combination: the row's exponent plus the fixed crosses, in this order
    expo = fac.exponent(m, L)[..., None, :, :]
    for i in range(1, L + 1):  # state variable m+i
        for j in range(i + 1, k + 1):
            if j - i <= K:  # predecessor m+i-j exists
                rows = _fixed_cross(fac, m, i - j, j, tdig[j - i - 1])
                expo = np.add(expo, rows[..., :, None, digs[i - 1]], order="C")
    for j in range(1, K + 1):
        term = _fixed_cross(fac, m, -j, j, tdig[j - 1])[..., None]
        expo = np.add(expo, term, order="C")
    # stabilize per predecessor combination: each row is only ever used for
    # an argmax or a normalized marginal, so a per-row positive rescale is
    # exact
    w = _stable_weights(expo, entries[..., None, None, :], (-2, -1), faults)
    return w.sum(axis=-1)


def _fixed_cross(fac: ChainFactors, m: int | slice, shift: int, j: int, a) -> np.ndarray:
    """cc[m+shift, j-1, a, :] for the predecessor values a of each
    combination: (..., T, d), or (..., B, T, d) for a slice m of rows."""
    if isinstance(m, slice):
        return fac.cc[..., _offset(m, shift), j - 1, :, :][..., a, :]
    return fac.cc[(*fac.points, m + shift, j - 1, a)]


def marginal_matrix(chain: ChainProblem, fac: ChainFactors, m: int,
                    msg: MessageState | None, prefix,
                    faults: GridFaults | None = None) -> np.ndarray:
    """Conditional marginal of variable m given the solved prefix (flat route).

    With grid factors, prefix holds one row of values per grid point."""
    prefix = np.asarray(prefix)
    tdig = [prefix[..., m - 1 - j, None] for j in range(min(chain.k, m))]
    return _candidates_flat(chain, fac, m, msg, tdig, faults)[..., 0, :]


def _chain_finish(x: np.ndarray, margs: list, held: int):
    """finish(g, cost) for solve_grid: grid point g's SolveOutcome from a
    batch's (G, n) assignments and per-variable (G, d) marginals."""
    def finish(g, cost):
        return SolveOutcome(x[g].tolist(), cost, None, [], held,
                            [MarginalVector(entries=v[g]) for v in margs])
    return finish


def solve_grid(p: Problem, cfg: SolverConfig, size: int, solve_batch):
    """Solve every tau of cfg (its grid, or tau alone) and keep the best point.

    The taus go to solve_batch in batches of at most size points, the
    caller's bound on what one batch may hold.  solve_batch(taus) returns the
    (G, n) assignments, the fault message of each point (None when it
    solved) and finish(g, cost), which builds the result of point g.  The
    lowest cost of p wins and ties keep the first, i.e. the smallest, tau;
    a point whose cost leaves float range faults, as in brute_force.  The
    result carries the winning tau and the (tau, message) pairs of the
    faulted points; when every point faulted, the last fault is raised.
    """
    taus = cfg.taus()
    best, skipped = None, []
    known: dict = {}  # grid points often agree, so cost each assignment once
    for start in range(0, len(taus), size):
        # exponent sums may overflow to +inf, which is the right exponent:
        # its weight is 0, and states with no finite exponent left fault
        with np.errstate(over="ignore"):
            xs, messages, finish = solve_batch(taus[start:start + size])
        for g, (x, message) in enumerate(zip(xs, messages)):
            tau = float(taus[start + g])
            if message is None:
                key = x.tobytes()
                if key not in known:
                    known[key] = evaluate_cost(p, x.tolist())
                if not math.isfinite(known[key]):
                    message = "overflow: cost sums leave float range"
            if message is not None:
                skipped.append((tau, message))
            elif best is None or known[key] < best[0]:
                best = (known[key], tau, finish, g)
    if best is None:
        raise NumericFaultError(skipped[-1][1])
    cost, tau, finish, g = best
    res = finish(g, cost)
    res.tau = tau
    res.skipped_taus = skipped
    return res


def solve_matrix(chain: ChainProblem, cfg: SolverConfig) -> SolveOutcome:
    """Transfer-matrix solve: one backward pass, then per-variable argmax.

    The forward pass takes the full-window rows a row block at a time when a
    row's candidates for every predecessor combination are small (G *
    d**(2k+1) cells at most BLOCK_CELLS), and one variable at a time
    otherwise; both give the same bytes.  With cfg.tau_grid set, one pass
    serves the whole grid and the best point wins (see solve_grid).
    """
    d, k, n = chain.d, chain.k, chain.n

    def solve_batch(taus):
        faults = GridFaults(len(taus))
        fac = ChainFactors(chain, taus, faults)
        msgs = backward_pass_matrix(chain, cfg, fac, faults)
        by_origin = {msg.origin: msg for msg in msgs}
        x = np.zeros((len(taus), n), dtype=np.intp)
        blocks = len(taus) * d ** (2 * k + 1) <= BLOCK_CELLS
        margs = []
        m = 0
        while m < n:
            stop = m + 1
            if blocks and k <= m < n - k:
                stop = min(m - m % ROW_BLOCK + ROW_BLOCK, n - k)
                block = _forward_block(chain, fac, slice(m, stop), by_origin, x)
                if block is not None:
                    margs += block
                    m = stop
                    continue
            for r in range(m, stop):
                vec = marginal_matrix(chain, fac, r, by_origin.get(r + 1), x, faults)
                vec = normalize(vec, axis=-1)[0]
                margs.append(vec)
                x[:, r] = argmax_extract(vec)
            m = stop
        return x, faults.messages, _chain_finish(x, margs, len(msgs))

    return solve_grid(chain.problem, cfg, _check_chain_capacity(chain), solve_batch)


def _forward_block(chain: ChainProblem, fac: ChainFactors, rows: slice,
                   by_origin: dict, x: np.ndarray) -> list | None:
    """Fill x[:, rows] and return their (G, d) marginals, as the
    per-variable route would, from one candidate table for the block.

    The table holds every row's normalized candidates for all d**k
    predecessor combinations; a walk then reads each row's realised
    combination t, encoded as in the waterfall's tables, moving on with
    t <- x_m + d * (t mod d**(k-1)).  When any combination faults,
    realised or not, x is left as it was and None returned, so that the
    per-variable route faults only where a realised one does.
    """
    d, k = chain.d, chain.k
    G, B = len(x), rows.stop - rows.start
    entries = np.stack([by_origin[m + 1].entries for m in range(rows.start, rows.stop)], axis=-2)
    try:
        cand = _candidates_flat(chain, fac, rows, MessageState(entries, rows.start + 1, k, d),
                                _digits(d, k))
    except NumericFaultError:
        return None
    cand = normalize(cand, axis=-1)[0]
    best = argmax_extract(cand)
    # successor[g][r][t]: row r+1's combination when row r's is t.  The walk
    # is one list lookup per row and point, cheaper on Python ints than as
    # numpy calls on G entries
    starts = sum(x[:, rows.start - 1 - j] * d ** j for j in range(k)).tolist()
    successor = (best + d * (np.arange(d ** k) % d ** (k - 1))).tolist()
    combos = []
    for t, table in zip(starts, successor):
        path = []
        for row in table:
            path.append(t)
            t = row[t]
        combos.append(path)
    realised = (np.arange(G), np.arange(B)[:, None], np.array(combos).T)  # (B, G) rows first
    x[:, rows] = best[realised].T
    return list(cand[realised])


def solve_tensor(chain: ChainProblem, cfg: SolverConfig) -> SolveOutcome:
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
