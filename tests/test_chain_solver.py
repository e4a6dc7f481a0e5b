"""k-neighbor chain solvers: matrix route, tensor route, transfer operators."""
import math
import os

import numpy as np
import pytest

from qudotn import (
    CapacityError,
    NumericFaultError,
    Problem,
    backward_pass_matrix,
    brute_force,
    build_chain_stair,
    chain_view,
    random_instance,
    solve_matrix,
    solve_tensor,
    to_tqudo,
    transfer_operator_dense,
)
from qudotn import chain_solver
from qudotn.chain_solver import (BLOCK_CELLS, ROW_BLOCK, ChainFactors, GridFaults,
                                 MessageState, _candidates_flat,
                                 _chain_finish, _check_chain_capacity,
                                 _stable_weights, _transfer_flat,
                                 marginal_matrix, solve_grid)
from qudotn.dense_solver import build_stair
from qudotn.tn_core import SolverConfig, argmax_extract, normalize
from qudotn.waterfall import solve_waterfall
from test_tau_batch import _overflowing_instance


def _cfg(tau):
    return SolverConfig(tau=tau)


class TestBackwardPass:
    def test_last_message_trivial(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        msgs = backward_pass_matrix(chain_view(p, 1), _cfg(1.0))
        b1 = msgs[0]
        assert b1.origin == 1
        assert b1.entries == pytest.approx([1.0, 1.0])

    def test_three_site_message(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(1, 2): 1.0})
        msgs = backward_pass_matrix(chain_view(p, 1), _cfg(1.0))
        b1 = [m for m in msgs if m.origin == 1][0]
        # messages are scaled to a largest entry of 1
        assert 2.0 * b1.entries == pytest.approx([2.0, 1.0 + math.exp(-1.0)],
                                                 rel=1e-12)

    def test_all_messages_retained(self):
        p = random_instance("qudo", 9, 2, 2, seed=1)
        msgs = backward_pass_matrix(chain_view(p, 2), _cfg(1.0))
        assert sorted(m.origin for m in msgs) == list(range(1, 9))

    def test_message_positivity(self):
        p = random_instance("qudo", 12, 3, 2, seed=2, lin_enabled=True)
        msgs = backward_pass_matrix(chain_view(p, 2), _cfg(2.0))
        for m in msgs:
            assert np.all(m.entries > 0)

    def test_state_length_truncates_at_boundary(self):
        p = random_instance("qudo", 5, 2, 3, seed=3)
        msgs = backward_pass_matrix(chain_view(p, 3), _cfg(1.0))
        by = {m.origin: m for m in msgs}
        assert len(by[4].entries) == 2       # one open variable
        assert len(by[3].entries) == 4
        assert len(by[2].entries) == 8
        assert len(by[1].entries) == 8       # full d^k window


class TestTransferOperator:
    def test_k1_dense_form(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(1, 2): 1.0})
        op = transfer_operator_dense(chain_view(p, 1), 1, tau=1.0)
        want = np.array([[1.0, 1.0], [1.0, math.exp(-1.0)]])
        assert np.max(np.abs(op - want)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_nonzero_count(self, d, k):
        n = k + 3
        p = random_instance("qudo", n, d, k, seed=d * 10 + k)
        op = transfer_operator_dense(chain_view(p, k), 1, tau=1.0)
        assert op.shape == (d ** k, d ** k)
        assert np.count_nonzero(op) == d ** (k + 1)

    def test_interior_rows_only(self):
        p = random_instance("qudo", 5, 2, 2, seed=0)
        with pytest.raises(ValueError):
            transfer_operator_dense(chain_view(p, 2), 0, tau=1.0)
        with pytest.raises(ValueError):
            transfer_operator_dense(chain_view(p, 2), 4, tau=1.0)

    def test_matches_sparse_transfer(self):
        # the dense operator maps B_{m+1} onto B_m, up to scale, on every
        # interior row
        for k in range(1, 4):
            p = random_instance("qudo", 8, 2, k, seed=4, lin_enabled=True)
            ch = chain_view(p, k)
            by = {m.origin: m.entries for m in backward_pass_matrix(ch, _cfg(5.0))}
            for m in range(1, 8 - k):
                want = transfer_operator_dense(ch, m, tau=5.0) @ by[m + 1]
                assert np.max(np.abs(want / want.max() - by[m])) <= 1e-12


class TestSolveMatrix:
    def test_signed_couplings(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): -1.0, (1, 2): 1.0})
        res = solve_matrix(chain_view(p, 1), _cfg(10.0))
        assert res.assignment == [1, 1, 0] and res.cost == -1.0

    def test_decoupled_all_zero(self):
        p = Problem(kind="qudo", n=6, d=3, quad={})
        res = solve_matrix(chain_view(p, 2), _cfg(1.0))
        assert res.assignment == [0] * 6 and res.cost == 0.0

    def test_strong_linear_term(self):
        p = Problem(kind="qudo", n=2, d=3, quad={(0, 1): 1.0}, lin={0: -5.0})
        res = solve_matrix(chain_view(p, 1), _cfg(5.0))
        ref = brute_force(p)
        assert res.assignment[0] == 2
        assert res.cost == pytest.approx(ref.best_cost, abs=1e-12)

    def test_qubo_as_qudo_identical(self):
        quad = {(0, 1): -0.7, (1, 2): 0.3, (0, 0): 0.2, (2, 2): -0.5}
        a = Problem(kind="qubo", n=3, d=2, quad=dict(quad))
        b = Problem(kind="qudo", n=3, d=2, quad=dict(quad))
        ra = solve_matrix(chain_view(a, 1), _cfg(5.0))
        rb = solve_matrix(chain_view(b, 1), _cfg(5.0))
        assert ra.assignment == rb.assignment

    def test_capacity_cap(self):
        p = random_instance("qudo", 50, 4, 2, seed=0)
        os.environ["QUDOTN_CHAIN_CAP"] = "8"
        try:
            with pytest.raises(CapacityError):
                solve_matrix(chain_view(p, 2), _cfg(1.0))
        finally:
            del os.environ["QUDOTN_CHAIN_CAP"]
        solve_matrix(chain_view(p, 2), _cfg(1.0))

    def test_marginal_matches_oracle(self):
        from qudotn import direct_marginal, normalize
        cases = [random_instance("qudo", 8, 3, 2, seed=6, lin_enabled=True),
                 random_instance("qudo", 7, 3, 6, seed=6, lin_enabled=True),
                 random_instance("tqudo", 8, 3, 2, seed=6)]
        for p in cases:
            res = solve_matrix(chain_view(p, p.bandwidth), _cfg(1.0))
            for i in range(p.n):
                fixed = {j: res.assignment[j] for j in range(i)}
                oracle, _ = normalize(np.asarray(direct_marginal(p, i, fixed, 1.0)))
                assert np.max(np.abs(res.marginals[i].entries - oracle)) <= 1e-10


class TestChainStair:
    def _cross_counts(self, net):
        out = []
        for row in net.rows:
            out.append(sum(1 for nd in row.nodes if nd.kind.startswith("cross")))
        return out

    def test_k1_row_shape(self):
        p = random_instance("qudo", 5, 2, 1, seed=0)
        net = build_chain_stair(chain_view(p, 1), _cfg(1.0))
        assert self._cross_counts(net) == [1, 1, 1, 1, 0]

    def test_k2_boundary_truncation(self):
        p = random_instance("qudo", 5, 2, 2, seed=0)
        net = build_chain_stair(chain_view(p, 2), _cfg(1.0))
        assert self._cross_counts(net) == [2, 2, 2, 1, 0]

    def test_full_band_equals_dense_multiset(self):
        p = random_instance("qudo", 5, 2, 4, seed=0)
        banded = build_chain_stair(chain_view(p, 4), _cfg(1.0))
        dense = build_stair(p, _cfg(1.0))
        assert banded.node_multiset() == dense.node_multiset()


class TestSolveTensor:
    @pytest.mark.parametrize("seed", range(10))
    def test_identical_to_matrix(self, seed):
        n = 5 + seed
        k = 1 + seed % 3
        d = 2 + seed % 2
        p = random_instance("qudo", n, d, k, seed=seed, lin_enabled=True)
        ch = chain_view(p, k)
        a = solve_matrix(ch, _cfg(2.0))
        b = solve_tensor(ch, _cfg(2.0))
        assert a.assignment == b.assignment
        for x, y in zip(a.marginals, b.marginals):
            assert np.max(np.abs(x.entries - y.entries)) <= 1e-9

    def test_k1_boundary_is_vector(self):
        p = random_instance("qudo", 6, 3, 1, seed=1)
        res = solve_tensor(chain_view(p, 1), _cfg(1.0))
        assert res.assignment == solve_matrix(chain_view(p, 1),
                                              _cfg(1.0)).assignment

    def test_zero_instance(self):
        p = Problem(kind="qudo", n=5, d=2, quad={})
        res = solve_tensor(chain_view(p, 2), _cfg(1.0))
        assert res.assignment == [0] * 5

    def test_tqudo_chain(self):
        p = random_instance("tqudo", 6, 3, 2, seed=8)
        ch = chain_view(p, 2)
        a = solve_matrix(ch, _cfg(10.0))
        b = solve_tensor(ch, _cfg(10.0))
        assert a.assignment == b.assignment
        assert a.cost == pytest.approx(brute_force(p).best_cost, abs=1e-9)


class TestMarginalAssembly:
    def test_uses_only_k_predecessors(self):
        # two identical chains except for a coefficient outside the window
        base = {(i, i + 1): 0.5 for i in range(5)}
        p1 = Problem(kind="qudo", n=6, d=2, quad=dict(base))
        quad2 = dict(base)
        quad2[(0, 1)] = 0.9
        p2 = Problem(kind="qudo", n=6, d=2, quad=quad2)
        f1 = ChainFactors(chain_view(p1, 1), 1.0)
        f2 = ChainFactors(chain_view(p2, 1), 1.0)
        # marginal of variable 4 given the same prefix and message must not
        # depend on the (0, 1) coefficient
        m1 = marginal_matrix(chain_view(p1, 1), f1, 4, None, [0, 1, 0, 1])
        m2 = marginal_matrix(chain_view(p2, 1), f2, 4, None, [0, 1, 0, 1])
        assert np.allclose(m1, m2)


# ---------------------------------------------------------------------------
# Row tables against the per-row exponent sum they replace


def _row_sum(fac, m, L, d):
    """sc[m] + sum_j cc[m, j-1][:, digit_j(s)], one row at a time."""
    states = np.arange(d ** L)
    expo = fac.sc[..., m, :, None]
    for j in range(1, L + 1):
        expo = expo + fac.cc[..., m, j - 1, :, :][..., states // d ** (j - 1) % d]
    return expo


def _transfer_ref(msg, m, fac, chain, faults):
    """One backward transfer step from the per-row exponent sum."""
    d, k = chain.d, chain.k
    L = msg.length
    w = _stable_weights(_row_sum(fac, m, L, d), msg.entries[..., None, :], (-2, -1), faults)
    if L == k and m + k <= chain.n - 1:
        w = w.reshape(w.shape[:-1] + (d, d ** (k - 1))).sum(axis=-2)
    new = np.swapaxes(w, -1, -2).reshape(w.shape[:-2] + (-1,))
    return normalize(new, axis=-1)[0]


def _candidates_ref(chain, fac, m, msg, tdig, faults):
    """Candidate vectors of variable m from the per-row exponent sum, each
    term added in place to a zeroed slab per predecessor combination."""
    d, k = chain.d, chain.k
    K = len(tdig)
    T = tdig[0].shape[-1] if K else 1
    L = msg.length
    states = np.arange(d ** L)
    digs = [states // d ** j % d for j in range(L)]
    expo = np.zeros(fac.sc.shape[:-2] + (T, d, d ** L))
    expo += _row_sum(fac, m, L, d)[..., None, :, :]
    for i in range(1, L + 1):
        for j in range(i + 1, k + 1):
            l = m + i - j
            if 0 <= l <= m - 1:
                rows = fac.cc[(*fac.points, l, j - 1, tdig[j - i - 1])]
                expo += rows[..., :, None, digs[i - 1]]
    for j in range(1, K + 1):
        expo += fac.cc[(*fac.points, m - j, j - 1, tdig[j - 1])][..., None]
    w = _stable_weights(expo, msg.entries[..., None, None, :], (-2, -1), faults)
    return w.sum(axis=-1)


def _overflowing_row_instance():
    """Variable 3 costs -1e306 at 0 and +1e306 at 1, and its crosses to
    variable 4 cost +1e306 from 0 and -1e306 from 1: for tau in about
    (90, 180) every shifted exponent of row 3 is +inf, and above that tau
    * cost itself leaves float range."""
    qhat = dict(to_tqudo(random_instance("qudo", 8, 2, 2, seed=3)).qhat)
    qhat[(3, 3, 0, 0)] = -1e306
    qhat[(3, 3, 1, 1)] = 1e306
    for b in range(2):
        qhat[(3, 4, 0, b)] = 1e306
        qhat[(3, 4, 1, b)] = -1e306
    return Problem(kind="tqudo", n=8, d=2, qhat=qhat)


class TestRowTables:
    TAUS = np.array([0.5, 5.0, 50.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [ROW_BLOCK // 2, ROW_BLOCK + 1, ROW_BLOCK + 4,
                                   2 * ROW_BLOCK + 7])
    def test_exponent_equals_per_row_sum(self, n, k):
        # n = ROW_BLOCK + k gives exactly one full block of full-window rows
        ch = chain_view(random_instance("qudo", n, 2, k, seed=n + k, lin_enabled=True), k)
        for tau in (self.TAUS, 50.0):
            fac = ChainFactors(ch, tau)
            # down, then up: each block is rebuilt once per direction
            for m in list(range(n - 1, -1, -1)) + list(range(n)):
                L = min(n - 1 - m, k)
                ref = _row_sum(fac, m, L, 2)
                assert fac.exponent(m, L).tobytes() == ref.tobytes(), (m, L)
                if L == k:
                    ones = np.ones(2 ** k)
                    assert fac.weights(m).tobytes() == _stable_weights(
                        ref, ones, (-2, -1)).tobytes(), m
        assert n - k <= ROW_BLOCK or fac._block[0] > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_message_with_zero_entries(self, k):
        """The masked _stable_weights branch, in both kernels."""
        ch = chain_view(random_instance("qudo", 10, 3, k, seed=k, lin_enabled=True), k)
        fac = ChainFactors(ch, self.TAUS)
        msgs = {m.origin: m for m in backward_pass_matrix(ch, _cfg(1.0), fac)}
        x = np.zeros((len(self.TAUS), ch.n), dtype=np.intp)
        x[:, ::2] = 1
        for m in range(ch.n - 1):
            nxt = msgs[m + 1]
            entries = nxt.entries.copy()
            entries[:, ::2] = 0.0
            msg = MessageState(entries, nxt.origin, nxt.length, nxt.d)
            got, want = GridFaults(len(self.TAUS)), GridFaults(len(self.TAUS))
            if m > 0:
                new = _transfer_flat(msg, m, fac, ch, got)
                assert new.entries.tobytes() == _transfer_ref(msg, m, fac, ch, want).tobytes()
            tdig = [x[:, m - 1 - j, None] for j in range(min(k, m))]
            assert (_candidates_flat(ch, fac, m, msg, tdig, got).tobytes()
                    == _candidates_ref(ch, fac, m, msg, tdig, want).tobytes())
            assert got.messages == want.messages == [None] * len(self.TAUS)

    def test_row_whose_shift_is_not_finite(self):
        """A row with no finite exponent at some grid points: those points
        fault in both kernels, and the others keep the per-row result."""
        ch = chain_view(_overflowing_row_instance(), 2)
        taus = np.array([1.0, 100.0, 150.0, 300.0])
        faults = GridFaults(len(taus))
        fac = ChainFactors(ch, taus, faults)
        assert fac.weights(3) is None and fac.weights(2) is not None
        msgs = {m.origin: m for m in backward_pass_matrix(ch, _cfg(1.0), fac, faults)}
        x = np.zeros((len(taus), ch.n), dtype=np.intp)
        for m in range(1, ch.n - 1):
            got, want = GridFaults(len(taus)), GridFaults(len(taus))
            new = _transfer_flat(msgs[m + 1], m, fac, ch, got)
            assert new.entries.tobytes() == _transfer_ref(
                msgs[m + 1], m, fac, ch, want).tobytes()
            assert got.messages == want.messages
            tdig = [x[:, m - 1 - j, None] for j in range(min(2, m))]
            assert (_candidates_flat(ch, fac, m, msgs[m + 1], tdig, got).tobytes()
                    == _candidates_ref(ch, fac, m, msgs[m + 1], tdig, want).tobytes())
        overflow = "overflow: tau * cost sums of all weighted states"
        assert faults.messages[0] is None
        assert all(msg.startswith(overflow) for msg in faults.messages[1:3])
        assert faults.messages[3].startswith("overflow")

    @pytest.mark.parametrize("solve", [solve_matrix, solve_waterfall])
    def test_tables_held_stay_within_one_block(self, solve, monkeypatch):
        """What ChainFactors holds besides its factor tables stays within
        ROW_BLOCK rows of G * d**(k+1) entries per table (E and W, plus a
        flag per row), for any n."""
        n, grid = 3000, (0.1, 500.0, 100)
        ch = chain_view(Problem(kind="qudo", n=n, d=2, quad={}), 1)
        bound = ROW_BLOCK * grid[2] * 2 ** 2
        largest, total = [], []

        def held(fac):
            base = {id(fac.taus), id(fac.sc), id(fac.cc)}
            stack = [v for key, v in vars(fac).items() if key not in ("cf", "points")]
            sizes = []
            while stack:
                value = stack.pop()
                if isinstance(value, dict):
                    stack.extend(value.values())
                elif isinstance(value, (list, tuple)):
                    stack.extend(value)
                elif isinstance(value, np.ndarray) and id(value) not in base:
                    sizes.append(value.size)
            largest.append(max(sizes, default=0))
            total.append(sum(sizes))

        for name in ("exponent", "weights"):
            def probe(fac, *args, _original=getattr(ChainFactors, name)):
                out = _original(fac, *args)
                held(fac)
                return out
            monkeypatch.setattr(ChainFactors, name, probe)
        res = solve(ch, SolverConfig(tau_grid=grid))
        assert res.assignment == [0] * n
        assert max(largest) == bound
        assert max(total) <= 2 * bound + ROW_BLOCK


# ---------------------------------------------------------------------------
# Scalar backward transfer against the numpy arithmetic


def _backward_ref(ch, fac, faults):
    """backward_pass_matrix's messages, every step by _transfer_ref."""
    d, k, n = ch.d, ch.k, ch.n
    msg = _transfer_flat(None, n - 1, fac, ch, faults)
    out = [msg]
    for m in range(n - 2, 0, -1):
        full = msg.length == k and m + k <= n - 1
        msg = MessageState(_transfer_ref(msg, m, fac, ch, faults), m,
                           k if full else msg.length + 1, d)
        out.append(msg)
    return out


def _message_bytes(msgs):
    return [(m.entries.tobytes(), m.entries.shape, m.origin, m.length) for m in msgs]


# every (d, k) with d**(k+1) <= SCALAR_CELLS, and for each d the first k above
SCALAR_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)]
ABOVE_SHAPES = [(2, 5), (3, 3), (4, 2), (5, 2), (6, 1), (7, 1)]


class TestScalarTransfer:
    TAUS = (0.01, 1.0, 50.0, 2000.0)

    def _compare(self, ch, tau):
        """One point, as a 1-point grid and as a scalar tau: the same
        messages and faults as the numpy arithmetic; returns the messages."""
        got, want = GridFaults(1), GridFaults(1)
        msgs = _outcome(lambda: backward_pass_matrix(
            ch, _cfg(1.0), ChainFactors(ch, np.array([tau]), got), got))
        ref = _outcome(lambda: _backward_ref(ch, ChainFactors(ch, np.array([tau]), want), want))
        assert _message_bytes(msgs) == _message_bytes(ref)
        assert got.messages == want.messages
        one = _outcome(lambda: backward_pass_matrix(ch, _cfg(1.0), ChainFactors(ch, tau)))
        one_ref = _outcome(lambda: _backward_ref(ch, ChainFactors(ch, tau), None))
        if isinstance(one_ref, str):
            assert one == one_ref
        else:
            assert _message_bytes(one) == _message_bytes(one_ref)
        return msgs

    @pytest.mark.parametrize("d, k", SCALAR_SHAPES + ABOVE_SHAPES)
    @pytest.mark.parametrize("n", [ROW_BLOCK + 1, ROW_BLOCK + 4, 2 * ROW_BLOCK + 7])
    def test_matches_numpy_arithmetic(self, n, d, k):
        ch = chain_view(random_instance("qudo", n, d, k, seed=n + d + k, lin_enabled=True), k)
        zeros = 0
        for tau in self.TAUS:
            msgs = self._compare(ch, tau)
            zeros += sum(int((m.entries == 0).any()) for m in msgs)
        assert zeros > 0  # tau = 2000 underflows entries: the numpy route runs there

    def test_tqudo(self):
        ch = chain_view(random_instance("tqudo", 40, 3, 2, seed=7), 2)
        for tau in self.TAUS:
            self._compare(ch, tau)

    @pytest.mark.parametrize("k, instance, tau", [(1, _overflowing_instance, 150.0),
                                                  (2, _overflowing_row_instance, 120.0),
                                                  (2, _overflowing_row_instance, 300.0)])
    def test_overflowing_instances(self, k, instance, tau):
        ch = chain_view(instance(), k)
        self._compare(ch, tau)

    def test_row_without_finite_exponent_faults_as_before(self):
        """Row 3 of _overflowing_row_instance has no finite exponent at tau =
        120: the numpy route faults there, with its message."""
        faults = GridFaults(1)
        ch = chain_view(_overflowing_row_instance(), 2)
        backward_pass_matrix(ch, _cfg(1.0), ChainFactors(ch, np.array([120.0]), faults), faults)
        assert faults.messages[0].startswith("overflow: tau * cost sums of all weighted states")


class TestScalarRoute:
    """Which backward rows go through numpy rather than _transfer_scalar."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The rows of a backward pass, last first, that _transfer_scalar
        did not return a message for."""
        scalar = set()
        original = chain_solver._transfer_scalar

        def counted(msg, m, fac):
            new = original(msg, m, fac)
            if new is not None:
                scalar.add(m)
            return new

        monkeypatch.setattr(chain_solver, "_transfer_scalar", counted)

        def run(ch, taus):
            scalar.clear()
            faults = GridFaults(len(taus))
            backward_pass_matrix(ch, _cfg(1.0), ChainFactors(ch, taus, faults), faults)
            return [m for m in range(ch.n - 1, 0, -1) if m not in scalar]
        return run

    def test_long_chain_takes_the_scalar_route(self, rows):
        n, k = 500, 2
        ch = chain_view(random_instance("qudo", n, 2, k, seed=1, lin_enabled=True), k)
        assert rows(ch, np.array([50.0])) == [n - 1, n - 2]  # the edge messages

    def test_two_points_take_numpy(self, rows):
        n, k = 500, 2
        ch = chain_view(random_instance("qudo", n, 2, k, seed=1, lin_enabled=True), k)
        assert rows(ch, np.array([5.0, 50.0])) == list(range(n - 1, 0, -1))

    def test_wide_window_takes_numpy(self, rows):
        n, k = 40, 4
        ch = chain_view(random_instance("tqudo", n, 3, k, seed=1), k)
        assert rows(ch, np.array([50.0])) == list(range(n - 1, 0, -1))

    @pytest.mark.parametrize("d, k, scalar", [(2, 4, True), (6, 1, False)])
    def test_limit(self, rows, d, k, scalar):
        """d**(k+1) = 32 = SCALAR_CELLS takes the route, 36 does not."""
        ch = chain_view(random_instance("qudo", 20, d, k, seed=3), k)
        edges = list(range(19, 19 - k, -1))
        assert rows(ch, np.array([1.0])) == (edges if scalar else list(range(19, 0, -1)))


# ---------------------------------------------------------------------------
# Block forward route against the per-variable loop


def _per_variable_batch(chain, cfg, seen):
    """solve_matrix's batch with every variable taken one at a time, as
    marginal_matrix, then normalize, then argmax_extract; appends each
    batch's (x, marginals) to seen."""
    def solve_batch(taus):
        faults = GridFaults(len(taus))
        fac = ChainFactors(chain, taus, faults)
        msgs = chain_solver.backward_pass_matrix(chain, cfg, fac, faults)
        by_origin = {msg.origin: msg for msg in msgs}
        x = np.zeros((len(taus), chain.n), dtype=np.intp)
        margs = []
        for m in range(chain.n):
            vec = marginal_matrix(chain, fac, m, by_origin.get(m + 1), x, faults)
            vec = normalize(vec, axis=-1)[0]
            margs.append(vec)
            x[:, m] = argmax_extract(vec)
        seen.append((x, margs))
        return x, faults.messages, _chain_finish(x, margs, len(msgs))
    return solve_batch


def _marginal_bytes(margs):
    return [np.ascontiguousarray(v).tobytes() for v in margs]


def _outcome(solve):
    try:
        return solve()
    except NumericFaultError as exc:
        return str(exc)


def assert_same_as_per_variable(monkeypatch, ch, cfg):
    """solve_matrix gives the per-variable loop's bytes: the winner's
    assignment, cost, tau, skipped points and marginals (or the same fault
    when every point faults), and every grid point's assignment and
    marginals.  Returns the result."""
    got, seen = [], []

    def spy(x, margs, held):
        got.append((x.copy(), margs))
        return _chain_finish(x, margs, held)

    monkeypatch.setattr(chain_solver, "_chain_finish", spy)
    res = _outcome(lambda: solve_matrix(ch, cfg))
    ref = _outcome(lambda: solve_grid(ch.problem, cfg, _check_chain_capacity(ch),
                                      _per_variable_batch(ch, cfg, seen)))
    if isinstance(ref, str):
        assert res == ref
    else:
        assert (res.assignment, res.cost, res.tau, res.skipped_taus) == (
            ref.assignment, ref.cost, ref.tau, ref.skipped_taus)
        assert (_marginal_bytes(v.entries for v in res.marginals)
                == _marginal_bytes(v.entries for v in ref.marginals))
    assert len(got) == len(seen)
    for (x, margs), (x_ref, margs_ref) in zip(got, seen):
        assert x.tobytes() == x_ref.tobytes()
        assert _marginal_bytes(margs) == _marginal_bytes(margs_ref)
    return res


def _cross_wall_instance(n, k, m):
    """Variable m-1 at 1 costs +1e306 against every value of m, and at 0
    -1e306: for tau in about (90, 180) the shifted cross into m is +inf from
    x[m-1] = 1, so row m's candidates for that predecessor have no finite
    exponent, while the realised x[m-1] = 0 keeps them finite."""
    qhat = dict(to_tqudo(random_instance("qudo", n, 2, k, seed=n + k)).qhat)
    for b in range(2):
        qhat[(m - 1, m, 0, b)] = -1e306
        qhat[(m - 1, m, 1, b)] = 1e306
    return Problem(kind="tqudo", n=n, d=2, qhat=qhat)


class TestBlockForward:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [ROW_BLOCK + 1, ROW_BLOCK + 4, 2 * ROW_BLOCK + 7])
    @pytest.mark.parametrize("tau", [50.0, (0.5, 200.0, 2), (0.1, 500.0, 5)])
    def test_matches_per_variable_loop(self, monkeypatch, n, k, tau):
        p = random_instance("qudo", n, 2, k, seed=10 * n + k, lin_enabled=True)
        cfg = SolverConfig(tau_grid=tau) if isinstance(tau, tuple) else _cfg(tau)
        assert_same_as_per_variable(monkeypatch, chain_view(p, k), cfg)

    @pytest.mark.parametrize("k", [1, 2])
    def test_d3_and_tqudo(self, monkeypatch, k):
        p = random_instance("tqudo", ROW_BLOCK + 5, 3, k, seed=k)
        for cfg in (_cfg(10.0), SolverConfig(tau_grid=(1.0, 100.0, 2))):
            assert_same_as_per_variable(monkeypatch, chain_view(p, k), cfg)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_messages_with_zero_entries(self, monkeypatch, k):
        """Every other entry of every backward message is zero, so each
        block takes the masked stabilisation."""
        backward = chain_solver.backward_pass_matrix

        def zeroed(*args):
            msgs = backward(*args)
            for msg in msgs:
                msg.entries[..., ::2] = 0.0
            return msgs

        p = random_instance("qudo", ROW_BLOCK + 9, 2, k, seed=k, lin_enabled=True)
        monkeypatch.setattr(chain_solver, "backward_pass_matrix", zeroed)
        for cfg in (_cfg(5.0), SolverConfig(tau_grid=(0.5, 50.0, 3))):
            res = assert_same_as_per_variable(monkeypatch, chain_view(p, k), cfg)
            assert res.skipped_taus == []

    @pytest.mark.parametrize("k, instance", [(1, _overflowing_instance),
                                             (2, _overflowing_row_instance)])
    def test_overflowing_instances(self, monkeypatch, k, instance):
        ch = chain_view(instance(), k)
        res = assert_same_as_per_variable(
            monkeypatch, ch, SolverConfig(tau_grid=(0.1, 500.0, 12)))
        assert res.skipped_taus
        for tau in (1.0, 100.0, 150.0, 300.0):
            assert_same_as_per_variable(monkeypatch, ch, _cfg(tau))

    @pytest.mark.parametrize("k", [1, 2])
    def test_unrealised_combination_without_finite_exponent(self, monkeypatch, k):
        """Only the realised combination decides whether a point faults: a
        row whose candidates for an unrealised predecessor value all vanish
        leaves the point solved, as the per-variable route does."""
        m = ROW_BLOCK + 3
        ch = chain_view(_cross_wall_instance(2 * ROW_BLOCK, k, m), k)
        vanished = []
        candidates = chain_solver._candidates_flat

        def spy(chain, fac, rows, *args):
            try:
                return candidates(chain, fac, rows, *args)
            except NumericFaultError:
                vanished.append((rows.start, rows.stop))
                raise

        monkeypatch.setattr(chain_solver, "_candidates_flat", spy)
        for cfg in (_cfg(100.0), _cfg(150.0), SolverConfig(tau_grid=(1.0, 150.0, 8))):
            vanished.clear()
            res = assert_same_as_per_variable(monkeypatch, ch, cfg)
            assert res.skipped_taus == []
            assert res.assignment[m - 1] == 0
            # the block holding row m met the vanished candidates
            assert vanished == [(ROW_BLOCK, 2 * ROW_BLOCK - k)]


class TestForwardRoute:
    """Which rows go through marginal_matrix, and how large a block gets."""

    def _count(self, monkeypatch):
        calls = []
        original = chain_solver.marginal_matrix

        def counted(chain, fac, m, *args):
            calls.append(m)
            return original(chain, fac, m, *args)

        monkeypatch.setattr(chain_solver, "marginal_matrix", counted)
        return calls

    def test_long_chain_uses_blocks(self, monkeypatch):
        n, k = 500, 2
        calls = self._count(monkeypatch)
        solve_matrix(chain_view(random_instance("qudo", n, 2, k, seed=1, lin_enabled=True), k),
                     _cfg(50.0))
        assert calls == [0, 1, n - 2, n - 1]

    def test_wide_window_goes_per_variable(self, monkeypatch):
        n, k = 20, 4
        calls = self._count(monkeypatch)
        solve_matrix(chain_view(random_instance("tqudo", n, 3, k, seed=1), k), _cfg(50.0))
        assert calls == list(range(n))

    @pytest.mark.parametrize("points, blocks", [(BLOCK_CELLS // 8, True),
                                                (BLOCK_CELLS // 8 + 1, False)])
    def test_block_size_is_bounded(self, monkeypatch, points, blocks):
        """d = 2, k = 1: 8 cells per row and grid point, so 64 points are
        the most a block takes; its candidate exponents then fill
        ROW_BLOCK * BLOCK_CELLS entries and never more."""
        sizes = []

        def spy(exponent, *args):
            sizes.append(exponent.size)
            return _stable_weights(exponent, *args)

        calls = self._count(monkeypatch)
        monkeypatch.setattr(chain_solver, "_stable_weights", spy)
        n = 3 * ROW_BLOCK
        p = random_instance("qudo", n, 2, 1, seed=2)
        solve_matrix(chain_view(p, 1), SolverConfig(tau_grid=(0.1, 500.0, points)))
        assert max(sizes) <= ROW_BLOCK * BLOCK_CELLS
        assert (max(sizes) == ROW_BLOCK * BLOCK_CELLS) == blocks
        assert len(calls) == (2 if blocks else n)
