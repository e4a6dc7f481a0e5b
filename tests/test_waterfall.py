"""Waterfall solver: candidate tables, cascade detection, memory, restarts."""
import numpy as np
import pytest

from qudotn import (
    CapacityError,
    Problem,
    WaterfallStats,
    WaterfallTable,
    candidate_table,
    chain_view,
    check_cascade,
    random_instance,
    solve_matrix,
    solve_waterfall,
)
from qudotn.chain_solver import ChainFactors, backward_pass_matrix
from qudotn.tn_core import SolverConfig


def _cfg(tau, **kw):
    return SolverConfig(tau=tau, **kw)


class TestCandidateTable:
    def test_decoupled_row_uniform(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): 0.0, (1, 2): 0.5})
        ch = chain_view(p, 1)
        cfg = _cfg(1.0)
        fac = ChainFactors(ch, cfg.tau)
        msgs = {m.origin: m for m in backward_pass_matrix(ch, cfg, fac)}
        tab = candidate_table(msgs[2], ch, 1, cfg, fac)
        assert len(tab.entries) == 2
        assert tab.entries[0] == tab.entries[1]

    def test_strong_negative_coupling(self):
        # predecessor 0 sees a flat vector (tie -> 0); predecessor 1 pushes
        # the weight e^{+15} onto value 1
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): -3.0})
        ch = chain_view(p, 1)
        cfg = _cfg(5.0)
        tab = candidate_table(None, ch, 1, cfg)
        assert list(tab.entries) == [0, 1]

    def test_boundary_row_single_entry(self):
        p = random_instance("qudo", 4, 2, 2, seed=1)
        ch = chain_view(p, 2)
        cfg = _cfg(1.0)
        fac = ChainFactors(ch, cfg.tau)
        msgs = {m.origin: m for m in backward_pass_matrix(ch, cfg, fac)}
        tab = candidate_table(msgs[1], ch, 0, cfg, fac)
        assert len(tab.entries) == 1 and tab.npred == 0

    def test_table_length_is_d_pow_npred(self):
        p = random_instance("qudo", 8, 3, 2, seed=2)
        ch = chain_view(p, 2)
        cfg = _cfg(1.0)
        fac = ChainFactors(ch, cfg.tau)
        msgs = {m.origin: m for m in backward_pass_matrix(ch, cfg, fac)}
        tab = candidate_table(msgs[5], ch, 4, cfg, fac)
        assert len(tab.entries) == 9 and tab.npred == 2


class TestCheckCascade:
    def test_constant_table_fires(self):
        tab = WaterfallTable(row=3, entries=np.array([1, 1]), npred=1, d=2)
        assert check_cascade([tab], d=2, k=1) == [1]

    def test_mixed_table_blocks(self):
        tab = WaterfallTable(row=3, entries=np.array([0, 1]), npred=1, d=2)
        assert check_cascade([tab], d=2, k=1) is None

    def test_restricted_constancy_k2(self):
        # first table all 2; second only needs constancy where the nearest
        # predecessor (low digit) equals 2
        t0 = WaterfallTable(row=4, entries=np.full(9, 2), npred=2, d=3)
        entries = np.arange(9) % 3          # garbage everywhere ...
        entries[2::3] = 0                   # ... but constant where digit0 == 2
        t1 = WaterfallTable(row=5, entries=entries, npred=2, d=3)
        assert check_cascade([t0, t1], d=3, k=2) == [2, 0]

    def test_restricted_constancy_k2_blocks(self):
        t0 = WaterfallTable(row=4, entries=np.full(9, 2), npred=2, d=3)
        entries = np.zeros(9, dtype=int)
        entries[2] = 1                      # violates constancy at digit0 == 2
        t1 = WaterfallTable(row=5, entries=entries, npred=2, d=3)
        assert check_cascade([t0, t1], d=3, k=2) is None


class TestSolveWaterfall:
    def test_decoupled_instance(self):
        p = Problem(kind="qudo", n=8, d=3, quad={})
        res = solve_waterfall(chain_view(p, 1), _cfg(1.0))
        assert res.assignment == [0] * 8
        assert res.stats.w_prob == 1.0
        assert res.stats.uniform_events == 8

    def test_signed_couplings_match_matrix(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): -1.0, (1, 2): 1.0})
        res = solve_waterfall(chain_view(p, 1), _cfg(10.0))
        assert res.assignment == [1, 1, 0] and res.cost == -1.0

    def test_w_prob_ratio_definition(self):
        stats = WaterfallStats(uniform_events=50)
        stats.w_prob = stats.uniform_events / 200
        assert stats.w_prob == 0.25

    @pytest.mark.parametrize("seed", range(12))
    def test_equivalence_with_matrix(self, seed):
        n = 10 + 10 * (seed % 4)
        d = 2 + seed % 3
        k = 1 + seed % 2
        tau = [1.0, 10.0, 50.0][seed % 3]
        p = random_instance("qudo", n, d, k, seed=seed, lin_enabled=True)
        ch = chain_view(p, k)
        a = solve_matrix(ch, _cfg(tau))
        b = solve_waterfall(ch, _cfg(tau))
        assert a.assignment == b.assignment

    def test_uniform_table_decides_variable(self):
        # variable 4 decoupled from its predecessor: its table is uniform and
        # the final value must equal the uniform entry
        quad = {(i, i + 1): 0.8 for i in range(7)}
        quad[(3, 4)] = 0.0
        quad[(4, 4)] = -1.0  # pushes x_4 toward 1
        p = Problem(kind="qudo", n=8, d=2, quad=quad)
        res = solve_waterfall(chain_view(p, 1), _cfg(5.0))
        assert res.assignment[4] == 1
        assert res.assignment == solve_matrix(chain_view(p, 1),
                                              _cfg(5.0)).assignment

    def test_memory_release_on_mid_decoupling(self):
        rng = np.random.default_rng(0)
        n, k = 20, 1
        quad = {}
        for i in range(n):
            for j in range(i, min(i + k, n - 1) + 1):
                if (i, j) != (n // 2 - 1, n // 2):
                    quad[(i, j)] = float(rng.uniform(-1.0, 1.0))
        quad[(n // 2 - 1, n // 2)] = 0.0
        p = Problem(kind="qudo", n=n, d=2, quad=quad)
        res = solve_waterfall(chain_view(p, k), _cfg(50.0))
        assert res.stats.peak_tables_held <= n // 2 + k


class TestRestart:
    def test_restart_counts_and_cost(self):
        p = random_instance("qudo", 30, 2, 2, seed=7, lin_enabled=True)
        ch = chain_view(p, 2)
        plain = solve_waterfall(ch, _cfg(5.0))
        restarted = solve_waterfall(ch, _cfg(5.0, restart_factor=2.0))
        assert plain.stats.restarts == 0
        assert restarted.stats.restarts >= 1
        # the restart re-solves prefixes at larger tau; the result can only
        # be evaluated against the true cost function
        from qudotn import evaluate_cost
        assert restarted.cost == evaluate_cost(p, restarted.assignment)

    def test_restart_factor_one_is_equivalence(self):
        p = random_instance("qudo", 25, 3, 1, seed=8, lin_enabled=True)
        ch = chain_view(p, 1)
        a = solve_matrix(ch, _cfg(10.0))
        b = solve_waterfall(ch, _cfg(10.0, restart_factor=1.0))
        assert a.assignment == b.assignment


def test_candidate_tables_bounded_by_chain_cap(monkeypatch):
    """A row table of d^(2k+1) = 128 cells exceeds a cap of 64 that admits
    the d^k = 8-entry message of the matrix method."""
    ch = chain_view(random_instance("qudo", 12, 2, 3, seed=4), 3)
    monkeypatch.setenv("QUDOTN_CHAIN_CAP", "64")
    with pytest.raises(CapacityError, match="candidate table size"):
        solve_waterfall(ch, _cfg(5.0))
    solve_matrix(ch, _cfg(5.0))
