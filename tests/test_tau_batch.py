"""Tau-batched grid solves against the per-tau loop they replace.

The reference below is the loop the driver used to run: one single-tau solve
per grid point, faulted points skipped, the lowest cost kept and ties left to
the smallest tau.  A batched solve must give the same winner on the seeds of
acceptance criteria 1, 3, 6 and 8 (with fewer instances).
"""
from dataclasses import replace

import numpy as np
import pytest

from qudotn import (NumericFaultError, Problem, chain_view, random_instance,
                    solve_dense, solve_matrix, solve_tensor, solve_waterfall,
                    to_tqudo)
from qudotn.cli import main as cli_main
from qudotn.driver import solve_instance
from qudotn.tn_core import SolverConfig, tau_grid_values

GRID = (0.1, 500.0, 100)


def per_tau_loop(solve, chain, cfg, skipped=None):
    """(tau, result) of the winning grid point; the faulted points' (tau,
    message) pairs are appended to skipped."""
    best = None
    for tau in tau_grid_values(cfg.tau_grid):
        try:
            res = solve(chain, replace(cfg, tau=float(tau), tau_grid=None))
        except NumericFaultError as exc:
            if skipped is not None:
                skipped.append((float(tau), str(exc)))
            continue
        if best is None or res.cost < best[1].cost:
            best = (float(tau), res)
    if best is None:
        raise NumericFaultError("every tau grid point faulted")
    return best


def assert_same_winner(chain, cfg, solve, may_skip=False):
    """The batched solve picks the per-tau loop's winner and skips the same
    points; unless may_skip, no grid point may fault at all."""
    skipped = []
    tau, ref = per_tau_loop(solve, chain, cfg, skipped)
    res = solve(chain, cfg)
    assert res.assignment == ref.assignment
    assert res.cost == ref.cost
    assert res.tau == tau
    assert res.skipped_taus == skipped
    if not may_skip:
        assert skipped == []
    return ref, res


def assert_same_waterfall(chain, cfg):
    ref, res = assert_same_winner(chain, cfg, solve_waterfall)
    assert res.stats == ref.stats
    return ref, res


@pytest.mark.parametrize("idx", range(0, 200, 17))
def test_dense_grid_criterion_1_seeds(idx):
    n, d = 2 + idx % 9, 2 + idx % 2
    p = random_instance("qudo", n, d, max(n - 1, 1), seed=1000 + idx,
                        lin_enabled=True)
    assert_same_winner(p, SolverConfig(tau_grid=GRID), solve_dense, may_skip=True)


@pytest.mark.parametrize("idx", range(0, 200, 20))
def test_matrix_grid_criterion_3_seeds(idx):
    n, d, k = 4 + idx % 9, 2 + idx % 2, 1 + idx % 3
    p = random_instance("qudo", n, d, k, seed=3000 + idx, lin_enabled=True)
    for solve in (solve_matrix, solve_tensor):
        assert_same_winner(chain_view(p, k), SolverConfig(tau_grid=GRID), solve)


@pytest.mark.parametrize("idx", range(0, 100, 10))
def test_matrix_grid_criterion_8_seeds(idx):
    n, d, k = 4 + idx % 7, 2 + idx % 2, 1 + idx % 2
    p = random_instance("tqudo", n, d, k, seed=8000 + idx)
    for solve in (solve_matrix, solve_tensor):
        assert_same_winner(chain_view(p, k), SolverConfig(tau_grid=GRID), solve)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_waterfall_grid_criterion_6_seeds(d):
    p = random_instance("qudo", 200, d, 1, seed=6000 + 100 * d, lin_enabled=True)
    assert_same_waterfall(chain_view(p, 1), SolverConfig(tau_grid=GRID))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_waterfall_grid_with_restarts(seed, factor):
    d, k = 2 + seed % 3, 1 + seed % 2
    p = random_instance("qudo", 40, d, k, seed=6000 + seed, lin_enabled=True)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 20), restart_factor=factor)
    ref, _ = assert_same_waterfall(chain_view(p, k), cfg)
    if seed == 0:
        assert ref.stats.restarts >= 1


@pytest.mark.parametrize("seed", range(3))
def test_grid_keep_trace_marginals(seed):
    p = random_instance("qudo", 12, 3, 2, seed=seed, lin_enabled=True)
    ch = chain_view(p, 2)
    cfg = SolverConfig(tau_grid=(0.5, 100.0, 15), keep_trace=True)
    ref, res = assert_same_waterfall(ch, cfg)
    matrix = solve_matrix(ch, cfg)
    for a, b, c in zip(ref.marginals, res.marginals, matrix.marginals):
        assert a.entries.tobytes() == b.entries.tobytes()
        assert np.max(np.abs(b.entries - c.entries)) <= 1e-12


def test_grid_split_into_chunks(monkeypatch):
    p = random_instance("qudo", 30, 3, 2, seed=5, lin_enabled=True)
    ch = chain_view(p, 2)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 11))
    dense = random_instance("qudo", 8, 3, 7, seed=5, lin_enabled=True)
    whole = [solve_matrix(ch, cfg), solve_waterfall(ch, cfg), solve_dense(dense, cfg)]
    monkeypatch.setenv("QUDOTN_CHAIN_CAP", str(4 * 3 ** 2))  # 4 points a batch
    monkeypatch.setenv("QUDOTN_DENSE_CAP", str(4 * 3 ** 7))  # and 4 for dense
    assert_same_winner(ch, cfg, solve_matrix)
    assert_same_waterfall(ch, cfg)
    assert_same_winner(dense, cfg, solve_dense, may_skip=True)
    chunked = [solve_matrix(ch, cfg), solve_waterfall(ch, cfg), solve_dense(dense, cfg)]
    for a, b in zip(whole, chunked):
        assert (a.assignment, a.cost, a.tau) == (b.assignment, b.cost, b.tau)


def test_driver_reports_winning_tau_once_per_grid():
    p = random_instance("qudo", 20, 3, 1, seed=9, lin_enabled=True)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 25))
    outs = [solve_instance(p, m, cfg) for m in ("matrix", "tensor", "waterfall")]
    assert len({(tuple(o.assignment), o.cost, o.tau) for o in outs}) == 1


def test_unknown_method_fails_before_any_work():
    p = random_instance("qudo", 6, 2, 5, seed=1)  # k=1 would not fit its band
    with pytest.raises(ValueError, match="unknown method"):
        solve_instance(p, "bogus", SolverConfig(), k=1)


def _overflowing_instance():
    """Variable 0 has costs -1e306 and +1e306: tau * cost leaves float range
    for tau > ~180."""
    qhat = dict(to_tqudo(random_instance("qudo", 8, 2, 1, seed=3)).qhat)
    qhat[(0, 0, 0, 0)] = -1e306
    qhat[(0, 0, 1, 1)] = 1e306
    return Problem(kind="tqudo", n=8, d=2, qhat=qhat)


@pytest.mark.parametrize("method", ["matrix", "tensor", "waterfall", "dense"])
def test_faulted_grid_points_are_listed(method):
    p = _overflowing_instance()
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 12))
    out = solve_instance(p, method, cfg)
    taus = tau_grid_values(cfg.tau_grid)
    assert [tau for tau, _ in out.skipped_taus] == [float(t) for t in taus if t > 180.0]
    overflow = "overflow: tau * cost leaves float range"
    assert all(msg.startswith(overflow) for _, msg in out.skipped_taus)
    solve = {"matrix": solve_matrix, "tensor": solve_tensor,
             "waterfall": solve_waterfall, "dense": solve_dense}[method]
    tau, ref = per_tau_loop(solve, p if method == "dense" else chain_view(p, 1), cfg)
    assert (out.assignment, out.cost, out.tau) == (ref.assignment, ref.cost, tau)
    with pytest.raises(NumericFaultError, match="^overflow"):
        solve_instance(p, method, replace(cfg, tau_grid=(200.0, 500.0, 4)))
    with pytest.raises(NumericFaultError, match="^overflow"):
        solve_instance(p, method, replace(cfg, tau=300.0, tau_grid=None))


def test_unfaulted_grid_skips_nothing():
    p = random_instance("qudo", 10, 2, 1, seed=1)
    out = solve_instance(p, "waterfall", SolverConfig(tau_grid=(0.1, 500.0, 8)))
    assert out.skipped_taus == []


class TestIterativeRestart:
    DECOUPLED = 3000

    def test_long_decoupled_chain(self):
        p = Problem(kind="qudo", n=self.DECOUPLED, d=2, quad={})
        res = solve_waterfall(chain_view(p, 1), SolverConfig(tau=50.0, restart_factor=0.5))
        assert res.stats.w_prob == 1.0
        assert res.stats.restarts == self.DECOUPLED - 1
        assert res.assignment == [0] * self.DECOUPLED

    def test_cli_solve_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "decoupled.json"
        path.write_text('{"kind": "qudo", "n": %d, "d": 2, "q": []}' % self.DECOUPLED)
        code = cli_main(["solve", "--input", str(path), "--method", "waterfall",
                         "--restart-factor", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "w_prob 1.0" in out
