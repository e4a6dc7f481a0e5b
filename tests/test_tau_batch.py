"""Tau-batched grid solves against the per-tau loop they replace.

The reference below is the loop the driver used to run: one single-tau solve
per grid point, faulted points skipped, the lowest cost kept and ties left to
the smallest tau.  A batched solve must give the same winner on the seeds of
acceptance criteria 1, 3, 6 and 8 (with fewer instances).
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qudotn import (NumericFaultError, Problem, chain_view, random_instance,
                    solve_dense, solve_matrix, solve_tensor, solve_waterfall,
                    to_tqudo)
from qudotn.cli import main as cli_main
from qudotn.driver import solve_instance
from qudotn.tn_core import SolverConfig, tau_grid_values
from qudotn.waterfall import _waterfall_pass

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
    # dense sums exponents as the chain kernels do, so no point underflows
    assert_same_winner(p, SolverConfig(tau_grid=GRID), solve_dense)


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


# criterion-6 winners with restarts: (d, factor, sha256 of the assignment's
# str, cost, tau, restarts, uniform_events), recorded from the per-point
# restart loop that the in-pass restarts replaced
RESTART_WINNERS = [
    (2, 0.5, "75cbf1c5fac1b9f2", -33.83576689492559, 44.956932393565204, 186, 187),
    (2, 2.0, "e9753eddea484744", -87.17208791328085, 0.1, 156, 157),
    (4, 0.5, "ff8e19efe8a6dfaa", -293.57820034644516, 53.397796576085156, 155, 156),
    (4, 2.0, "290989b325fbb947", -612.0199782876231, 0.10898414799852864, 136, 137),
    (6, 0.5, "2d91f23a39ee5e03", -793.9395431337331, 137.568817325154, 155, 156),
    (6, 2.0, "da441705df65d6ef", -1518.8569802286577, 0.1, 130, 131),
]


@pytest.mark.parametrize("d,factor,digest,cost,tau,restarts,events", RESTART_WINNERS)
def test_restart_winners_are_pinned(d, factor, digest, cost, tau, restarts, events):
    """A change to the restart rule shows up here as a changed winner."""
    p = random_instance("qudo", 200, d, 1, seed=6000 + 100 * d, lin_enabled=True)
    res = solve_waterfall(chain_view(p, 1), SolverConfig(tau_grid=GRID, restart_factor=factor))
    assert hashlib.sha256(str(res.assignment).encode()).hexdigest()[:16] == digest
    assert (repr(res.cost), res.tau) == (repr(cost), tau)
    assert (res.stats.restarts, res.stats.uniform_events) == (restarts, events)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_every_waterfall_point_is_matrix(d):
    """Every point of a batched waterfall pass, not only the winner, sets
    the assignment that solve_matrix gives at that tau alone."""
    p = random_instance("qudo", 200, d, 1, seed=6000 + 100 * d, lin_enabled=True)
    ch = chain_view(p, 1)
    taus = tau_grid_values((0.1, 500.0, 25))
    out = _waterfall_pass(ch, SolverConfig(), taus)
    assert out.faults.messages == [None] * len(taus)
    assert not out.restarts.any()
    for tau, x in zip(taus, out.x):
        assert x.tolist() == solve_matrix(ch, SolverConfig(tau=float(tau))).assignment


def test_restart_tau_overflow_is_a_skipped_point():
    """A decoupled n = 3 chain restarts twice, so the last round runs at
    tau * 1e300: finite for tau = 1e-10, inf for tau = 1e10."""
    ch = chain_view(Problem(kind="qudo", n=3, d=2, quad={}), 1)
    cfg = SolverConfig(tau_grid=(1e-10, 1e10, 2), restart_factor=1e150)
    res = solve_waterfall(ch, cfg)
    assert res.tau == 1e-10 and res.stats.restarts == 2
    assert res.skipped_taus == [(1e10, "overflow: restart tau leaves float range")]


def test_grid_split_into_chunks(monkeypatch):
    p = random_instance("qudo", 30, 3, 2, seed=5, lin_enabled=True)
    ch = chain_view(p, 2)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 11))
    dense = random_instance("qudo", 8, 3, 7, seed=5, lin_enabled=True)
    whole = [solve_matrix(ch, cfg), solve_waterfall(ch, cfg), solve_dense(dense, cfg)]
    monkeypatch.setenv("QUDOTN_CHAIN_CAP", str(4 * 3 ** 2))  # 4 points a batch
    monkeypatch.setenv("QUDOTN_DENSE_CAP", str(4 * 3 ** 7))  # and 4 for dense
    assert_same_winner(ch, cfg, solve_matrix)
    assert_same_winner(dense, cfg, solve_dense, may_skip=True)
    chunked = [solve_matrix(ch, cfg), None, solve_dense(dense, cfg)]
    # a waterfall point holds row tables of up to d^(2k+1) cells
    monkeypatch.setenv("QUDOTN_CHAIN_CAP", str(4 * 3 ** 5))  # 4 points a batch
    assert_same_waterfall(ch, cfg)
    chunked[1] = solve_waterfall(ch, cfg)
    for a, b in zip(whole, chunked):
        assert (a.assignment, a.cost, a.tau) == (b.assignment, b.cost, b.tau)


def test_driver_reports_winning_tau_once_per_grid():
    p = random_instance("qudo", 20, 3, 1, seed=9, lin_enabled=True)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 25))
    outs = [solve_instance(p, m, cfg) for m in ("matrix", "tensor", "waterfall")]
    assert len({(tuple(o.assignment), o.cost, o.tau) for o in outs}) == 1


@pytest.mark.parametrize("method", ["matrix", "tensor", "waterfall", "dense"])
def test_driver_returns_the_solvers_record(method):
    """solve_instance hands back the solver's own record: the chain and dense
    methods' marginals and messages held, the waterfall's stats."""
    p = random_instance("qudo", 9, 3, 2, seed=5, lin_enabled=True)
    cfg = SolverConfig(tau_grid=(0.1, 500.0, 12))
    solve = {"matrix": solve_matrix, "tensor": solve_tensor,
             "waterfall": solve_waterfall, "dense": solve_dense}[method]
    ref = solve(p if method == "dense" else chain_view(p, 2), cfg)
    out = solve_instance(p, method, cfg)
    assert (out.assignment, out.cost, out.tau, out.skipped_taus) == (
        ref.assignment, ref.cost, ref.tau, ref.skipped_taus)
    if method == "waterfall":
        assert out.stats == ref.stats
        assert out.peak_memory_proxy == ref.stats.peak_tables_held
    else:
        assert len(out.marginals) == p.n
        assert ([v.entries.tobytes() for v in out.marginals]
                == [v.entries.tobytes() for v in ref.marginals])
        assert out.peak_memory_proxy == ref.messages_held


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


def _extreme_chain(rng, wall: bool):
    """A small random T-QUDO chain with three costs replaced by +-10**e, e
    in 0..307.  With wall, some row m also costs -+1e306 at 0 and 1 and its
    crosses to m+1 +-1e306 from 0 and 1, so that for tau in about (90, 180)
    no state of row m has a finite shifted exponent."""
    n, d, k = int(rng.integers(4, 9)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
    qhat = dict(to_tqudo(random_instance("qudo", n, d, k, seed=int(rng.integers(1 << 30)),
                                         lin_enabled=True)).qhat)
    keys = list(qhat)
    for i in rng.choice(len(keys), size=3, replace=False):
        qhat[keys[i]] = float(rng.choice([-1.0, 1.0]) * 10.0 ** int(rng.integers(0, 308)))
    if wall:
        m = int(rng.integers(0, n - 1))
        qhat[(m, m, 0, 0)], qhat[(m, m, 1, 1)] = -1e306, 1e306
        for b in range(d):
            qhat[(m, m + 1, 0, b)], qhat[(m, m + 1, 1, b)] = 1e306, -1e306
    return Problem(kind="tqudo", n=n, d=d, qhat=qhat), k


def test_numeric_faults_come_from_exponents_only():
    """Every numeric fault a solve meets, skipped grid point or raised
    error, is an overflow of an exponent or of a cost sum: normalising a
    message, a boundary or a marginal never faults."""
    rng = np.random.default_rng(17)
    solved, seen = 0, set()
    for i in range(40):
        p, k = _extreme_chain(rng, wall=i % 2 == 1)
        for cfg in (SolverConfig(tau_grid=(1e-300, 1e300, 9)),
                    SolverConfig(tau_grid=(0.1, 500.0, 12)),
                    SolverConfig(tau=float(10.0 ** rng.uniform(-3.0, 4.0))),
                    SolverConfig(tau_grid=(1e-2, 1e5, 6), restart_factor=2.0),
                    SolverConfig(tau_grid=(1e-2, 1e5, 6), restart_factor=1e100)):
            for method in ("matrix", "tensor", "waterfall", "dense"):
                try:
                    messages = [m for _, m in solve_instance(p, method, cfg, k=k).skipped_taus]
                    solved += 1
                except NumericFaultError as exc:
                    messages = [str(exc)]
                assert all(m.startswith("overflow:") for m in messages), messages
                seen.update(m.split(" (")[0] for m in messages)
    assert solved > 0
    assert {"overflow: tau * cost leaves float range",
            "overflow: tau * cost sums of all weighted states leave float range"} <= seen


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
