"""Dense stair-network construction and contraction."""
import math
import os

import numpy as np
import pytest

from qudotn import (
    CapacityError,
    Problem,
    brute_force,
    build_stair,
    contract_marginal,
    direct_marginal,
    normalize,
    random_instance,
    solve_dense,
)
from qudotn.dense_solver import _stair_rows
from qudotn.tn_core import SolverConfig


def _cfg(tau):
    return SolverConfig(tau=tau)


class TestBuildStair:
    def test_marginal_example(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        net = build_stair(p, _cfg(1.0))
        vec = contract_marginal(net, 0, {}).entries
        want, _ = normalize(np.array([2.0, 1.0 + math.exp(-1.0)]))
        assert vec == pytest.approx(want, rel=1e-12)

    def test_zero_instance_constant_marginal(self):
        p = Problem(kind="qudo", n=4, d=3, quad={})
        net = build_stair(p, _cfg(1.0))
        vec = contract_marginal(net, 0, {}).entries
        assert vec == pytest.approx([1.0, 1.0, 1.0])

    def test_negative_coupling_argmax(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): -1.0})
        net = build_stair(p, _cfg(1.0))
        vec = contract_marginal(net, 0, {}).entries
        assert int(np.argmax(vec)) == 1

    def test_capacity_error(self):
        p = random_instance("qudo", 30, 2, 1, seed=0)
        with pytest.raises(CapacityError):
            build_stair(p, _cfg(1.0))

    def test_capacity_env_override(self):
        p = random_instance("qudo", 8, 2, 1, seed=0)
        os.environ["QUDOTN_DENSE_CAP"] = "4"
        try:
            with pytest.raises(CapacityError):
                build_stair(p, _cfg(1.0))
        finally:
            del os.environ["QUDOTN_DENSE_CAP"]
        build_stair(p, _cfg(1.0))

    def test_row_structure(self):
        rows = _stair_rows(4, band_k=3)
        # every row: plus + self + crosses + plus_trace (+ copies)
        assert [n.kind for n in rows[0].nodes[:2]] == ["plus", "self"]
        crosses0 = [n for n in rows[0].nodes if n.kind.startswith("cross")]
        assert [(c.l, c.m) for c in crosses0] == [(0, 1), (0, 2), (0, 3)]
        # interactions with the final variable use the 3-index variant
        assert all(c.kind == "cross_last" for c in crosses0 if c.m == 3)
        # a column read by r crosses carries r - 1 copy nodes
        copies2 = [n for n in rows[2].nodes if n.kind == "copy"]
        assert len(copies2) == 1  # x_2 read by (0,2) and (1,2)


class TestContractMarginal:
    def test_fixed_prefix_example(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        net = build_stair(p, _cfg(1.0))
        vec = contract_marginal(net, 1, {0: 1}).entries
        want, _ = normalize(np.array([1.0, math.exp(-1.0)]))
        assert vec == pytest.approx(want, rel=1e-12)
        assert int(np.argmax(vec)) == 0

    def test_last_variable_single_row(self):
        p = random_instance("qudo", 4, 2, 3, seed=3)
        net = build_stair(p, _cfg(1.0))
        fixed = {0: 1, 1: 0, 2: 1}
        vec = contract_marginal(net, 3, fixed).entries
        oracle, _ = normalize(np.asarray(direct_marginal(p, 3, fixed, 1.0)))
        assert vec == pytest.approx(oracle, rel=1e-12)

    def test_incomplete_prefix_rejected(self):
        p = random_instance("qudo", 4, 2, 3, seed=3)
        net = build_stair(p, _cfg(1.0))
        with pytest.raises(ValueError):
            contract_marginal(net, 2, {0: 1})

    @pytest.mark.parametrize("seed,tau", [(0, 0.5), (1, 1.0), (2, 2.0)])
    def test_oracle_equivalence(self, seed, tau):
        n, d = 6, 3
        p = random_instance("qudo", n, d, n - 1, seed=seed, lin_enabled=True)
        net = build_stair(p, _cfg(tau))
        fixed = {}
        for i in range(n):
            vec = contract_marginal(net, i, fixed).entries
            oracle, _ = normalize(np.asarray(direct_marginal(p, i, fixed, tau)))
            assert np.max(np.abs(vec - oracle)) <= 1e-10
            fixed[i] = int(np.argmax(vec))


class TestSolveDense:
    def test_all_positive_triangle(self):
        p = Problem(kind="qudo", n=3, d=2,
                    quad={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        res = solve_dense(p, _cfg(10.0))
        assert res.assignment == [0, 0, 0] and res.cost == 0.0

    def test_all_negative_triangle(self):
        p = Problem(kind="qudo", n=3, d=2,
                    quad={(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0})
        res = solve_dense(p, _cfg(10.0))
        assert res.assignment == [1, 1, 1] and res.cost == -3.0

    def test_zero_instance_tie_break(self):
        p = Problem(kind="qudo", n=3, d=2, quad={})
        res = solve_dense(p, _cfg(1.0))
        assert res.assignment == [0, 0, 0] and res.cost == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_reuse_invariance(self, seed):
        # the stored boundaries give what a fresh contraction per variable
        # gives
        p = random_instance("qudo", 7, 2, 6, seed=seed, lin_enabled=True)
        res = solve_dense(p, _cfg(2.0))
        net = build_stair(p, _cfg(2.0))
        fixed = {}
        for i in range(p.n):
            vec = contract_marginal(net, i, fixed).entries
            assert np.max(np.abs(vec - res.marginals[i].entries)) <= 1e-12
            fixed[i] = int(np.argmax(vec))
        assert res.assignment == [fixed[i] for i in range(p.n)]

    def test_cost_is_recomputed_cost(self):
        from qudotn import evaluate_cost
        p = random_instance("qudo", 6, 3, 5, seed=9, lin_enabled=True)
        res = solve_dense(p, _cfg(1.0))
        assert res.cost == evaluate_cost(p, res.assignment)

    def test_tau_monotone_cost_at_unique_optimum(self):
        taus = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        checked = 0
        for seed in range(10):
            p = random_instance("qudo", 6, 2, 5, seed=seed, lin_enabled=True)
            if brute_force(p).optima_count != 1:
                continue
            costs = [solve_dense(p, _cfg(t)).cost for t in taus]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
            checked += 1
        assert checked >= 3

    def test_tqudo_instance(self):
        p = random_instance("tqudo", 5, 2, 4, seed=5)
        res = solve_dense(p, _cfg(10.0))
        assert res.cost == pytest.approx(brute_force(p).best_cost, abs=1e-9)
