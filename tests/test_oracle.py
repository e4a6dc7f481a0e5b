"""Brute-force enumeration and direct marginal summation."""
import math
import os

import numpy as np
import pytest

from qudotn import (
    CapacityError,
    NumericFaultError,
    Problem,
    brute_force,
    direct_marginal,
    evaluate_cost,
    random_instance,
)


class TestBruteForce:
    def test_coupled_triangle(self):
        p = Problem(kind="qudo", n=3, d=2,
                    quad={(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0})
        res = brute_force(p)
        assert res.best == [1, 1, 1]
        assert res.best_cost == -3.0
        assert res.optima_count == 1

    def test_zero_instance(self):
        p = Problem(kind="qudo", n=3, d=2, quad={})
        res = brute_force(p)
        assert res.best == [0, 0, 0]
        assert res.best_cost == 0.0
        assert res.optima_count == 8

    def test_mixed_signs(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): -1.0, (1, 2): 1.0})
        res = brute_force(p)
        assert res.best == [1, 1, 0]
        assert res.best_cost == -1.0

    def test_best_cost_is_minimum(self):
        p = random_instance("qudo", 6, 3, 3, seed=2, lin_enabled=True)
        res = brute_force(p)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = [int(v) for v in rng.integers(0, 3, size=6)]
            assert evaluate_cost(p, x) >= res.best_cost - 1e-12

    def test_positive_scaling_invariance(self):
        p = random_instance("qudo", 5, 2, 2, seed=4)
        scaled = Problem(kind="qudo", n=5, d=2,
                         quad={k: 7.5 * v for k, v in p.quad.items()})
        assert brute_force(p).best == brute_force(scaled).best

    def test_cap_enforced(self):
        p = random_instance("qudo", 25, 2, 1, seed=0)
        with pytest.raises(CapacityError):
            brute_force(p)

    def test_cap_env_override(self):
        p = random_instance("qudo", 12, 2, 1, seed=0)
        os.environ["QUDOTN_BRUTE_CAP"] = "100"
        try:
            with pytest.raises(CapacityError):
                brute_force(p)
        finally:
            del os.environ["QUDOTN_BRUTE_CAP"]
        brute_force(p)

    def test_cost_sums_beyond_float_range(self):
        """An optimum whose cost overflows is a numeric fault, with no numpy
        warning; a finite optimum beside overflowing costs still solves."""
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): -1.7e308, (1, 2): -1.7e308})
        with pytest.raises(NumericFaultError, match="^overflow: cost sums"):
            brute_force(p)
        res = brute_force(Problem(kind="qudo", n=1, d=3, quad={(0, 0): 1.7e308}))
        assert (res.best, res.best_cost) == ([0], 0.0)


class TestDirectMarginal:
    def test_two_variable_sum(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        vec = direct_marginal(p, 0, {}, tau=1.0)
        assert np.asarray(vec) == pytest.approx([2.0, 1.0 + math.exp(-1.0)],
                                                rel=1e-14)

    def test_zero_instance_constant(self):
        p = Problem(kind="qudo", n=4, d=2, quad={})
        vec = np.asarray(direct_marginal(p, 1, {}, tau=1.0))
        assert vec == pytest.approx([8.0, 8.0])

    def test_fixed_prefix(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        vec = np.asarray(direct_marginal(p, 1, {0: 1}, tau=1.0))
        assert vec == pytest.approx([1.0, math.exp(-1.0)], rel=1e-14)

    def test_matches_hand_sum_with_lin(self):
        p = Problem(kind="qudo", n=2, d=3, quad={(0, 1): 0.5}, lin={1: -1.0})
        tau = 0.7
        vec = np.asarray(direct_marginal(p, 0, {}, tau))
        for a in range(3):
            want = sum(math.exp(-tau * (0.5 * a * b - 1.0 * b)) for b in range(3))
            assert vec[a] == pytest.approx(want, rel=1e-12)

    def test_argmax_converges_to_optimum(self):
        for seed in range(10):
            p = random_instance("qudo", 7, 2, 3, seed=seed, lin_enabled=True)
            res = brute_force(p)
            if res.optima_count != 1:
                continue
            vec = np.asarray(direct_marginal(p, 0, {}, tau=50.0))
            assert int(np.argmax(vec)) == res.best[0]


@pytest.mark.parametrize("i, fixed, cap, error, message", [
    (3, {}, None, ValueError, "variable index 3 out of range"),
    (-1, {}, None, ValueError, "variable index -1 out of range"),
    (1, {0: 1, 1: 0}, None, ValueError, "target variable 1 must not be fixed"),
    (0, {}, 4, CapacityError, "8 states exceed enumeration cap 4"),
])
def test_direct_marginal_input_errors(i, fixed, cap, error, message):
    p = random_instance("qudo", 3, 2, 1, seed=0)
    with pytest.raises(error) as exc:
        direct_marginal(p, i, fixed, 1.0, cap=cap)
    assert type(exc.value) is error and str(exc.value) == message
