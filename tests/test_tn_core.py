"""Factor formulas, node element rules, extraction, and normalization."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qudotn import (
    NumericFaultError,
    Problem,
    argmax_extract,
    bit_extract,
    factor_cross,
    factor_self,
    normalize,
    random_instance,
    to_tqudo,
)
from qudotn.tn_core import (
    SolverConfig,
    copy_node,
    cross_interaction_node,
    last_row_cross_node,
    self_interaction_node,
    superposition_node,
    tau_grid_values,
)


class TestFactors:
    def test_cross_factor_value(self):
        p = Problem(kind="qudo", n=2, d=3, quad={(0, 1): 0.5})
        assert factor_cross(p, 0, 1, 1, 2, tau=1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_missing_coefficient_gives_one(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): 1.0})
        assert factor_cross(p, 1, 2, 1, 1, tau=1.0) == 1.0
        assert factor_self(p, 2, 1, tau=1.0) == 1.0

    def test_self_factor_value(self):
        p = Problem(kind="qudo", n=1, d=3, quad={(0, 0): 1.0})
        assert factor_self(p, 0, 2, tau=1.0) == pytest.approx(
            math.exp(-4.0), rel=1e-12)

    def test_self_factor_includes_linear_term(self):
        p = Problem(kind="qudo", n=1, d=3, quad={(0, 0): 1.0}, lin={0: -2.0})
        assert factor_self(p, 0, 2, tau=2.0) == pytest.approx(
            math.exp(-2.0 * (4.0 - 4.0)), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_embedding_matches_native_factors(self, seed):
        p = random_instance("qudo", 5, 3, 2, seed=seed, lin_enabled=True)
        t = to_tqudo(p)
        for l in range(5):
            for a in range(3):
                assert factor_self(p, l, a, 1.3) == factor_self(t, l, a, 1.3)
                for m in range(l + 1, 5):
                    for b in range(3):
                        assert factor_cross(p, l, m, a, b, 1.3) == \
                            factor_cross(t, l, m, a, b, 1.3)


class TestNodeRules:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_superposition_all_ones(self, d):
        assert np.all(superposition_node(d) == 1.0)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_copy_sparsity(self, d):
        node = copy_node(d)
        assert np.count_nonzero(node) == d
        for i in range(d):
            assert node[i, i, i] == 1.0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_self_interaction_sparsity(self, d):
        p = Problem(kind="qudo", n=2, d=d, quad={(0, 0): 0.7, (0, 1): 0.1})
        node = self_interaction_node(p, 0, tau=1.0)
        assert np.count_nonzero(node) == d
        for i in range(d):
            assert node[i, i] == pytest.approx(math.exp(-0.7 * i * i), rel=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cross_interaction_sparsity(self, d):
        p = Problem(kind="qudo", n=2, d=d, quad={(0, 1): 0.3})
        node = cross_interaction_node(p, 0, 1, tau=1.0)
        assert np.count_nonzero(node) == d * d
        idx = np.argwhere(node)
        assert all(i == mu and j == nu for i, mu, j, nu in idx)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_last_row_cross_sparsity(self, d):
        p = Problem(kind="qudo", n=3, d=d, quad={(1, 2): -0.4})
        node = last_row_cross_node(p, 1, tau=1.0)
        assert np.count_nonzero(node) == d * d
        idx = np.argwhere(node)
        assert all(i == mu for i, mu, _ in idx)


class TestArgmaxExtract:
    def test_close_entries(self):
        assert argmax_extract(np.array([2.0, 1.368])) == 0

    def test_tie_breaks_low(self):
        assert argmax_extract(np.array([1.0, 1.0])) == 0

    def test_unique_maximum(self):
        assert argmax_extract(np.array([0.1, 0.1, 7.0])) == 2

    def test_nan_faults(self):
        with pytest.raises(NumericFaultError):
            argmax_extract(np.array([1.0, float("nan")]))

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2,
                    max_size=6),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, vals, c):
        v = np.array(vals)
        assert argmax_extract(v) == argmax_extract(c * v)


class TestBitExtract:
    def test_positive_omega(self):
        assert bit_extract(np.array([0.2, 5.0]), 0) == 1

    def test_negative_omega(self):
        assert bit_extract(np.array([5.0, 0.2]), 0) == 0

    def test_zero_omega_is_zero(self):
        assert bit_extract(np.array([1.0, 1.0]), 0) == 0

    def test_bit_position_range(self):
        with pytest.raises(ValueError):
            bit_extract(np.array([1.0, 2.0]), 1)

    def test_matches_argmax_for_powers_of_two(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0.1, 1.0, size=4)
            v[rng.integers(0, 4)] = 5.0
            best = argmax_extract(v)
            bits = sum(bit_extract(v, j) << j for j in range(2))
            assert bits == best

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2,
                    max_size=2),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, vals, c):
        v = np.array(vals)
        assert bit_extract(v, 0) == bit_extract(c * v, 0)


class TestNormalize:
    def test_divides_by_max(self):
        out, dropped = normalize(np.array([2.0, 3.71828]))
        assert dropped
        assert out == pytest.approx([2.0 / 3.71828, 1.0], rel=1e-12)

    def test_singleton(self):
        out, _ = normalize(np.array([1.0]))
        assert out[0] == 1.0

    def test_all_zero_faults(self):
        with pytest.raises(NumericFaultError):
            normalize(np.array([0.0, 0.0]))

    def test_non_finite_faults(self):
        with pytest.raises(NumericFaultError):
            normalize(np.array([1.0, float("inf")]))


class TestSolverConfig:
    def test_tau_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau_grid=(2.0, 1.0, 10))

    def test_grid_values_geometric(self):
        vals = tau_grid_values((0.1, 500.0, 100))
        assert len(vals) == 100
        assert vals[0] == pytest.approx(0.1) and vals[-1] == pytest.approx(500.0)
        ratios = vals[1:] / vals[:-1]
        assert np.allclose(ratios, ratios[0])
