"""Problem construction, cost evaluation, chain views, and instance I/O."""
import math

import numpy as np
import pytest

from qudotn import (
    InstanceFormatError,
    InvalidAssignmentError,
    NotAChainError,
    Problem,
    chain_view,
    evaluate_cost,
    parse_instance,
    random_instance,
    serialize_instance,
    to_tqudo,
)


class TestEvaluateCost:
    def test_qubo_direct(self):
        p = Problem(kind="qubo", n=2, d=2,
                    quad={(0, 0): 1.0, (0, 1): -2.0, (1, 1): 1.0})
        assert evaluate_cost(p, [1, 1]) == 0.0

    def test_zero_assignment_is_zero(self):
        for kind in ("qubo", "qudo"):
            p = random_instance(kind, 5, 2, 2, seed=3)
            assert evaluate_cost(p, [0] * 5) == 0.0

    def test_qudo_with_linear(self):
        p = Problem(kind="qudo", n=2, d=3, quad={(0, 1): 1.0}, lin={0: -2.0})
        assert evaluate_cost(p, [2, 1]) == -2.0

    def test_tqudo_single_element(self):
        p = Problem(kind="tqudo", n=2, d=2, qhat={(0, 1, 1, 0): 5.0})
        assert evaluate_cost(p, [1, 0]) == 5.0

    def test_wrong_length_rejected(self):
        p = Problem(kind="qudo", n=3, d=2, quad={(0, 1): 1.0})
        with pytest.raises(InvalidAssignmentError):
            evaluate_cost(p, [0, 1])

    def test_out_of_range_value_rejected(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 1.0})
        with pytest.raises(InvalidAssignmentError):
            evaluate_cost(p, [0, 2])


class TestProblemValidation:
    def test_qubo_requires_d2(self):
        with pytest.raises(ValueError):
            Problem(kind="qubo", n=2, d=3, quad={(0, 1): 1.0})

    def test_qubo_rejects_linear(self):
        with pytest.raises(ValueError):
            Problem(kind="qubo", n=2, d=2, quad={}, lin={0: 1.0})

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            Problem(kind="qudo", n=2, d=2, quad={(0, 2): 1.0})
        with pytest.raises(ValueError):
            Problem(kind="qudo", n=2, d=2, quad={(1, 0): 1.0})

    def test_bandwidth_recomputed(self):
        p = Problem(kind="qudo", n=6, d=2, quad={(0, 3): 1.0, (1, 2): 1.0})
        assert p.bandwidth == 3


class TestChainView:
    def test_tridiagonal_is_1_neighbor(self):
        quad = {(i, i + 1): 1.0 for i in range(4)}
        p = Problem(kind="qudo", n=5, d=2, quad=quad)
        ch = chain_view(p, 1)
        assert ch.k == 1 and ch.n == 5

    def test_error_names_offending_pair(self):
        p = Problem(kind="qudo", n=5, d=2, quad={(0, 3): 1.0})
        with pytest.raises(NotAChainError) as exc:
            chain_view(p, 2)
        assert exc.value.pair == (0, 3)

    def test_dense_fits_with_k_n_minus_1(self):
        quad = {(i, j): 1.0 for i in range(5) for j in range(i, 5)}
        p = Problem(kind="qudo", n=5, d=2, quad=quad)
        assert chain_view(p, 4).k == 4

    def test_succeeds_iff_bandwidth_at_most_k(self):
        p = random_instance("qudo", 8, 2, 3, seed=11)
        assert p.bandwidth <= 3
        chain_view(p, 3)
        if p.bandwidth == 3:
            with pytest.raises(NotAChainError):
                chain_view(p, 2)


class TestRandomInstance:
    def test_seeded_determinism(self):
        a = random_instance("qudo", 3, 2, 1, seed=7)
        b = random_instance("qudo", 3, 2, 1, seed=7)
        assert a.quad == b.quad and a.lin == b.lin

    def test_lin_disabled_by_default(self):
        p = random_instance("qudo", 6, 3, 2, seed=1)
        assert p.lin == {}

    def test_lin_enabled(self):
        p = random_instance("qudo", 6, 3, 2, seed=1, lin_enabled=True)
        assert len(p.lin) == 6

    def test_qubo_with_d3_rejected(self):
        with pytest.raises(ValueError):
            random_instance("qubo", 3, 3, 1, seed=0)

    def test_bandwidth_within_k(self):
        p = random_instance("qudo", 10, 2, 3, seed=5)
        assert p.bandwidth <= 3

    def test_coefficients_in_range(self):
        p = random_instance("tqudo", 6, 3, 2, seed=9)
        assert all(-1.0 <= v <= 1.0 for v in p.qhat.values())


class TestSerialization:
    @pytest.mark.parametrize("kind", ["qubo", "qudo", "tqudo"])
    def test_round_trip(self, kind):
        p = random_instance(kind, 6, 2 if kind == "qubo" else 3, 2, seed=4,
                            lin_enabled=(kind == "qudo"))
        q = parse_instance(serialize_instance(p))
        assert q.kind == p.kind and q.n == p.n and q.d == p.d
        assert q.quad == p.quad and q.lin == p.lin and q.qhat == p.qhat

    def test_unordered_pair_rejected(self):
        text = '{"kind": "qudo", "n": 6, "d": 2, "q": [[5, 2, 1.0]]}'
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_duplicate_entry_rejected(self):
        text = '{"kind": "qudo", "n": 3, "d": 2, "q": [[0, 1, 1.0], [0, 1, 2.0]]}'
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_malformed_document_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("not json at all {")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         "-1e400", "1" + "0" * 400])
    def test_non_finite_coefficient_rejected(self, literal):
        text = '{"kind": "qudo", "n": 3, "d": 2, "q": [[0, 1, %s]]}' % literal
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    @pytest.mark.parametrize("row", ["[0, 1.7, 1.0]", "[0, 1.0, 1.0]", "[true, 1, 1.0]",
                                     '["0", 1, 1.0]', "[0, null, 1.0]"])
    def test_non_integer_index_rejected(self, row):
        text = '{"kind": "qudo", "n": 3, "d": 2, "q": [%s]}' % row
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    @pytest.mark.parametrize("doc", [
        '"qhat": [[0, 1, 0, 1.5, 1.0]]',   # tensor value index
        '"lin": [[false, 1.0]]',
        '"q": [[0, 1, "1.0"]]',             # value must be a number
        '"q": [[0, 1, null]]',
        '"q": {"0": 1}',                    # entries must be a list
        '"q": [[0, 1]]',
    ])
    def test_malformed_entries_rejected(self, doc):
        kind = "tqudo" if "qhat" in doc else "qudo"
        text = '{"kind": "%s", "n": 3, "d": 2, %s}' % (kind, doc)
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_integer_valued_coefficients_accepted(self):
        p = parse_instance('{"kind": "qudo", "n": 2, "d": 3, "q": [[0, 1, 2]], '
                           '"lin": [[1, -1]]}')
        assert p.quad == {(0, 1): 2.0} and p.lin == {1: -1.0}

    def test_full_precision_round_trip(self):
        p = Problem(kind="qudo", n=2, d=2, quad={(0, 1): 0.1 + 0.2})
        q = parse_instance(serialize_instance(p))
        assert q.quad[(0, 1)] == p.quad[(0, 1)]


class TestTqudoEmbedding:
    @pytest.mark.parametrize("seed", range(8))
    def test_cost_invariance(self, seed):
        kind = "qudo" if seed % 2 else "qubo"
        d = 2 if kind == "qubo" else 3
        p = random_instance(kind, 6, d, 2, seed=seed, lin_enabled=(kind == "qudo"))
        t = to_tqudo(p)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = [int(v) for v in rng.integers(0, d, size=6)]
            a = evaluate_cost(p, x)
            b = evaluate_cost(t, x)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
