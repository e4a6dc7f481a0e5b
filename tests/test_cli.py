"""CLI subcommands, exit codes, and CSV output."""
import csv
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudotn import ConfigError, SolverConfig, parse_instance, solve_instance
from qudotn.cli import COMPARE_COLUMNS, main, relative_error


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


EXAMPLE = {"kind": "qudo", "n": 3, "d": 2,
           "q": [[0, 1, -1.0], [1, 2, 1.0]]}


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "--kind", "qudo", "--n", "6",
                             "--d", "3", "--k", "2", "--seed", "9",
                             "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--n", "0")
        assert code == 2 and err.startswith("ERROR")

    def test_qubo_d3_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--kind", "qubo", "--n", "3",
                           "--d", "3")
        assert code == 2 and err.startswith("ERROR")


class TestSolve:
    def test_matrix_cost(self, tmp_path, capsys):
        path = write_instance(tmp_path, EXAMPLE)
        code, out, _ = run(capsys, "solve", "--input", path, "--method",
                           "matrix", "--tau", "10")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["cost"]) == -1.0
        assert lines["assignment"] == "1 1 0"

    def test_brute_cost(self, tmp_path, capsys):
        path = write_instance(tmp_path, EXAMPLE)
        code, out, _ = run(capsys, "solve", "--input", path, "--method",
                           "brute")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["cost"]) == -1.0

    def test_tau_grid_reports_winning_tau(self, tmp_path, capsys):
        path = write_instance(tmp_path, EXAMPLE)
        code, out, _ = run(capsys, "solve", "--input", path, "--method",
                           "matrix", "--tau-grid", "0.1,500,20")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["cost"]) == -1.0
        assert "tau" in lines

    def test_dense_capacity_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        q = [[i, i + 1, 0.5] for i in range(29)]
        path.write_text(json.dumps({"kind": "qudo", "n": 30, "d": 2, "q": q}))
        code, _, err = run(capsys, "solve", "--input", str(path), "--method",
                           "dense")
        assert code == 1
        assert err.startswith("ERROR capacity:")

    @pytest.mark.parametrize("flags", [
        ("--tau", "nan"), ("--tau", "inf"), ("--tau=-inf",), ("--tau", "0"),
        ("--tau-grid", "0.1,inf,5"), ("--tau-grid", "nan,500,5"),
        ("--tau-grid", "0.1,nan,5"), ("--tau-grid=-inf,500,5",)])
    def test_non_finite_tau_usage_error(self, tmp_path, capsys, flags):
        path = write_instance(tmp_path, EXAMPLE)
        code, out, err = run(capsys, "solve", "--input", path, "--method",
                             "matrix", *flags)
        assert code == 2 and out == ""
        assert err.startswith("ERROR usage: tau")

    @pytest.mark.parametrize("factor", ["-1", "0", "-0.0", "nan", "inf", "-inf"])
    def test_bad_restart_factor_usage_error(self, tmp_path, capsys, factor):
        """A factor that is not positive and finite is a usage error: a
        negative one would re-solve at negative tau (maximising cost), 0 at
        tau = 0, and nan or inf would fault as a tau * cost overflow."""
        path = tmp_path / "inst.json"
        assert main(["generate", "--n", "30", "--d", "3", "--k", "2", "--seed", "4",
                     "--lin", "--output", str(path)]) == 0
        code, out, err = run(capsys, "solve", "--input", str(path), "--method",
                             "waterfall", "--tau", "5", f"--restart-factor={factor}")
        assert code == 2 and out == ""
        assert err == "ERROR usage: restart_factor must be positive and finite\n"

    @pytest.mark.parametrize("method", ["matrix", "tensor", "waterfall", "dense", "brute"])
    def test_cost_overflow_is_a_fault(self, tmp_path, capsys, method):
        """Every tau * cost is small, but the cost of the assignment found
        sums to -inf: a numeric fault, as brute force says."""
        path = write_instance(tmp_path, {"kind": "qudo", "n": 3, "d": 2, "q": [
            [0, 1, -1e308], [1, 2, -1e308], [0, 0, -1e308]]})
        code, out, err = run(capsys, "solve", "--input", path, "--method", method,
                             "--tau", "1e-10")
        assert code == 1 and out == ""
        assert err == "ERROR numeric-fault: overflow: cost sums leave float range\n"

    def test_chain_incompatibility_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, {"kind": "qudo", "n": 5, "d": 2,
                                         "q": [[0, 3, 1.0]]})
        code, _, err = run(capsys, "solve", "--input", path, "--method",
                           "matrix", "--k", "2")
        assert code == 1
        assert err.startswith("ERROR not-a-chain:")



class TestCapSettings:
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    @pytest.mark.parametrize("var,method", [("QUDOTN_CHAIN_CAP", "matrix"),
                                            ("QUDOTN_DENSE_CAP", "dense"),
                                            ("QUDOTN_BRUTE_CAP", "brute")])
    def test_invalid_cap_is_config_error(self, monkeypatch, var, method, value):
        monkeypatch.setenv(var, value)
        p = parse_instance(json.dumps(EXAMPLE))
        with pytest.raises(ConfigError, match=f"{var} .*{value!r}"):
            solve_instance(p, method, SolverConfig())

    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("QUDOTN_CHAIN_CAP", "abc")
        path = write_instance(tmp_path, EXAMPLE)
        code, _, err = run(capsys, "solve", "--input", path, "--method", "matrix")
        assert code == 1
        assert err.startswith("ERROR config:") and "QUDOTN_CHAIN_CAP" in err


class TestRelativeError:
    def test_formula(self):
        assert relative_error(-9.0, -10.0) == (pytest.approx(0.1), "relative")

    def test_equal_costs(self):
        assert relative_error(-5.0, -5.0) == (0.0, "relative")

    def test_zero_reference_absolute_mode(self):
        assert relative_error(0.5, 0.0) == (0.5, "absolute")


class TestCompare:
    def test_csv_structure(self, tmp_path, capsys):
        path = write_instance(tmp_path, EXAMPLE)
        out_csv = tmp_path / "out.csv"
        code, _, _ = run(capsys, "compare", "--input", path, "--tau", "10",
                         "--output", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == COMPARE_COLUMNS
        assert len(rows) == 4  # header + matrix, tensor, waterfall
        for row in rows[1:]:
            rec = dict(zip(COMPARE_COLUMNS, row))
            assert float(rec["cost"]) == -1.0
            assert float(rec["relative_error"]) == 0.0
            assert rec["error_mode"] == "relative"
        wf = dict(zip(COMPARE_COLUMNS, rows[3]))
        assert wf["method"] == "waterfall" and wf["w_prob"] != ""

    def test_deterministic_modulo_wall_time(self, tmp_path, capsys):
        path = write_instance(tmp_path, EXAMPLE)
        outputs = []
        for name in ("x.csv", "y.csv"):
            out_csv = tmp_path / name
            run(capsys, "compare", "--input", path, "--tau", "10",
                "--output", str(out_csv))
            rows = list(csv.reader(out_csv.read_text().splitlines()))
            ti = COMPARE_COLUMNS.index("wall_time")
            outputs.append([row[:ti] + row[ti + 1:] for row in rows])
        assert outputs[0] == outputs[1]


class TestBenchScaling:
    def test_csv_and_axis(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench-scaling", "--axis", "n", "--values",
                         "20,40", "--repeats", "2", "--tau", "5",
                         "--methods", "matrix", "--output", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0][0] == "axis"
        assert [r[1] for r in rows[1:]] == ["20", "40"]
        assert all(float(r[7]) >= 0 for r in rows[1:])

    def test_empty_range_usage_error(self, capsys):
        code, _, err = run(capsys, "bench-scaling", "--axis", "n",
                           "--values", "")
        assert code == 2 and err.startswith("ERROR")

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_usage_error(self, tmp_path, capsys, repeats):
        out_csv = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench-scaling", "--axis", "n", "--values",
                           "6", "--repeats", repeats, "--output", str(out_csv))
        assert code == 2 and err == "ERROR usage: need at least one repeat\n"
        assert not out_csv.exists()


    @pytest.mark.parametrize("method", ["matrix", "tensor", "waterfall", "dense"])
    def test_exponent_overflow_is_a_fault_not_a_warning(self, capsys, method):
        """At tau = 1e308 every tau * cost is finite, but sums of shifted
        costs overflow to +inf: a numeric fault, with no numpy warning."""
        code, _, err = run(capsys, "bench-scaling", "--axis", "n", "--values",
                           "5,8", "--repeats", "1", "--tau", "1e308",
                           "--methods", method)
        assert code == 1 and err.startswith("ERROR numeric-fault: overflow: ")
        assert "Warning" not in err


class TestWaterfallProb:
    def test_decoupled_rows_are_one(self, tmp_path, capsys):
        out_csv = tmp_path / "wp.csv"
        code, _, _ = run(capsys, "waterfall-prob", "--d-range", "2,3",
                         "--n", "20", "--instances", "3", "--decoupled",
                         "--tau", "5", "--output", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        for row in rows[1:]:
            assert float(row[3]) == 1.0

    def test_instances_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "waterfall-prob", "--d-range", "2",
                           "--instances", "0")
        assert code == 2 and err.startswith("ERROR")

    def test_random_rows_in_unit_interval(self, tmp_path, capsys):
        out_csv = tmp_path / "wp.csv"
        code, _, _ = run(capsys, "waterfall-prob", "--d-range", "2",
                         "--n", "30", "--instances", "4", "--tau", "10",
                         "--output", str(out_csv))
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert 0.0 <= float(rows[1][3]) <= 1.0


# ---------------------------------------------------------------------------
# Numeric flags, fuzzed


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "inst.json").write_text(json.dumps(
        {"kind": "qudo", "n": 6, "d": 2,
         "q": [[i, i + 1, (-1.0) ** i * 0.5] for i in range(5)]}))
    return path


TAUS = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                  0.0, -0.0, -1.0, 5e-324, 0.5, 50.0, 500.0,
                                  1e308]),
                 st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=100, deadline=None)
# the restart rounds compound tau to inf on this instance's zero-cost prefix
@example(tau=1.157920892373162e+77, lo=1.0, hi=2.0, count=2, repeats=1,
         factor=1.157920892373162e+77, command="restart")
@given(tau=TAUS, lo=TAUS, hi=TAUS, count=st.integers(-1, 4),
       repeats=st.integers(-2, 2), factor=TAUS,
       command=st.sampled_from(["solve", "grid", "restart", "bench-scaling",
                                "waterfall-prob"]))
def test_numeric_flags_fuzz(fuzz_dir, tau, lo, hi, count, repeats, factor, command):
    """Whatever numbers the flags carry, the CLI ends with an exit code
    (never a traceback, a warning turned error, or nan in a CSV)."""
    out_csv = fuzz_dir / "out.csv"
    if out_csv.exists():
        out_csv.unlink()
    inst = str(fuzz_dir / "inst.json")
    argv = {
        "solve": ["solve", "--input", inst, "--method", "matrix", f"--tau={tau!r}"],
        "grid": ["solve", "--input", inst, "--method", "waterfall",
                 f"--tau-grid={lo!r},{hi!r},{count}"],
        "restart": ["solve", "--input", inst, "--method", "waterfall", f"--tau={tau!r}",
                    f"--restart-factor={factor!r}"],
        "bench-scaling": ["bench-scaling", "--axis", "n", "--values", "5",
                          "--methods", "matrix", f"--tau={tau!r}",
                          f"--repeats={repeats}", "--output", str(out_csv)],
        "waterfall-prob": ["waterfall-prob", "--d-range", "2", "--n", "6",
                           f"--instances={repeats}", f"--tau={tau!r}",
                           f"--tau-grid={lo!r},{hi!r},{count}",
                           "--output", str(out_csv)],
    }[command]
    assert main(argv) in (0, 1, 2)
    if out_csv.exists():
        assert "nan" not in out_csv.read_text().lower()
