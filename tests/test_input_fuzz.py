"""Random instance documents and size-cap settings at the input boundary:
only a typed QudotnError (from parse_instance) or an exit code 0, 1 or 2
(from the CLI) may come out, never a traceback."""
import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudotn import InstanceFormatError, Problem, QudotnError, parse_instance
from qudotn.cli import main
from qudotn.driver import METHODS

# JSON values of every type, to stand where a field or an entry belongs
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=8).map(json.dumps)
# literals that json.dumps does not write: floats beyond range, integers
# past Python's digit limit
RAW = st.sampled_from(["1e999", "-1e999", "1e400", "2.5", "-0.0", "1" * 5000, '"5"'])
COEFFS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, 1e306, -1e306, 1.7e308,
                          -1.7e308]) | st.floats(allow_nan=False, allow_infinity=False)


ODD_ONE = st.sampled_from([False] * 7 + [True])  # true one time in eight


def _sometimes(draw, good, bad):
    """Mostly a draw from good, one time in eight from bad."""
    return draw(bad if draw(ODD_ONE) else good)


@st.composite
def documents(draw, sizes):
    """An instance document's text: a header from sizes, then q, lin and qhat
    lists of entries over near neighbours, each field present or not.  Any
    part may be junk, out of range or repeated instead."""
    kind = _sometimes(draw, st.sampled_from(["qubo", "qudo", "tqudo"]), JUNK)
    n = _sometimes(draw, sizes[0], st.integers(-3, 0) | JUNK | RAW)
    d = _sometimes(draw, sizes[1], st.integers(-3, 1) | JUNK | RAW)
    n_int = min(max(n, 1), 50) if isinstance(n, int) else 6
    d_int = min(max(d, 1), 7) if isinstance(d, int) else 2
    index = st.integers(-2, n_int + 1)
    pair = st.tuples(st.integers(0, n_int - 1), st.integers(0, 3)).map(
        lambda t: [t[0], t[0] + t[1]])
    value = st.integers(0, d_int - 1)
    if draw(ODD_ONE):  # out of range somewhere
        pair = st.lists(index, min_size=2, max_size=2).map(sorted)
        value = st.integers(-1, d_int)
    rows = {"q": st.tuples(pair, COEFFS).map(lambda r: r[0] + [r[1]]),
            "lin": st.tuples(index if draw(ODD_ONE) else st.integers(0, n_int - 1),
                             COEFFS).map(list),
            "qhat": st.tuples(pair, value, value, COEFFS).map(lambda r: r[0] + list(r[1:]))}
    # the fields of the kind, and one time in eight one of another kind
    used = {"qubo": ["q"], "qudo": ["q", "lin"], "tqudo": ["qhat"]}.get(kind, [])
    fields = {"kind": json.dumps(kind) if kind in ("qubo", "qudo", "tqudo") else kind,
              "n": str(n) if isinstance(n, int) else n, "d": str(d) if isinstance(d, int) else d}
    for name, row in rows.items():
        if draw(st.booleans()) if name in used else draw(ODD_ONE):
            entries = draw(st.lists(row, max_size=10, unique_by=lambda r: tuple(r[:-1])))
            entries = [json.dumps(entry) for entry in entries]
            if entries and draw(ODD_ONE):
                entries.append(entries[0])
            if draw(ODD_ONE):
                entries.insert(draw(st.integers(0, len(entries))), draw(JUNK))
            fields[name] = "[" + ", ".join(entries) + "]"
        elif draw(ODD_ONE):
            fields[name] = draw(JUNK)
    drop = _sometimes(draw, st.none(), st.sampled_from(["kind", "n", "d"]))
    names = draw(st.permutations([key for key in fields if key != drop]))
    return "{" + ", ".join(f'"{key}": {fields[key]}' for key in names) + "}"


@settings(max_examples=400, deadline=None)
@given(text=documents((st.integers(1, 40) | st.sampled_from([10 ** 18, 2 ** 63, 10 ** 100]),
                       st.integers(2, 8) | st.sampled_from([10 ** 12, 2 ** 63]))))
def test_parse_instance_fuzz(text):
    """Huge n and d are parsed only: nothing here allocates by n."""
    try:
        p = parse_instance(text)
    except QudotnError:
        return
    assert isinstance(p, Problem) and p.n >= 1 and p.d >= 2


def _run(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inst_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "inst.json"


# every accepted solve stays small: larger shapes end as capacity errors
SMALL_CAPS = {"QUDOTN_CHAIN_CAP": "64", "QUDOTN_DENSE_CAP": "4096", "QUDOTN_BRUTE_CAP": "4096"}


@settings(max_examples=150, deadline=None)
@given(text=documents((st.integers(1, 40), st.integers(2, 6))),
       method=st.sampled_from(METHODS))
def test_solve_document_fuzz(inst_path, text, method):
    inst_path.write_text(text)
    code, out, err = _run(["solve", "--input", str(inst_path), "--method", method], SMALL_CAPS)
    assert code in (0, 1, 2)
    if code == 0:
        assert out.startswith("assignment ") and err == ""
    else:
        assert out == "" and err.startswith("ERROR ") and err.count("\n") == 1


CAPS = (st.integers(-5, 10 ** 30).map(str)
        | st.sampled_from(["", " 7 ", "1_000", "1e3", "0x10", "inf", "nan", "٣", "-0"])
        | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                  max_size=8))


@settings(max_examples=150, deadline=None)
@given(chain_cap=CAPS, dense_cap=CAPS,
       method=st.sampled_from(["matrix", "tensor", "waterfall", "dense"]))
def test_cap_settings_fuzz(inst_path, chain_cap, dense_cap, method):
    """Any cap text ends as a solve, a config error or a capacity error; the
    instance is small enough for any cap."""
    inst_path.write_text(json.dumps({"kind": "qudo", "n": 6, "d": 2,
                                     "q": [[i, i + 2, (-1.0) ** i] for i in range(4)]}))
    env = {"QUDOTN_CHAIN_CAP": chain_cap, "QUDOTN_DENSE_CAP": dense_cap}
    code, out, err = _run(["solve", "--input", str(inst_path), "--method", method,
                           "--tau-grid", "0.5,50,4"], env)
    assert code in (0, 1)
    if code == 1:
        assert err.startswith(("ERROR config: ", "ERROR capacity: "))


@pytest.mark.parametrize("n", ["1e999", "2.5", "true", '"5"', "5.0"])
def test_non_integer_header_is_a_format_error(n):
    """n and d are JSON integers: 1e999 must not escape as OverflowError,
    nor 2.5, true or "5" be truncated or converted."""
    with pytest.raises(InstanceFormatError, match="n and d must be JSON integers"):
        parse_instance('{"kind": "qudo", "n": %s, "d": 2}' % n)


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000,
                                  '{"kind": "qudo", "n": 3, "d": 2, "q": [[0, 1, %s]]}'
                                  % ("9" * 5000)],
                         ids=["long-integer", "deep-nesting", "long-coefficient"])
def test_undecodable_document_is_a_format_error(text):
    """An integer past Python's digit limit (a bare ValueError from
    json.loads) and nesting too deep for the decoder (RecursionError) are
    format errors."""
    with pytest.raises(InstanceFormatError, match="^not valid JSON"):
        parse_instance(text)


@pytest.mark.parametrize("method", ["matrix", "tensor", "waterfall", "dense", "brute"])
def test_cost_beyond_float_range(tmp_path, method):
    """q = 1.7e308 at d = 3 makes the cost of value 2 overflow: a numeric
    fault for every method, with no numpy warning (an error under this
    suite's filter), and no nan cost from brute force's inf - inf."""
    path = tmp_path / "inst.json"
    path.write_text('{"kind": "qudo", "n": 2, "d": 3, "q": [[0, 0, 1.7e308]], '
                    '"lin": [[0, -1.7e308]]}')
    code, out, err = _run(["solve", "--input", str(path), "--method", method], {})
    assert code == 1 and out == ""
    assert err.startswith("ERROR numeric-fault: overflow: cost sums" if method == "brute" else
                          "ERROR numeric-fault: overflow: tau * cost leaves float range")
