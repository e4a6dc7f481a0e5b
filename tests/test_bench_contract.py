"""Every program name the benchmark's layer probes rebind must exist, and
every result the probes read must have the fields they read.

perfbench/probes.py rebinds (module, name) pairs in the qudotn namespaces
for a traced run, and its NOTES functions read counters off the arguments
and results of some of them; a name deleted or renamed here would break
``perfbench/run.py --trace 1`` only when that run is made.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from qudotn import SolverConfig, backward_pass_matrix, chain_view, random_instance

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes


def _probed_names():
    probes = _load_probes()
    return sorted(set(probes.SPANS) | set(probes.TALLIES))


@pytest.mark.parametrize("module,name", _probed_names())
def test_probed_name_is_callable(module, name):
    mod = importlib.import_module(f"qudotn.{module}")
    assert callable(getattr(mod, name, None))


def _small_calls():
    """Span name -> the arguments of a small real call of that function."""
    chain = chain_view(random_instance("qudo", 8, 2, 2, seed=1), 2)
    cfg = SolverConfig(tau=5.0)
    message = next(msg for msg in backward_pass_matrix(chain, cfg) if msg.origin == 4)
    return {"chain_solver.solve_matrix": (chain, cfg),
            "chain_solver.solve_tensor": (chain, cfg),
            "waterfall.solve_waterfall": (chain, cfg),
            "dense_solver.solve_dense": (random_instance("qudo", 6, 2, 5, seed=2), cfg),
            "chain_solver.backward_pass_matrix": (chain, cfg),
            "waterfall.candidate_table": (message, chain, 3, cfg)}


@pytest.mark.parametrize("span", sorted(_load_probes().NOTES))
def test_notes_read_their_result(span):
    """Each NOTES function reads the result of a real call without error and
    gives non-negative int counters."""
    notes = _load_probes().NOTES[span]
    args = _small_calls()[span]
    module, name = span.split(".")
    result = getattr(importlib.import_module(f"qudotn.{module}"), name)(*args)
    sums, peaks = notes(args, result)
    assert sums or peaks
    for value in [*sums.values(), *peaks.values()]:
        assert type(value) is int and value >= 0
