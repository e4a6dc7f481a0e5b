"""Every program name the benchmark's layer probes rebind must exist.

perfbench/probes.py rebinds (module, name) pairs in the qudotn namespaces
for a traced run; a name deleted or renamed here would break
``perfbench/run.py --trace 1`` only when that run is made.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probed_names():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return sorted(set(probes.SPANS) | set(probes.TALLIES))


@pytest.mark.parametrize("module,name", _probed_names())
def test_probed_name_is_callable(module, name):
    mod = importlib.import_module(f"qudotn.{module}")
    assert callable(getattr(mod, name, None))
