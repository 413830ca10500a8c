"""The benchmark tracer (perfbench/tracer.py) wraps podwave functions by
module and name and reads some of their arguments by name and position.
A rename or deletion in podwave would break `perfbench/run.py --trace 1`
without failing any other test."""

import importlib
import importlib.util
import inspect
import os
from dataclasses import fields

from podwave.pod import PodDataSet
from podwave.rom import RomSystem

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")

# the leading parameters the tracer's input hooks read
HOOKED_PARAMETERS = {
    ("wave", "solve"): ["space", "grid", "params", "u0", "u00"],
    ("linalg", "thin_svd"): ["b"],
    ("pod", "build_dataset"): ["traj"],
    ("pod", "compute_basis"): ["data", "rank_tol"],
    ("rom", "solve_rom"): ["romsys"],
}


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only
    traced = {(module, name): getattr(importlib.import_module(f"podwave.{module}"), name, None)
              for module, name, *_ in tracer.TRACED}
    assert [key for key, fn in traced.items() if not callable(fn)] == []
    for key, expected in HOOKED_PARAMETERS.items():
        assert list(inspect.signature(traced[key]).parameters)[:len(expected)] == expected
    assert {"columns", "weights"} <= {f.name for f in fields(PodDataSet)}
    assert {"r", "grid"} <= {f.name for f in fields(RomSystem)}
