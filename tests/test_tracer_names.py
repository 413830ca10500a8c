"""The benchmark tracer (perfbench/tracer.py) wraps podwave functions by
module and name and reads some of their arguments by name and position.
A rename or deletion in podwave would break `perfbench/run.py --trace 1`
without failing any other test."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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
    ("pod", "compute_basis"): ["data"],
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


CHILD = """
import importlib.util, json, sys
import podwave.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
rcs = [podwave.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"rcs": rcs, "spans": t.spans}))
"""

TINY = ["--n-elements", "16", "--dt", "1/32", "--T", "1", "--c", "1.0"]


def test_tracer_hooks_read_the_arguments_they_are_given(tmp_path):
    """Installed around one tiny error-formulas and one tiny rom-sweep, the
    tracer's input hooks read thin_svd's b, compute_basis's data and
    build_dataset's traj without error: both runs exit 0 and every span of
    those three carries the key and work counts its hook derives.  The
    tracer rebinds podwave's functions, so the runs go in a child
    interpreter."""
    runs = [[*TINY, "--r-list", "2,4", "--pod-method", "ddq", "--output-dir",
             str(tmp_path / "formulas"), "error-formulas"],
            [*TINY, "--r-list", "2,4", "--output-dir", str(tmp_path / "sweep"),
             "rom-sweep", "--param", "D", "--values", "0.1"]]
    root = os.path.dirname(os.path.dirname(TRACER_PATH))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run([sys.executable, "-c", CHILD, TRACER_PATH, json.dumps(runs)],
                         env=env, cwd=tmp_path, capture_output=True, text=True,
                         timeout=60, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0]
    spans = {}
    for span in result["spans"]:
        spans.setdefault(span["name"], []).append(span)
    assert len(spans["linalg.thin_svd"]) == len(spans["pod.compute_basis"]) == 3
    assert all(s["key"] and s["work"]["flops_computed"] > 0 for s in spans["linalg.thin_svd"])
    assert all(s["key"] for s in spans["pod.compute_basis"])
    assert all(s["work"]["mb"] > 0 for s in spans["pod.build_dataset"])
