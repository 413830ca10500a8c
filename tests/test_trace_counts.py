"""`perfbench/run.py --trace 1` counts the ROM work through perfbench's own
tracer: `rom.solve_rom.reduced_steps` is r (N - 2) of the RomSystem each call
gets, so a stacked solve must carry the total size of its members.  The
tracer rebinds podwave's functions, so a tiny traced rom-sweep runs in a
child interpreter."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, sys
import podwave.cli
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
rc = podwave.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, **layer_metrics(tracer.spans)}))
"""


def test_traced_rom_sweep_counts_stacked_steps_and_reports(tmp_path):
    sizes, levels, methods = (2, 4, 6, 8), 129, 2  # T = 2 at dt = 1/64
    argv = ["--n-elements", "32", "--dt", "1/64", "--T", "2", "--c", "1.0",
            "--r-list", ",".join(map(str, sizes)), "--output-dir", str(tmp_path),
            "rom-sweep", "--param", "D", "--values", "0.1"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join((os.path.join(ROOT, "src"),
                                          os.path.join(ROOT, "perfbench")))}
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])
    assert metrics["rc"] == 0
    assert metrics["rom.solve_rom.reduced_steps"] == methods * sum(sizes) * (levels - 2)
    assert metrics["rom.solve_rom.calls"] == methods  # one stack per basis
    assert metrics["rom.build_rom.calls"] == methods  # one build per basis
    assert metrics["rom.error_report.calls"] == methods * len(sizes)
