#!/usr/bin/env python3
"""Record the reference fingerprints the benchmark compares outputs against.

    python3 perfbench/make_reference.py

Runs every distinct invocation of every workload, at both sizes and for every
damping value a seed can select, once, and writes the column fingerprints of
its CSVs to a fresh perfbench/reference.json.  Run it only on the commit
whose outputs are the reference (the seed commit); the benchmark then accepts
later commits whose outputs agree within checks.REFERENCE_RTOL.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from workloads import DAMPING_VALUES, SIZES, WORKLOADS, invocations  # noqa: E402
from podwave.cli import main as podwave  # noqa: E402


def record(size, tmp_dir):
    out = {}
    for workload in WORKLOADS:
        for damping in DAMPING_VALUES:
            for argv in invocations(workload, size, damping):
                if any(checks.reference_key(argv, name) in out
                       for name in checks.output_files(argv)):
                    continue
                op_dir = os.path.join(tmp_dir, "op")
                shutil.rmtree(op_dir, ignore_errors=True)
                rc = podwave(["--output-dir", op_dir, *argv])
                problems, _, prints = checks.check_op(op_dir, argv, rc, None)
                if problems:
                    sys.exit(f"{' '.join(argv)}: {problems}")
                for name, fp in prints.items():
                    out[checks.reference_key(argv, name)] = fp
    return out


def main():
    path = os.path.join(HERE, "reference.json")
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        reference = {size: record(size, tmp_dir) for size in SIZES}
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
