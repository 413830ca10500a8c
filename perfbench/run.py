#!/usr/bin/env python3
"""podwave benchmark: closed loop, one client, fresh child process per pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  Each pass runs every op of the workload, in an order drawn from the
seed, as an in-process call of `podwave.cli.main(argv)` inside a new
interpreter whose BLAS/OpenMP thread counts are pinned to 1; the allocator
keeps glibc's defaults, as for any user of the CLI.  Passes repeat while the
next one is expected to finish within `--seconds`; at least one always runs.

Every op's outputs are checked (see checks.py) and the CSVs of all passes of
one run must be byte-identical.  The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics under `--trace 0`, and under `--trace 1` the per-layer metrics of a
traced pass plus the tracing overhead (median traced minus median untraced
pass wall time).  The line before it records the environment.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, pass_orders  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3       # set-up-only children per run, besides one per pass
CHILD_TIMEOUT_S = 170

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def run_child(spec, cwd):
    """(set-up seconds, result dict or None) for one child process."""
    spec_path = os.path.join(cwd, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                            cwd=cwd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode} "
                         f"(is the podwave source under {SRC}?)")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def measure_setup(work_dir):
    return run_child({"src": SRC, "trace": False, "ops": []}, work_dir)[0]


def run_pass(ops, trace, work_dir, reference, spans_path):
    """One pass in a fresh child; checks every op and deletes its outputs."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=work_dir)
    try:
        spec = {"src": SRC, "trace": trace, "ops": ops, "spans_path": spans_path}
        setup, result = run_child(spec, pass_dir)
        argv_of = dict(ops)
        failures, digests = {}, {}
        for op in result["ops"]:
            op_id = op["op"]
            argv = argv_of[op_id]
            op_dir = os.path.join(pass_dir, argv[argv.index("--output-dir") + 1])
            problems, op_digests, _ = checks.check_op(op_dir, argv, op["rc"], reference)
            if problems:
                failures[op_id] = problems
            digests.update({(op_id, name): v for name, v in op_digests.items()})
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result.update(setup_s=setup, failures=failures, digests=digests)
    return result


def environment(args):
    env = {"child_threads": {var: "1" for var in THREAD_VARS}}
    env.update(nproc=os.cpu_count(), cpu_model=_cpu_model(), caches=_cache_sizes(),
               python=platform.python_version(), git_commit=_git_commit(),
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               size=args.size)
    import numpy
    import scipy
    env.update(numpy=numpy.__version__, scipy=scipy.__version__)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _git_commit():
    """HEAD of the checkout, read from .git directly: a checkout that is not a
    repository must not pick up the commit of some enclosing one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_reference(size):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(size, {})
    except FileNotFoundError:
        raise BenchError(f"missing {REFERENCE}") from None


def print_layer_table(workload, layers, units):
    print(f"per-layer metrics, workload {workload} (median of the traced passes):")
    for name, value in layers.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {shown:>14s} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: a fraction-of-a-second version for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "podwave")):
        raise BenchError(f"no podwave package under {SRC}")
    reference = load_reference(args.size)
    orders = pass_orders(args.workload, args.seed, args.size)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return _run(args, orders, reference, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, orders, reference, work_dir):
    env = environment(args)
    setups = [measure_setup(work_dir) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        ops = next(orders)
        plain.append(run_pass(ops, False, work_dir, reference, None))
        if args.trace:
            # the traced pass repeats the order of the untraced pass it is compared with
            traced.append(run_pass(ops, True, work_dir, reference, spans_path))
            traced[-1]["layers"] = tracer.layer_metrics(tracer.load_spans(spans_path))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > args.seconds:
            break
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]

    failed_ops = {}
    for k, p in enumerate(passes):
        for op_id, problems in p["failures"].items():
            failed_ops[(k, op_id)] = problems
    # Byte identity across passes (same code and seed; any op order; traced or not).
    first = passes[0]["digests"]
    for k, p in enumerate(passes[1:], 1):
        for (op_id, name), value in p["digests"].items():
            if first.get((op_id, name), value) != value:
                failed_ops.setdefault((k, op_id), []).append(f"{name} differs from pass 0")
    for (k, op_id), problems in sorted(failed_ops.items()):
        for problem in problems:
            print(f"FAIL pass {k} op {op_id}: {problem}", file=sys.stderr)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = len(failed_ops)
    correct = failed == 0

    if args.trace:
        units = dict(tracer.LAYER_METRICS)
        for k, p in enumerate(traced):
            self_sum = sum(v for name, v in p["layers"].items() if name.endswith(".self_s"))
            if self_sum > p["wall_s"]:
                print(f"FAIL traced pass {k}: layer self times sum to {self_sum:.4f} s, "
                      f"more than its wall time {p['wall_s']:.4f} s", file=sys.stderr)
                correct = False
        # Counts repeat exactly from pass to pass; times are medians.
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        print_layer_table(args.workload, layers, units)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in tracer.LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    env.update(passes=len(plain), traced_passes=len(traced), setup_samples=len(setups),
               pass_wall_s=[p["wall_s"] for p in plain],
               pass_minor_faults=[p["minor_faults"] for p in plain],
               traced_pass_wall_s=[p["wall_s"] for p in traced])
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind normally, so the running child is killed and waited
    # for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
