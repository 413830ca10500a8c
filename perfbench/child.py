"""One pass of a workload in a fresh interpreter.

Usage: child.py SPEC_JSON

Prints `ready` as soon as `import podwave.cli` returns (the parent times
set-up up to that line), then runs every op of the spec in order as an
in-process call of `podwave.cli.main(argv)` from the current directory, and
prints one JSON line with the per-op exit codes and the pass's wall time,
CPU time, minor page faults and peak RSS.  A spec with no ops only measures
set-up.
"""

import sys
import time

import podwave.cli  # noqa: E402  (the import is what set-up measures)

print("ready", flush=True)

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_s_and_faults():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(podwave.cli.__file__).startswith(src + os.sep):
        print(f"podwave was imported from {podwave.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli_main = podwave.cli.main  # looked up after install, which may rebind it
    ops = []
    with open(os.devnull, "w") as sink:
        (cpu0, faults0), wall0 = _cpu_s_and_faults(), time.perf_counter()
        for op_id, argv in spec["ops"]:
            if tracer:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = cli_main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # any uncaught error fails the op, not the pass
                print(f"op {op_id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
            ops.append({"op": op_id, "rc": rc, "wall_s": time.perf_counter() - t0})
        wall = time.perf_counter() - wall0
        cpu1, faults1 = _cpu_s_and_faults()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(spec["spans_path"])
    print(json.dumps({"ops": ops, "wall_s": wall, "cpu_s": cpu1 - cpu0,
                      "minor_faults": faults1 - faults0, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
