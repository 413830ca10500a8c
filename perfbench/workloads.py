"""The four benchmark workloads as lists of `podwave` argv lists.

Every op is one call of `podwave.cli.main(argv)`.  The seed permutes the op
order of every pass and picks the damping coefficient of `rom-r-sweep` and
`pod-data-errors`; the program itself only ever sees argv lists.  Each op
writes into its own relative output directory, so the CSV headers (which
embed the output directory) are identical from pass to pass.

`size="tiny"` shrinks every workload to a fraction of a second for the
smoke tests; `size="full"` is what the benchmark measures.
"""

import math
import random

C_KELVIN_VOIGT = repr(2.0 / math.pi)
DAMPING_VALUES = ["0.00001", "0.0001", "0.001", "0.01", "0.1"]

WORKLOADS = ("tables", "rom-r-sweep", "pod-data-errors", "fe-export")
SIZES = ("full", "tiny")


def damping_for(seed):
    """The damping coefficient a seed selects from the paper's sweep list."""
    return DAMPING_VALUES[random.Random(seed).randrange(len(DAMPING_VALUES))]


def _tables(size, damping):
    # The op sequence of scripts/reproduce_tables.py.  Full size: half the
    # reference mesh and step, on a quarter of the time span (T = 2.5, the
    # profile times and training windows scaled with it); every stage is
    # linear in the number of time levels, so the layer shares stay those of
    # the full reproduction.  The convergence family keeps its own sizes.
    # Tiny size: the `--quick` scale.
    if size == "full":
        base = ["--n-elements", "200", "--dt", "1/400", "--T", "2.5"]
        r_data, r_visc, r_kv = "10,20,40,60", "20,40", "10,20"
        conv = ["--n-elements", "2000", "--T", "1.25"]
        times, windows = ["0", "1.25", "2.5"], ["2.5", "1.25", "0.25", "0.125"]
    else:
        base = ["--n-elements", "48", "--dt", "1/96", "--T", "4"]
        r_data, r_visc, r_kv = "4,8,12", "8,12", "4,8"
        conv = ["--n-elements", "400", "--T", "1.25"]
        times, windows = ["0", "2", "4"], ["4", "2", "1", "0.5"]
    kv = base + ["--c", C_KELVIN_VOIGT, "--G", "0.001"]
    visc = base + ["--c", "1.0", "--D", "0.1"]
    ops = []
    for method in ("standard", "ddq"):
        ops.append([*kv, "--pod-method", method, "--r-list", r_data, "error-formulas"])
        ops.append([*kv, "--pod-method", method, "singvals"])
        ops.append([*visc, "--pod-method", method, "singvals"])
    ops.append([*base, "--c", "1.0", "--r-list", r_visc,
                "rom-sweep", "--param", "D", "--values", *DAMPING_VALUES])
    ops.append([*base, "--c", "1.0", "--r-list", r_kv,
                "rom-sweep", "--param", "G", "--values", *DAMPING_VALUES])
    for method in ("standard", "ddq"):
        for r in (10, 20):
            ops.append([*visc, "--pod-method", method, "profiles", "--r", str(r),
                        "--times", *times])
        for r in (5, 10):
            ops.append([*kv, "--pod-method", method, "profiles", "--r", str(r),
                        "--times", *times])
    for flags in (["--D", "0.1"], ["--G", "0.001"]):
        ops.append([*base, "--c", "1.0", *flags,
                    "train-interval", "--t-train", *windows, "--r", "20"])
    ops.append([*conv, "--dt", "1/100", "--c", "1.0", "--u0", "sine",
                "convergence", "--dt-list", "0.01", "0.005", "0.0025"])
    return ops


def _rom_r_sweep(size, damping):
    # Reference mesh and step on T = 2.5: 1 FE solve, 2 SVDs, 24 ROM cycles.
    if size == "full":
        base = ["--n-elements", "400", "--dt", "1/800", "--T", "2.5"]
        r_list = ",".join(str(r) for r in range(5, 61, 5))
    else:
        base = ["--n-elements", "32", "--dt", "1/64", "--T", "2"]
        r_list = "2,4,6,8"
    return [[*base, "--c", "1.0", "--r-list", r_list,
             "rom-sweep", "--param", "D", "--values", damping]]


def _pod_data_errors(size, damping):
    if size == "full":
        meshes, rest = ("400", "800"), ["--dt", "1/400", "--T", "2.5", "--r-list", "10,20,40,60"]
    else:
        meshes, rest = ("24", "48"), ["--dt", "1/64", "--T", "2", "--r-list", "2,4,8"]
    return [["--n-elements", n, *rest, "--c", C_KELVIN_VOIGT, "--G", damping,
             "--pod-method", method, "error-formulas"]
            for n in meshes for method in ("standard", "dq1", "ddq")]


def _fe_export(size, damping):
    # A stride-1 trajectory export at the reference scale (75 MB of CSV) and
    # the convergence study up to 8000 elements, whose 4001 x 7999 state
    # array is 256 MB.
    if size == "full":
        solve = ["--n-elements", "400", "--dt", "1/800", "--T", "10"]
        meshes = ("2000", "4000", "8000")
        dts = ["0.01", "0.005", "0.0025", "0.00125", "0.000625", "0.0003125"]
    else:
        solve = ["--n-elements", "40", "--dt", "1/80", "--T", "2"]
        meshes = ("200", "400")
        dts = ["0.01", "0.005", "0.0025"]
    ops = [[*solve, "--c", "1.0", "--D", "0.1", "--stride", "1", "solve"]]
    for n in meshes:
        ops.append(["--n-elements", n, "--T", "1.25", "--dt", "1/100", "--c", "1.0",
                    "--u0", "sine", "convergence", "--dt-list", *dts])
    return ops


_WORKLOAD_OPS = {
    "tables": _tables,
    "rom-r-sweep": _rom_r_sweep,
    "pod-data-errors": _pod_data_errors,
    "fe-export": _fe_export,
}


def invocations(workload, size, damping):
    """The workload's argv lists, unshuffled, for one damping coefficient."""
    if workload not in _WORKLOAD_OPS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    return _WORKLOAD_OPS[workload](size, damping)


def pass_orders(workload, seed, size="full"):
    """Yield, pass after pass, [(op_id, argv)] in a new seeded order.

    op_id is the op's index in the unshuffled list, so it names the same
    invocation whatever the order.  Every pass gets its own permutation, so
    a run's median averages over orders instead of depending on one, and the
    byte-identity check between passes covers outputs made in other orders.
    """
    ops = [(op_id, ["--output-dir", f"op{op_id:02d}", *argv])
           for op_id, argv in enumerate(invocations(workload, size, damping_for(seed)))]
    rng = random.Random(seed)
    while True:
        rng.shuffle(ops)
        yield list(ops)
