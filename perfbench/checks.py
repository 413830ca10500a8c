"""Output checks for one op: exit code, finite cells, the paper's identities,
and agreement with the reference values recorded from the seed commit.

Reference values are compared by column fingerprints within a relative
tolerance, never by bytes: later changes to the time integration are
expected to move last digits.  Byte identity is checked separately, between
passes of the same code and seed, through `digest`.
"""

import hashlib
import os

import numpy as np

FORMULA_GAP_MAX = 1e-6      # error_formulas.csv relative_gap
ENERGY_RESIDUAL_MAX = 1e-9  # energy.csv, relative to the initial energy
ORDER_RANGE = (1.9, 2.1)    # convergence.csv on the 8000-element mesh
ORDER_MESH = 8000
REFERENCE_RTOL = 1e-6

# Cells the CLI writes as nan by design: bound ratios whose denominator is
# below round-off, and the first observed order of a convergence table.
NAN_ALLOWED = {
    "rom_sweep.csv": {"ratio_energy", "ratio_pointwise"},
    "convergence.csv": {"observed_order"},
}
# Columns that hold only round-off; they are bounded, not compared.
ROUNDOFF_COLUMNS = {"error_formulas.csv": {"relative_gap"}}

OUTPUTS = {
    "solve": ("trajectory.csv", "energy.csv"),
    "singvals": None,  # singvals_<method>.csv
    "error-formulas": ("error_formulas.csv",),
    "rom-sweep": ("rom_sweep.csv",),
    "profiles": ("profiles.csv",),
    "train-interval": ("train_interval.csv",),
    "convergence": ("convergence.csv",),
}


class Table:
    """A podwave CSV: the `# key=value` preamble, the header and columns."""

    def __init__(self, path):
        self.name = os.path.basename(path)
        self.meta = {}
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            while line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                self.meta[key] = value
                line = fh.readline()
            self.header = line.rstrip("\n").split(",")
            start = fh.tell()
            first = fh.readline().rstrip("\n").split(",")
            fh.seek(start)
            if all(_is_number(cell) for cell in first):
                # All-numeric tables can be large (trajectory.csv is 75 MB):
                # parse them in C without holding the cells as strings.
                data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
                if data.size and data.shape[1] != len(self.header):
                    raise ValueError("row width differs from the header")
                self.columns = {name: data[:, j] if data.size else np.empty(0)
                                for j, name in enumerate(self.header)}
                return
            rows = [row.split(",") for row in fh.read().splitlines()]
        self.columns = {}
        for j, name in enumerate(self.header):
            cells = [row[j] for row in rows]
            try:
                self.columns[name] = np.array(cells, dtype=float)
            except ValueError:
                self.columns[name] = cells  # a label column such as method or norm


def output_files(argv):
    command = next(a for a in argv if a in OUTPUTS)
    if command == "singvals":
        method = argv[argv.index("--pod-method") + 1] if "--pod-method" in argv else "standard"
        return (f"singvals_{method}.csv",)
    return OUTPUTS[command]


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(table):
    """Per column: (finite count, nan count, sum, sum of |x|, moment) for
    numbers, the value counts and a hash of the sequence for labels.

    The moment is sum(i * x_i) / n over the finite cells, i the row index and
    n the row count, so reordered rows change it where the sums stay put.
    """
    out = {}
    for name, col in table.columns.items():
        if name in ROUNDOFF_COLUMNS.get(table.name, ()):
            continue
        if isinstance(col, list):
            counts = {}
            for cell in col:
                counts[cell] = counts.get(cell, 0) + 1
            order = hashlib.sha256("\n".join(col).encode()).hexdigest()[:16]
            out[name] = {"labels": dict(sorted(counts.items())), "order": order}
        else:
            finite = np.isfinite(col)
            values = col[finite]
            rows = np.flatnonzero(finite) / max(col.size, 1)
            out[name] = {"finite": int(values.size), "nan": int(np.isnan(col).sum()),
                         "sum": float(values.sum()), "abs_sum": float(np.abs(values).sum()),
                         "moment": float(rows @ values)}
    return out


def compare_fingerprint(got, ref, rtol=REFERENCE_RTOL):
    """Differences between two fingerprints as messages; empty when they agree."""
    problems = []
    if set(got) != set(ref):
        return [f"columns {sorted(got)} differ from reference {sorted(ref)}"]
    for name, want in ref.items():
        have = got[name]
        if ("labels" in want) != ("labels" in have):
            problems.append(f"{name}: holds {'labels' if 'labels' in have else 'numbers'}, "
                            f"reference holds {'labels' if 'labels' in want else 'numbers'}")
            continue
        if "labels" in want:
            if have["labels"] != want["labels"]:
                problems.append(f"{name}: labels differ from reference")
            elif have["order"] != want["order"]:
                problems.append(f"{name}: labels are in another order than the reference")
            continue
        if (have["finite"], have["nan"]) != (want["finite"], want["nan"]):
            problems.append(f"{name}: {have['finite']} finite / {have['nan']} nan cells, "
                            f"reference {want['finite']} / {want['nan']}")
            continue
        scale = want["abs_sum"]
        for key in ("sum", "abs_sum", "moment"):
            if abs(have[key] - want[key]) > rtol * scale:
                problems.append(f"{name}: {key} {have[key]!r} vs reference {want[key]!r}")
    return problems


def _check_finite(table):
    problems = []
    allowed = NAN_ALLOWED.get(table.name, set())
    for name, col in table.columns.items():
        if isinstance(col, list):
            continue
        bad = ~np.isfinite(col)
        if name == "observed_order":
            bad[:1] = False  # no order for the first step size
        elif name in allowed:
            bad &= ~np.isnan(col)
        if bad.any():
            problems.append(f"{table.name}: {int(bad.sum())} non-finite cells in {name}")
    return problems


def _check_invariants(table):
    problems = []
    if table.name == "error_formulas.csv":
        gap = float(np.max(table.columns["relative_gap"], initial=0.0))
        if not gap <= FORMULA_GAP_MAX:
            problems.append(f"error_formulas.csv: relative_gap {gap:.3e} > {FORMULA_GAP_MAX:g}")
    elif table.name == "energy.csv":
        rate, neg_diss = table.columns["energy_rate"], table.columns["neg_dissipation"]
        residual = float(np.max(np.abs(rate - neg_diss), initial=0.0)) / table.columns["energy"][0]
        if not residual <= ENERGY_RESIDUAL_MAX:
            problems.append(f"energy.csv: energy identity residual {residual:.3e} > {ENERGY_RESIDUAL_MAX:g}")
    elif table.name == "rom_sweep.csv":
        ddq = np.array([m == "ddq" for m in table.columns["method"]])
        for name in ("ratio_energy", "ratio_pointwise"):
            ratios = table.columns[name][ddq]
            ratios = ratios[np.isfinite(ratios)]
            if ratios.size and not ratios.max() <= 1.0:
                problems.append(f"rom_sweep.csv: ddq {name} {ratios.max():.4g} > 1")
    elif table.name == "convergence.csv" and int(table.meta.get("n_elements", 0)) == ORDER_MESH:
        orders = table.columns["observed_order"][1:]
        lo, hi = ORDER_RANGE
        if not np.all((orders >= lo) & (orders <= hi)):
            problems.append(f"convergence.csv: observed orders {orders.tolist()} outside [{lo}, {hi}]")
    return problems


def check_op(op_dir, argv, returncode, reference):
    """(problems, digests, fingerprints) for one op's output directory.

    reference maps `reference_key(argv, name)` to a fingerprint; with
    reference None (while recording it) only the invariants are checked.
    """
    if returncode != 0:
        return [f"exit code {returncode}"], {}, {}
    problems, digests, prints = [], {}, {}
    for name in output_files(argv):
        path = os.path.join(op_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
            continue
        digests[name] = digest(path)
        try:
            table = Table(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        problems += _check_finite(table) + _check_invariants(table)
        prints[name] = fingerprint(table)
        if reference is None:
            continue
        want = reference.get(reference_key(argv, name))
        if want is None:
            problems.append(f"{name}: no reference values for this invocation")
        else:
            problems += [f"{name}: {p}" for p in compare_fingerprint(prints[name], want)]
    return problems, digests, prints


def reference_key(argv, name):
    """The invocation without its output directory, plus the file name."""
    args = list(argv)
    if "--output-dir" in args:
        i = args.index("--output-dir")
        del args[i:i + 2]
    return " ".join(args) + " -> " + name


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True
