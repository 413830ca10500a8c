"""Spans around podwave's public functions, recorded from outside the program.

`Tracer.install()` wraps each function in `TRACED` and rebinds the wrapper in
every loaded `podwave` module that holds the original object, including
module-level dicts (`rom` imports `energy_series` and `project_ritz` with
`from ... import`, `pod` does the same with `thin_svd`, and `pod` keeps its
projectors in a dict).  Spans stay in memory and are written out once, at the
end of the pass.

Each span records its wrapper's own bookkeeping interval (`outer`) around the
timed call, so a parent's self time excludes both the child's duration and the
child's bookkeeping.  Summed self times therefore never exceed the pass wall
time; the bookkeeping shows up only as tracing overhead.
"""

import hashlib
import json
import os
import resource
import sys
import time

MIB = float(1 << 20)


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(memoryview(a).cast("B") if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


def _fn_id(fn):
    return f"{fn.__module__}.{fn.__qualname__}"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# Per traced function: (key from the call inputs or None, work counts from
# the inputs, work counts from the result).
def _solve_in(args, kwargs):
    space, grid, params, u0, u00 = (_arg(args, kwargs, i, n) for i, n in
                                    enumerate(("space", "grid", "params", "u0", "u00")))
    key = (space.n_dof, grid.dt, grid.N, params.c, params.D, params.G, _fn_id(u0), _fn_id(u00))
    return repr(key), {"dof_steps": space.n_dof * (grid.N - 2)}


def _svd_in(args, kwargs):
    b = _arg(args, kwargs, 0, "b")
    k, n = min(b.shape), max(b.shape)
    # R-SVD count for the singular values and the thin left factor
    # (Golub and Van Loan, table 8.6.1): a model of the work, not a measurement.
    return _digest(b), {"flops_computed": 6 * n * k * k + 20 * k ** 3}


def _dataset_in(args, kwargs):
    traj = _arg(args, kwargs, 0, "traj")
    return None, {"mb": traj.states.nbytes / MIB}


def _basis_in(args, kwargs):
    data = _arg(args, kwargs, 0, "data")
    rank_tol = _arg(args, kwargs, 1, "rank_tol", 0.0)
    return _digest(data.columns, data.weights) + repr(rank_tol), {}


def _solve_rom_in(args, kwargs):
    romsys = _arg(args, kwargs, 0, "romsys")
    return None, {"reduced_steps": romsys.r * (romsys.grid.N - 2)}


def _csv_out(result):
    return {"mb": os.path.getsize(result) / MIB}


DRIVERS = ("energy_rows", "singular_value_rows", "error_formula_rows", "rom_sweep_rows",
           "profile_rows", "train_interval_rows", "convergence_rows")

# (module, function, input hook, result hook)
TRACED = [
    ("wave", "solve", _solve_in, None),
    ("wave", "energy_series", None, None),
    ("wave", "analytic_series", None, None),
    ("wave", "analytic_eval", None, None),
    ("linalg", "thin_svd", _svd_in, None),
    ("pod", "build_dataset", _dataset_in, None),
    ("pod", "compute_basis", _basis_in, None),
    ("pod", "data_error_actual", None, None),
    ("pod", "data_error_formula", None, None),
    ("pod", "project_ritz", None, None),
    ("fem", "l2_norms_sq", None, None),
    ("fem", "h10_norms_sq", None, None),
    ("rom", "build_rom", None, None),
    ("rom", "solve_rom", _solve_rom_in, None),
    ("rom", "error_report", None, None),
    ("experiments", "trajectory_rows", None, None),
    *(("experiments", name, None, None) for name in DRIVERS),
    ("cli", "write_csv", None, _csv_out),
    ("cli", "main", None, None),
]

# The per-layer metrics, in BENCHMARK.json order: (name, unit).
LAYER_METRICS = [
    ("wave.solve.calls", "count"), ("wave.solve.self_s", "s"),
    ("wave.solve.dof_steps", "count"), ("wave.solve.distinct_ratio", "ratio"),
    ("wave.solve.rss_growth_mb", "MiB"),
    ("wave.energy_series.calls", "count"), ("wave.energy_series.self_s", "s"),
    ("wave.analytic_series.self_s", "s"), ("wave.analytic_eval.self_s", "s"),
    ("linalg.thin_svd.calls", "count"), ("linalg.thin_svd.self_s", "s"),
    ("linalg.thin_svd.flops_computed", "flop"), ("linalg.thin_svd.distinct_ratio", "ratio"),
    ("linalg.thin_svd.rss_growth_mb", "MiB"),
    ("pod.build_dataset.calls", "count"), ("pod.build_dataset.self_s", "s"),
    ("pod.build_dataset.mb", "MiB"), ("pod.build_dataset.rss_growth_mb", "MiB"),
    ("pod.compute_basis.calls", "count"), ("pod.compute_basis.self_s", "s"),
    ("pod.compute_basis.distinct_ratio", "ratio"),
    ("pod.data_error_actual.calls", "count"), ("pod.data_error_actual.self_s", "s"),
    ("pod.data_error_formula.calls", "count"), ("pod.data_error_formula.self_s", "s"),
    ("pod.project_ritz.calls", "count"), ("pod.project_ritz.self_s", "s"),
    ("fem.l2_norms_sq.calls", "count"), ("fem.l2_norms_sq.self_s", "s"),
    ("fem.h10_norms_sq.calls", "count"), ("fem.h10_norms_sq.self_s", "s"),
    ("rom.build_rom.calls", "count"), ("rom.build_rom.self_s", "s"),
    ("rom.solve_rom.calls", "count"), ("rom.solve_rom.self_s", "s"),
    ("rom.solve_rom.reduced_steps", "count"),
    ("rom.error_report.calls", "count"), ("rom.error_report.self_s", "s"),
    ("experiments.trajectory_rows.self_s", "s"),
    ("experiments.trajectory_rows.rss_growth_mb", "MiB"),
    ("experiments.drivers.self_s", "s"),
    ("cli.write_csv.calls", "count"), ("cli.write_csv.self_s", "s"), ("cli.write_csv.mb", "MiB"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def install(self):
        for module_name, fn_name, in_hook, out_hook in TRACED:
            module = sys.modules[f"podwave.{module_name}"]
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, in_hook, out_hook)
            for name, mod in list(sys.modules.items()):
                if name == "podwave" or name.startswith("podwave."):
                    _rebind(mod, original, wrapper)

    def _wrap(self, name, fn, in_hook, out_hook):
        spans, stack = self.spans, self._stack
        clock, rusage, who = time.perf_counter, resource.getrusage, resource.RUSAGE_SELF

        def traced(*args, **kwargs):
            outer0 = clock()
            key, work = in_hook(args, kwargs) if in_hook else (None, {})
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            rss0 = rusage(who).ru_maxrss
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                rss1 = rusage(who).ru_maxrss
                stack.pop()
                if out_hook and result is not None:
                    work = {**work, **out_hook(result)}
                spans[index] = {"name": name, "op": self.op_id, "parent": parent,
                                "start": t0, "end": t1, "outer_start": outer0,
                                "outer_end": clock(), "rss_growth_mb": (rss1 - rss0) / 1024.0,
                                "key": key, "work": work}

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(module, original, wrapper):
    for attr, value in list(vars(module).items()):
        if value is original:
            setattr(module, attr, wrapper)
        elif isinstance(value, dict):
            for k, v in value.items():
                if v is original:
                    value[k] = wrapper


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Self time per span: its duration minus its children's outer intervals."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["outer_end"] - s["outer_start"]
    return own


def layer_metrics(spans):
    """{metric: value} for every LAYER_METRICS entry except trace.overhead_s."""
    stats = {}
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        if name.startswith("experiments.") and name.split(".", 1)[1] in DRIVERS:
            name = "experiments.drivers"
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0,
                                     "keys": set()})
        st["calls"] += 1
        st["self_s"] += own
        st["rss_growth_mb"] += span["rss_growth_mb"]
        if span["key"] is not None:
            st["keys"].add(span["key"])
        for k, v in span["work"].items():
            st[k] = st.get(k, 0) + v
    out = {}
    for metric, _ in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if layer == "trace":
            continue
        st = stats.get(layer, {"calls": 0, "keys": set()})
        if field == "distinct_ratio":
            out[metric] = len(st["keys"]) / st["calls"] if st["calls"] else 0.0
        else:
            out[metric] = st.get(field, 0)
    return out
