"""Experiment drivers behind the command-line tool.

Each function takes a validated RunConfig, runs the pipeline and returns
plain rows ready for CSV output, so the same code paths are exercised by the
CLI, the test suite, and the reproduction scripts.

The drivers get their FE trajectories and POD bases from one study cache,
so that a process making one CLI call per table, as the reproduction script
does, computes each distinct trajectory and basis once.  Entries are keyed
by value, a basis by its trajectory's key, its snapshot count, method and
rank_tol.  To stay within _CACHE_BUDGET_BYTES of array bytes the cache
evicts the least recently used entry that has never been hit, and only when
every entry has been hit the least recently used one, so that a run of
single-use entries (the trajectories of one rom-sweep) does not flush those
that other ops share.  It never stores an entry larger than the budget, so a
reference-scale trajectory does not stay resident.  Cached arrays are
read-only, so no caller can change a later call's input.
"""

import math
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from . import diffops, pod, rom, wave
from .config import ConfigError, RunConfig
from .fem import assemble, l2_norms_sq
from .wave import TimeGrid, Trajectory, WaveParams

# A larger budget saves a few more solves and SVDs in a reproduction run,
# but the resident bytes then raise its peak memory.
_CACHE_BUDGET_BYTES = 8 << 20
_cache = OrderedDict()  # key -> (value, array bytes, hits), least recently used first


def _cached(key, compute, arrays):
    """The cached value of key, else compute() stored under the budget.
    arrays(value) are the value's arrays: they are made read-only, and
    their bytes are what the entry costs."""
    if key in _cache:
        value, size, hits = _cache[key]
        _cache[key] = (value, size, hits + 1)
        _cache.move_to_end(key)
        return value
    value = compute()
    size = 0
    for array in arrays(value):
        array.flags.writeable = False
        size += array.nbytes
    if size <= _CACHE_BUDGET_BYTES:
        while sum(s for _, s, _ in _cache.values()) + size > _CACHE_BUDGET_BYTES:
            never_hit = (k for k, (_, _, hits) in _cache.items() if hits == 0)
            del _cache[next(never_hit, next(iter(_cache)))]
        _cache[key] = (value, size, 0)
    return value


def _trajectory_key(config: RunConfig):
    """What wave.solve reads, with the grid's values: equal grids share a key."""
    grid = config.time_grid()
    return (config.n_elements, grid.T, grid.dt, grid.N,
            config.c, config.D, config.G, config.u0, config.u00)


def setup(config: RunConfig):
    """(space, grid, params, u0, u00) from a validated config."""
    ics = wave.INITIAL_CONDITIONS
    return (assemble(config.n_elements), config.time_grid(), config.wave_params(),
            ics[config.u0], ics[config.u00])


def fe_trajectory(config: RunConfig) -> Trajectory:
    """The FE trajectory of a validated config, from the study cache."""
    return _cached(_trajectory_key(config), lambda: wave.solve(*setup(config)),
                   lambda traj: (traj.states,))


def _basis(config: RunConfig, traj: Trajectory, method: str) -> pod.PodBasis:
    """The POD basis of traj, which is fe_trajectory(config) or a training
    slice of it, with the config's rank_tol, from the study cache."""
    key = (_trajectory_key(config), traj.grid.N, method, config.rank_tol)
    return _cached(key, lambda: pod.pod_basis(traj, method, rank_tol=config.rank_tol),
                   lambda basis: (basis.modes, basis.eigenvalues))


def _time_level(grid: TimeGrid, t: float, what: str) -> int:
    """The index n of the grid time t = n dt; ConfigError unless t is one of
    the grid's times in [0, T]."""
    steps = t / grid.dt
    if not (math.isfinite(steps) and 0 <= round(steps) < grid.N
            and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
        raise ConfigError(f"{what} {t} is not a time of the grid (dt={grid.dt}, T={grid.T})")
    return round(steps)


def _check_rank(basis: pod.PodBasis, r: int):
    """ConfigError for a basis size the configured data cannot supply."""
    if not 1 <= r <= basis.rank:
        raise ConfigError(f"r must be in [1, {basis.rank}] for this {basis.method} "
                          f"POD basis, got {r}")


def training_slice(traj: Trajectory, t_train: float) -> Trajectory:
    """Restrict a trajectory to the snapshots in [0, t_train]."""
    dt = traj.grid.dt
    m = _time_level(traj.grid, t_train, "training interval") + 1
    if m < 3:
        raise ConfigError(f"training interval {t_train} leaves too few snapshots")
    if m == traj.grid.N:  # then the cached basis keeps the full grid
        return traj
    sub_grid = TimeGrid(T=(m - 1) * dt, dt=dt, N=m)
    return Trajectory(space=traj.space, grid=sub_grid, states=traj.states[:m])


def trajectory_rows(traj: Trajectory, stride: int):
    """The header and a generator of rows (t_n, u^n) for every stride-th
    level, so that the table is formatted row by row and never held whole."""
    header = ["t"] + [f"u_{i}" for i in range(1, traj.space.n_dof + 1)]
    times = traj.grid.times
    rows = ((times[n], *traj.states[n].tolist()) for n in range(0, traj.grid.N, stride))
    return header, rows


def energy_rows(traj: Trajectory, params: WaveParams):
    """Rows (t_n, E, dE, -dissipation) for the interior levels n = 2..N-1."""
    e, rate, dissipation = wave.energy_balance(traj, params)
    times = traj.grid.times
    header = ["t", "energy", "energy_rate", "neg_dissipation"]
    rows = [
        [times[n - 1], e[n - 2], rate[n - 2], -dissipation[n - 2]]
        for n in range(2, traj.grid.N)
    ]
    return header, rows


def singular_value_rows(config: RunConfig):
    traj = fe_trajectory(config)
    header = ["k", "sigma"]
    if not np.any(traj.states):  # then every data set of it is zero too
        return header, []
    basis = _basis(config, traj, config.pod_method)
    sigma = np.sqrt(basis.eigenvalues)
    return header, [[k + 1, sigma[k]] for k in range(basis.rank)]


def error_formula_rows(config: RunConfig):
    """Actual-vs-formula data errors for each r and both norms."""
    if config.rank_tol > 0:  # the formula sums the tail that a cutoff drops
        raise ConfigError(f"error-formulas needs every POD mode: rank_tol must be 0, "
                          f"got {config.rank_tol}")
    traj = fe_trajectory(config)
    basis = _basis(config, traj, config.pod_method)
    data = pod.build_dataset(traj, config.pod_method)
    header = ["r", "norm", "actual", "formula", "relative_gap"]
    rows = []
    lam1 = basis.eigenvalues[0]
    for r in config.r_list:
        _check_rank(basis, int(r))
        for norm in (pod.NORM_L2, pod.NORM_H10):
            actual = pod.data_error_actual(data, basis, int(r), norm=norm)
            formula = pod.data_error_formula(basis, int(r), norm=norm)
            gap = abs(actual - formula) / max(formula, lam1 * 1e-6)
            rows.append([int(r), norm, actual, formula, gap])
    return header, rows


def _rom_runs(traj, params, runs):
    """The ROM systems of the (basis, r) pairs in runs on the grid of traj,
    and their coefficients from one stacked solve; every r is checked first."""
    for basis, r in runs:
        _check_rank(basis, r)
    members = [rom.build_rom(basis, r, traj, params) for basis, r in runs]
    coeffs = rom.solve_rom(rom.stack_roms(members))
    return members, np.split(coeffs, np.cumsum([m.r for m in members])[:-1], axis=1)


def _rom_reports(traj, basis, params, r_list):
    """The error reports of the ROMs of each size in r_list on basis, from one
    sized error frame and one stacked solve, freed on return: before the next
    basis is made."""
    sizes = [int(r) for r in r_list]
    for r in sizes:
        _check_rank(basis, r)
    # the frame before the stack: making it is the peak, and it keeps few columns
    frame = rom.ErrorFrame(traj, basis, params, sizes)
    _, coeffs = _rom_runs(traj, params, [(basis, r) for r in sizes])
    return [rom.error_report(frame, a) for a in coeffs]


def rom_sweep_rows(config: RunConfig, param: str, values, methods=("standard", "ddq")):
    """Max/energy errors and bound ratios over a damping sweep.

    param is "D" or "G"; each value replaces that coefficient while the
    other one is taken from the config.
    """
    if param not in ("D", "G"):
        raise ConfigError("sweep parameter must be D or G")
    header = [param, "r", "method", "max_l2_sq", "max_energy",
              "ratio_energy", "ratio_pointwise"]
    rows = []
    for value in values:
        swept = replace(config, **{param: float(value)}).validated()
        traj, params = fe_trajectory(swept), swept.wave_params()
        for method in methods:
            basis = _basis(swept, traj, method)
            for r, rep in zip(config.r_list, _rom_reports(traj, basis, params, config.r_list)):
                rows.append([
                    float(value), int(r), method, rep.max_l2_sq, rep.max_energy,
                    _nan_if_none(rep.ratio_energy), _nan_if_none(rep.ratio_pointwise),
                ])
    return header, rows


def _nan_if_none(x):
    return math.nan if x is None else x


def profile_rows(config: RunConfig, times, r: int):
    """FE and reconstructed ROM values on the full node set at chosen times."""
    levels = [_time_level(config.time_grid(), float(t), "profile time") for t in times]
    traj = fe_trajectory(config)
    space = traj.space
    basis = _basis(config, traj, config.pod_method)
    (romsys,), (coeffs,) = _rom_runs(traj, config.wave_params(), [(basis, r)])
    rom_states = coeffs[levels] @ romsys.modes
    header = ["x"]
    cols = [space.full_nodes]
    for t, n, rom_state in zip(times, levels, rom_states):
        header += [f"fe_t{t:g}", f"rom_t{t:g}"]
        cols.append(space.pad_boundary(traj.states[n]))
        cols.append(space.pad_boundary(rom_state))
    rows = [list(row) for row in zip(*cols)]
    return header, rows


def train_interval_rows(config: RunConfig, t_train_list, r: int,
                        methods=("standard", "ddq")):
    """Final-time ROM errors when the basis sees only [0, T_train].

    `final_time_l2` is the plain norm ||u_h(T) - u_r(T)||_L2, not its square;
    the ROM runs over the whole grid [0, T] in every row.
    """
    traj = fe_trajectory(config)
    runs = [(float(t), method, _basis(config, training_slice(traj, float(t)), method))
            for t in t_train_list for method in methods]
    members, coeffs = _rom_runs(traj, config.wave_params(), [(basis, r) for *_, basis in runs])
    header = ["T_train", "method", "final_time_l2"]
    rows = []
    for (t_train, method, _), romsys, a in zip(runs, members, coeffs):
        final_sq = l2_norms_sq(traj.space, traj.states[-1] - a[-1] @ romsys.modes)
        rows.append([t_train, method, math.sqrt(max(final_sq, 0.0))])
    return header, rows


def convergence_rows(config: RunConfig, dt_list):
    """Final-time error against the analytic series for a dt sweep.

    Uses the configured mesh and damping; the initial data is the config's
    (the single-sine initial condition gives the cleanest orders).  Only the
    final state is read, so each run steps with two time levels in memory.
    """
    if config.D > 0 and config.G > 0:
        raise ConfigError("convergence needs D = 0 or G = 0: the modal series "
                          "has one damping term")
    space, _, params, u0, u00 = setup(config)
    sol = wave.analytic_series(params, u0, u00, k_max=config.k_max)
    exact_final = wave.analytic_eval(sol, space.nodes, config.T)
    header = ["dt", "h", "final_l2_error", "observed_order"]
    rows = []
    prev = None
    for dt in dt_list:
        if prev is not None and float(dt) == prev[0]:
            raise ConfigError(f"dt-list repeats the step {dt}: an order needs two sizes")
        run = replace(config, dt=float(dt)).validated()  # dt must divide T
        diff = wave.final_state(space, run.time_grid(), params, u0, u00) - exact_final
        err = float(np.sqrt(l2_norms_sq(space, diff)))
        order = math.nan  # also where an error is 0 and has no logarithm
        if prev is not None and prev[1] > 0 and err > 0:
            prev_dt, prev_err = prev
            order = math.log(prev_err / err) / math.log(prev_dt / float(dt))
        rows.append([float(dt), space.h, err, order])
        prev = (float(dt), err)
    return header, rows


def invariant_checks(config: RunConfig):
    """Fast self-checks on a reduced instance; returns (name, ok, detail)."""
    rng = np.random.default_rng(config.seed)
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    small = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, c=config.c,
                      D=0.05, G=0.001).validated()
    params = small.wave_params()
    traj = fe_trajectory(small)

    e, rate, dissipation = wave.energy_balance(traj, params)
    res = float(np.max(np.abs(rate + dissipation))) / e[0]
    record("energy_identity", res <= 1e-9, f"residual {res:.2e}")

    worst = 0.0
    for method in pod.METHODS:
        basis = _basis(small, traj, method)
        data = pod.build_dataset(traj, method)
        lam1 = basis.eigenvalues[0]
        for r in (1, min(5, basis.rank), min(12, basis.rank)):
            for norm in (pod.NORM_L2, pod.NORM_H10):
                for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
                    act = pod.data_error_actual(data, basis, r, norm, projector)
                    form = pod.data_error_formula(basis, r, norm, projector)
                    worst = max(worst, abs(act - form) / max(form, lam1 * 1e-6))
    record("error_formula_identity", worst <= 1e-8, f"worst gap {worst:.2e}")

    ok = True
    for method in ("dq1", "ddq"):
        basis = _basis(small, traj, method)
        for statistic in ("max", "sum"):
            chk = pod.pointwise_bound_check(traj, basis, 4, statistic=statistic)
            ok = ok and (chk.lhs <= chk.rhs * (1 + 1e-12))
    record("pointwise_bounds", ok, "snapshot bounds hold at r=4")

    z = rng.standard_normal((12, 5))
    dt = 0.3
    rebuilt = diffops.rebuild_sequence(z[0], (z[1] - z[0]) / dt,
                                       diffops.second_diff(z, dt), dt)
    gap = float(np.max(np.abs(rebuilt - z))) / max(float(np.max(np.abs(z))), 1e-30)
    record("sequence_rebuild_identity", gap <= 1e-11, f"gap {gap:.2e}")

    basis = _basis(small, traj, "standard")
    rep, = _rom_reports(traj, basis, params, [basis.rank])
    scale = float(np.max(np.abs(traj.states)))
    ok = rep.max_l2_sq <= (1e-8 * scale) ** 2 * traj.space.n_dof
    record("full_rank_rom_consistency", ok, f"max_l2_sq {rep.max_l2_sq:.2e}")

    return results
