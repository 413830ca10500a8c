"""Experiment drivers behind the command-line tool.

Each function takes a RunConfig, which is valid by construction, runs the
pipeline and returns plain rows ready for CSV output, so the same code paths
are exercised by the CLI, the test suite, and the reproduction scripts.

The drivers get their FE trajectories and POD bases from one study cache,
so that a process making one CLI call per table, as the reproduction script
does, computes each distinct trajectory and basis once.  Entries are keyed
by value, a basis by its trajectory's key, its snapshot count and method.
To stay within _CACHE_BUDGET_BYTES of array bytes the cache evicts the
least recently used entry that has never been hit, and only when every
entry has been hit the least recently used one, so that a run of
single-use entries (the trajectories of one rom-sweep) does not flush those
that other ops share.  It never stores an entry larger than the budget, so a
reference-scale trajectory does not stay resident.  A basis that does not
fit beside its trajectory is not stored either, so the trajectory stays for
the next op on it, such as another data convention's.  Cached arrays are
read-only, so no caller can change a later call's input.  `solve` does not
use the cache: it streams its trajectory in bounded blocks of levels, so it
neither holds one nor evicts entries that other ops share.
"""

import math
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from . import diffops, pod, rom, wave
from .config import ConfigError, RunConfig
from .fem import FemSpace, assemble, l2_norms_sq
from .wave import TimeGrid, Trajectory

# A larger budget saves a few more solves and SVDs in a reproduction run,
# but the resident bytes then raise its peak memory.
_CACHE_BUDGET_BYTES = 8 << 20
_COMPARED = ("standard", "ddq")  # the POD methods whose ROMs a table compares
_cache = OrderedDict()  # key -> (value, array bytes, hits), least recently used first


def _cached(key, compute, arrays, keep=None):
    """The cached value of key, else compute() stored under the budget,
    but not by evicting key keep.  arrays(value) are the value's arrays:
    they are made read-only, and their bytes are what the entry costs."""
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
    if size + (_cache[keep][1] if keep in _cache else 0) <= _CACHE_BUDGET_BYTES:
        while sum(s for _, s, _ in _cache.values()) + size > _CACHE_BUDGET_BYTES:
            others = [k for k in _cache if k != keep]
            del _cache[next((k for k in others if _cache[k][2] == 0), others[0])]
        _cache[key] = (value, size, 0)
    return value


def _trajectory_key(config: RunConfig):
    """What wave.solve reads, with the grid's values: equal grids share a key."""
    grid = config.time_grid()
    return (config.n_elements, grid.T, grid.dt, grid.N,
            config.c, config.D, config.G, config.u0)


def setup(config: RunConfig):
    """(space, grid, params, u0, u00) from a config; every run starts at rest."""
    return (assemble(config.n_elements), config.time_grid(), config.wave_params(),
            wave.INITIAL_CONDITIONS[config.u0], wave.default_u00)


def fe_trajectory(config: RunConfig) -> Trajectory:
    """The FE trajectory of a config, from the study cache."""
    return _cached(_trajectory_key(config), lambda: wave.solve(*setup(config)),
                   lambda traj: (traj.states,))


def _basis(config: RunConfig, traj: Trajectory, method: str) -> pod.PodBasis:
    """The POD basis of traj, which is fe_trajectory(config) or a training
    slice of it, from the study cache."""
    source = _trajectory_key(config)
    return _cached((source, traj.grid.N, method), lambda: pod.pod_basis(traj, method),
                   lambda basis: (basis.modes, basis.eigenvalues), keep=source)


def _time_level(grid: TimeGrid, t: float, what: str) -> int:
    """The index n of the grid time t = n dt; ConfigError unless t is one of
    the grid's times in [0, T]."""
    steps = t / grid.dt
    if not (math.isfinite(steps) and 0 <= round(steps) < grid.N
            and wave.whole_steps(steps)):
        raise ConfigError(f"{what} {t} is not a time of the grid (dt={grid.dt}, T={grid.T})")
    return round(steps)


def _check_ranks(runs):
    """ConfigError for a run (basis, r) whose size the configured data cannot supply."""
    for basis, r in runs:
        try:
            pod.check_rank(basis, r)
        except ValueError as exc:
            raise ConfigError(f"{exc} ({basis.method} POD basis)") from exc


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


_BLOCK_ROWS = 64  # trajectory rows per float block


def trajectory_rows(space: FemSpace, grid: TimeGrid, blocks, stride: int):
    """The header and a generator of float blocks of rows (t_n, u^n) for
    every stride-th level n of a trajectory on grid, from its consecutive
    level blocks (n, levels) as wave.level_blocks yields them; so neither
    the table nor the trajectory is held whole."""
    header = ["t"] + [f"u_{i}" for i in range(1, space.n_dof + 1)]

    def rows():
        times, step = grid.times, _BLOCK_ROWS * stride
        start = 0  # the next level to write
        for n, levels in blocks:
            end = n + len(levels)
            for i in range(start, end, step):
                j = min(i + step, end)
                yield np.column_stack((times[i:j:stride], levels[i - n:j - n:stride]))
            start = max(start, -(-end // stride) * stride)

    return header, rows()


def energy_rows(grid: TimeGrid, balance):
    """Rows (t_n, E, dE, -dissipation) for the interior levels n = 2..N-1 of
    a trajectory on grid, from its energy balance (energy, rate,
    dissipation), as one float block."""
    e, rate, dissipation = balance
    header = ["t", "energy", "energy_rate", "neg_dissipation"]
    return header, np.column_stack((grid.times[1:-1], e[:-1], rate, -dissipation))


def solve_tables(config: RunConfig):
    """The (CSV name, (header, rows)) pairs of trajectory.csv and energy.csv.

    The scheme is stepped in bounded level blocks: each block is reduced
    into the energy balance and its stride-th levels are formatted as it
    comes, so the trajectory is neither held nor cached.  energy.csv's rows
    are made once trajectory.csv's are consumed.
    """
    space, grid, params, u0, u00 = setup(config)
    balance = wave.EnergyBalance(space, grid, params)

    def blocks():
        for n, levels in wave.level_blocks(space, grid, params, u0, u00):
            balance.add(n, levels)
            yield n, levels

    yield "trajectory.csv", trajectory_rows(space, grid, blocks(), config.stride)
    yield "energy.csv", energy_rows(grid, balance.result())


def singular_value_rows(config: RunConfig):
    traj = fe_trajectory(config)
    header = ["k", "sigma"]
    if not np.any(traj.states):  # then every data set of it is zero too
        return header, []
    basis = _basis(config, traj, config.pod_method)
    sigma = np.sqrt(basis.eigenvalues)
    return header, [[k + 1, sigma[k]] for k in range(basis.rank)]


def _formula_gap(actual: float, formula: float, basis: pod.PodBasis) -> float:
    """|actual - formula| relative to the formula, floored at 1e-6 of lambda_1."""
    return abs(actual - formula) / max(formula, basis.eigenvalues[0] * 1e-6)


def error_formula_rows(config: RunConfig):
    """Actual-vs-formula data errors for each r and both norms."""
    traj = fe_trajectory(config)
    basis = _basis(config, traj, config.pod_method)
    _check_ranks([(basis, r) for r in config.r_list])
    data = pod.build_dataset(traj, config.pod_method)
    header = ["r", "norm", "actual", "formula", "relative_gap"]
    rows = []
    for r in config.r_list:
        for norm, actual, formula in zip(pod.NORMS, pod.data_error_actual(data, basis, r),
                                         pod.data_error_formula(basis, r)):
            rows.append([r, norm, actual, formula, _formula_gap(actual, formula, basis)])
    return header, rows


def _rom_reports(traj, basis, params, r_list):
    """The error reports of the ROMs of each size in r_list on basis, from one
    error frame and the level blocks of one solve, freed on return: before
    the next basis is made."""
    runs = [(basis, r) for r in r_list]
    _check_ranks(runs)
    frame = rom.ErrorFrame(traj, basis, params)
    return rom.error_reports(frame, rom.solve_rom(rom.build_rom(runs, traj, params)))


def rom_sweep_rows(config: RunConfig):
    """Max/energy errors and bound ratios over a damping sweep.

    config.param ("D" or "G"; empty: G if only G > 0, else D) is swept over
    config.values (empty: the config's own value); the other coefficient
    is the config's.
    """
    param = config.param or ("G" if config.G > 0 and config.D == 0 else "D")
    header = [param, "r", "method", "max_l2_sq", "max_energy",
              "ratio_energy", "ratio_pointwise"]
    rows = []
    for value in config.values or (getattr(config, param),):
        swept = replace(config, **{param: value})
        traj, params = fe_trajectory(swept), swept.wave_params()
        for method in _COMPARED:
            reports = _rom_reports(traj, _basis(swept, traj, method), params, config.r_list)
            for r, rep in zip(config.r_list, reports):
                rows.append([
                    value, r, method, rep.max_l2_sq, rep.max_energy,
                    rep.ratio_energy, rep.ratio_pointwise,
                ])
        del traj  # unless cached, freed before the next value's trajectory is solved
    return header, rows


def profile_rows(config: RunConfig):
    """FE and reconstructed ROM values on the full node set at config.times,
    from the ROM of size r_list[0]."""
    times, r = config.times, config.r_list[0]
    for i, t in enumerate(times):
        if t in times[:i]:
            raise ConfigError(f"times repeats the time {t}: its columns would share a name")
    levels = [_time_level(config.time_grid(), t, "profile time") for t in times]
    traj = fe_trajectory(config)
    space = traj.space
    basis = _basis(config, traj, config.pod_method)
    _check_ranks([(basis, r)])
    at, kept = np.array(levels), np.empty((len(levels), r))  # the printed levels' coefficients
    for n, (coeffs,) in rom.solve_rom(rom.build_rom([(basis, r)], traj, config.wave_params())):
        here = (n <= at) & (at < n + len(coeffs))
        kept[here] = coeffs[at[here] - n]
    rom_states = kept @ basis.modes[:r]
    header = ["x"]
    cols = [space.full_nodes]
    for t, n, rom_state in zip(times, levels, rom_states):
        header += [f"fe_t{_time_name(t)}", f"rom_t{_time_name(t)}"]
        cols.append(space.pad_boundary(traj.states[n]))
        cols.append(space.pad_boundary(rom_state))
    return header, np.column_stack(cols)


def _time_name(t: float) -> str:
    """t with 6 significant digits where they give t back, else repr(t)."""
    return f"{t:g}" if float(f"{t:g}") == t else repr(t)


def train_interval_rows(config: RunConfig):
    """Final-time errors of the ROMs of size r_list[0] whose basis sees only
    [0, T_train], for each T_train of config.t_train.

    `final_time_l2` is the plain norm ||u_h(T) - u_r(T)||_L2, not its square;
    the ROM runs over the whole grid [0, T] in every row.
    """
    traj, r = fe_trajectory(config), config.r_list[0]
    runs = [(t, method, _basis(config, training_slice(traj, t), method))
            for t in config.t_train for method in _COMPARED]
    rom_runs = [(basis, r) for *_, basis in runs]
    _check_ranks(rom_runs)
    for _, coeffs in rom.solve_rom(rom.build_rom(rom_runs, traj, config.wave_params())):
        pass  # only the last block, which holds the final level, is read
    header = ["T_train", "method", "final_time_l2"]
    rows = []
    for (t_train, method, basis), a in zip(runs, coeffs):
        final_sq = l2_norms_sq(traj.space, traj.states[-1] - a[-1] @ basis.modes[:r])
        rows.append([t_train, method, math.sqrt(max(final_sq, 0.0))])
    return header, rows


def convergence_rows(config: RunConfig):
    """Final-time error against the analytic series for each step of
    config.dt_list.

    Uses the configured mesh and damping; the initial displacement is the
    config's (the single-sine one gives the cleanest orders), and the series
    has analytic_series' default number of modes.  Only the final state is
    read, so each run steps with one bounded block of levels in memory.
    """
    if config.D > 0 and config.G > 0:
        raise ConfigError("convergence needs D = 0 or G = 0: the modal series "
                          "has one damping term")
    space, _, params, u0, u00 = setup(config)
    sol = wave.analytic_series(params, u0, u00)
    exact_final = wave.analytic_eval(sol, space.nodes, config.T)
    header = ["dt", "h", "final_l2_error", "observed_order"]
    rows = []
    prev = None
    for dt in config.dt_list:
        if prev is not None and dt == prev[0]:
            raise ConfigError(f"dt-list repeats the step {dt}: an order needs two sizes")
        run = replace(config, dt=dt)  # dt must divide T
        diff = wave.final_state(space, run.time_grid(), params, u0, u00) - exact_final
        err = float(np.sqrt(l2_norms_sq(space, diff)))
        order = math.nan  # also where an error is 0 and has no logarithm
        if prev is not None and prev[1] > 0 and err > 0:
            prev_dt, prev_err = prev
            order = math.log(prev_err / err) / math.log(prev_dt / dt)
        rows.append([dt, space.h, err, order])
        prev = (dt, err)
    return header, rows


def invariant_checks(config: RunConfig):
    """Fast self-checks on a reduced instance; returns (name, ok, detail)."""
    rng = np.random.default_rng(0)
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    small = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, c=config.c, D=0.05, G=0.001)
    params = small.wave_params()
    traj = fe_trajectory(small)

    e, rate, dissipation = wave.energy_balance(traj, params)
    res = float(np.max(np.abs(rate + dissipation))) / e[0]
    record("energy_identity", res <= 1e-9, f"residual {res:.2e}")

    worst = 0.0
    for method in pod.METHODS:
        basis = _basis(small, traj, method)
        data = pod.build_dataset(traj, method)
        for r in (1, min(5, basis.rank), min(12, basis.rank)):
            for projector in (pod.PROJECTOR_L2, pod.PROJECTOR_RITZ):
                for act, form in zip(pod.data_error_actual(data, basis, r, projector),
                                     pod.data_error_formula(basis, r, projector)):
                    worst = max(worst, _formula_gap(act, form, basis))
    record("error_formula_identity", worst <= 1e-8, f"worst gap {worst:.2e}")

    ok = True
    for method in ("dq1", "ddq"):
        basis = _basis(small, traj, method)
        for statistic in ("max", "sum"):
            l2_check, _ = pod.pointwise_bound_check(traj, basis, 4, statistic=statistic)
            ok = ok and (l2_check.lhs <= l2_check.rhs * (1 + 1e-12))
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
