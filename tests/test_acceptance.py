"""Acceptance suite: end-to-end checks at the full reference configuration
(400 elements, dt = 1/800, T = 10).

Covers the exact error-formula identities, reproduction of the reference
table magnitudes, energy identities, telescoping reconstructions, pointwise
bound inequalities, bound-ratio magnitudes, time-convergence order, the
training-interval study, full-rank ROM consistency, and CSV determinism.
Each check prints one PASS/FAIL line (run with -s to see them).

The wave speed is not part of the reference data, so it was identified by
fitting: c = 2/pi reproduces the Kelvin-Voigt data-error tables and c = 1
the viscous-damping ROM tables.  Both values are pinned here.
"""

import time

import numpy as np
import pytest

from podwave import pod
from podwave.cli import main as cli_main
from podwave.config import RunConfig
from podwave.experiments import (
    convergence_rows,
    fe_trajectory,
    train_interval_rows,
)
from podwave.fem import assemble, l2_norms_sq
from podwave.rom import ErrorFrame, build_rom, error_reports, solve_rom
from podwave.wave import (
    TimeGrid,
    WaveParams,
    default_u0,
    default_u00,
    energy_balance,
    energy_series,
    solve,
)
from podwave import diffops

N_ELEMENTS = 400
DT = 1.0 / 800.0
T_FINAL = 10.0
C_KELVIN_VOIGT = 2.0 / np.pi  # identified against the data-error tables
C_VISCOUS = 1.0               # identified against the ROM error tables


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


class ReferenceRun:
    """FE trajectory plus POD bases at the reference scale, with timings."""

    def __init__(self, params: WaveParams):
        self.space = assemble(N_ELEMENTS)
        self.grid = TimeGrid.from_dt(T_FINAL, DT)
        self.params = params
        t0 = time.perf_counter()
        self.traj = solve(self.space, self.grid, params, default_u0, default_u00)
        self.solve_seconds = time.perf_counter() - t0
        self._bases = {}
        self.basis_seconds = {}

    def basis(self, method: str) -> pod.PodBasis:
        if method not in self._bases:
            t0 = time.perf_counter()
            self._bases[method] = pod.pod_basis(self.traj, method)
            self.basis_seconds[method] = time.perf_counter() - t0
        return self._bases[method]

    def rom_report(self, method: str, r: int):
        basis = self.basis(method)
        rep, = error_reports(ErrorFrame(self.traj, basis, self.params),
                             solve_rom(build_rom([(basis, r)], self.traj, self.params)))
        return rep


@pytest.fixture(scope="module")
def kv_run():
    return ReferenceRun(WaveParams(c=C_KELVIN_VOIGT, D=0.0, G=0.001))


@pytest.fixture(scope="module")
def viscous_run():
    return ReferenceRun(WaveParams(c=C_VISCOUS, D=0.1, G=0.0))


@pytest.fixture(scope="module")
def undamped_run():
    return ReferenceRun(WaveParams(c=1.0, D=0.0, G=0.0))


def test_error_formula_identity(kv_run):
    """Actual data errors equal the eigenvalue-tail formulas to 1e-6 relative
    for standard and ddq data in both norms, within the runtime budget."""
    elapsed = kv_run.solve_seconds
    worst = 0.0
    t0 = time.perf_counter()
    for method in ("standard", "ddq"):
        basis = kv_run.basis(method)
        data = pod.build_dataset(kv_run.traj, method)
        lam1 = basis.eigenvalues[0]
        for r in (10, 20, 40, 60):
            for actual, formula in zip(pod.data_error_actual(data, basis, r),
                                       pod.data_error_formula(basis, r)):
                gap = abs(actual - formula) / max(formula, lam1 * 1e-6)
                worst = max(worst, gap)
    elapsed += time.perf_counter() - t0
    elapsed += kv_run.basis_seconds["standard"] + kv_run.basis_seconds["ddq"]
    ok = worst <= 1e-6 and elapsed <= 60.0
    report("error-formula-identity", ok,
           f"worst gap {worst:.2e} (tol 1e-6), pipeline {elapsed:.1f}s (budget 60s)")


def test_reference_magnitudes(kv_run, viscous_run):
    """Three pinned table entries reproduce within the stated factors."""
    details, ok = [], True

    std, _ = pod.data_error_actual(pod.build_dataset(kv_run.traj, "standard"),
                                   kv_run.basis("standard"), 10)
    ok &= 5.18e-5 / 5 <= std <= 5.18e-5 * 5
    details.append(f"standard r=10 L2 {std:.2e} (target 5.18e-05 x5)")

    ddq, _ = pod.data_error_actual(pod.build_dataset(kv_run.traj, "ddq"),
                                   kv_run.basis("ddq"), 40)
    ok &= 1.26e-3 / 5 <= ddq <= 1.26e-3 * 5
    details.append(f"ddq r=40 L2 {ddq:.2e} (target 1.26e-03 x5)")

    rep = viscous_run.rom_report("standard", 20)
    ok &= 6.73e-6 / 10 <= rep.max_l2_sq <= 6.73e-6 * 10
    details.append(f"viscous rom max L2^2 {rep.max_l2_sq:.2e} (target 6.73e-06 x10)")

    report("reference-magnitudes", ok, "; ".join(details))


def test_energy_identity(kv_run, viscous_run, undamped_run):
    """Per-step energy balance over all interior steps, plus exact
    conservation when undamped, within the runtime budget."""
    worst = 0.0
    for run in (viscous_run, kv_run, undamped_run):
        e, rate, dissipation = energy_balance(run.traj, run.params)
        assert rate.shape[0] == run.grid.N - 2  # 7999 interior steps
        worst = max(worst, float(np.max(np.abs(rate + dissipation))) / e[0])
    e = energy_series(undamped_run.space, undamped_run.traj.states, undamped_run.grid.dt,
                      undamped_run.params.c)
    drift = float(np.max(np.abs(e - e[0]))) / e[0]
    solve_time = kv_run.solve_seconds + viscous_run.solve_seconds + undamped_run.solve_seconds
    ok = worst <= 1e-9 and drift <= 1e-9 and solve_time <= 10.0
    report("energy-identity", ok,
           f"worst residual {worst:.2e}, undamped drift {drift:.2e}, "
           f"solves {solve_time:.1f}s (budget 10s)")


def test_sequence_reconstruction_identities():
    """Rebuilding sequences and their forward differences from one snapshot,
    one difference quotient, and all second difference quotients."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 101))
        dim = int(rng.integers(1, 21))
        dt = float(rng.uniform(0.01, 1.0))
        z = rng.standard_normal((n, dim))
        ddqs = diffops.second_diff(z, dt)
        dz1 = (z[1] - z[0]) / dt
        scale = float(np.max(np.abs(z)))
        gap = np.max(np.abs(diffops.rebuild_sequence(z[0], dz1, ddqs, dt) - z)) / scale
        worst = max(worst, gap)
        dz = diffops.forward_diff(z, dt)
        gap = np.max(np.abs(diffops.rebuild_forward_diffs(dz1, ddqs, dt) - dz)) / max(
            float(np.max(np.abs(dz))), 1e-30)
        worst = max(worst, gap)
    report("sequence-reconstruction", worst <= 1e-11, f"worst gap {worst:.2e} (tol 1e-11)")


def test_pointwise_bound_inequalities(kv_run, viscous_run):
    """Snapshot error bounds for dq1 and ddq data, max and weighted-sum
    forms, hold with their stated constants at every r."""
    worst = 0.0
    checked = 0
    for run in (kv_run, viscous_run):
        for method in ("dq1", "ddq"):
            basis = run.basis(method)
            for r in (1, 5, 10, 20, 40):
                for statistic in ("max", "sum"):
                    chk, _ = pod.pointwise_bound_check(run.traj, basis, r,
                                                       statistic=statistic)
                    assert chk.rhs > 0
                    worst = max(worst, chk.lhs / chk.rhs)
                    checked += 1
    report("pointwise-bounds", worst <= 1.0,
           f"{checked} checks, worst ratio {worst:.3e} (must be <= 1)")


def test_bound_ratio_magnitudes(viscous_run):
    """ddq ROM bound quotients at D=0.1, r=20 land in the expected windows."""
    rep = viscous_run.rom_report("ddq", 20)
    ok = 0 < rep.ratio_energy <= 1  # a nan ratio fails every comparison
    ok &= 7.66e-10 / 100 <= rep.ratio_energy <= 7.66e-10 * 100
    ok &= 1.79e-7 / 100 <= rep.ratio_pointwise <= 1.79e-7 * 100
    report("bound-ratios", ok,
           f"energy ratio {rep.ratio_energy:.2e} (target 7.66e-10 x100), "
           f"pointwise ratio {rep.ratio_pointwise:.2e} (target 1.79e-07 x100)")


def test_error_decay_sanity(viscous_run):
    """More modes cannot hurt on the reference run: the standard ROM error
    at r = 40 is below the error at r = 10."""
    lo = viscous_run.rom_report("standard", 10)
    hi = viscous_run.rom_report("standard", 40)
    ok = hi.max_l2_sq <= lo.max_l2_sq
    report("error-decay-sanity", ok,
           f"max L2^2 at r=40 {hi.max_l2_sq:.2e} <= r=10 {lo.max_l2_sq:.2e}")


def test_time_convergence_order():
    """Undamped scheme shows second-order final-time accuracy against the
    modal series on a fine fixed mesh."""
    t0 = time.perf_counter()
    cfg = RunConfig(n_elements=2000, dt=1.0 / 100.0, T=1.25, c=1.0, u0="sine",
                    dt_list=(1.0 / 100.0, 1.0 / 200.0, 1.0 / 400.0))
    _, rows = convergence_rows(cfg)
    elapsed = time.perf_counter() - t0
    orders = [row[3] for row in rows[1:]]
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed <= 60.0
    report("time-convergence", ok,
           f"observed orders {['%.3f' % o for o in orders]}, {elapsed:.1f}s (budget 60s)")


@pytest.mark.parametrize("label,D,G", [
    ("viscous", 0.1, 0.0),
    ("kelvin-voigt", 0.0, 0.001),
])
def test_training_interval_shape(label, D, G):
    """Standard POD keeps its final-time accuracy down to a training window
    of [0, 1] and collapses at [0, 0.5].

    `final_time_l2` is the plain norm ||u_h(T) - u_r(T)||_L2, not its square.
    A window has collapsed when its error reaches

        min(1e3 * err(T), 0.5 * ||u_h(T)||_L2).

    The first term is three orders of magnitude above the full-window error.
    The second caps it by the size of the solution: a ROM whose error is
    half of ||u_h(T)|| has lost the solution, and no error can exceed
    ||u_h(T)|| + ||u_r(T)|| by the triangle inequality.  Without the cap the
    viscous case (D = 0.1 damps every mode at the same rate, so the
    full-window error stays at the projection error of u_h(T), ~1.3e-3)
    would need an error larger than the solution itself.  The predicate must
    be false for the windows that keep their accuracy.
    """
    windows = (10.0, 5.0, 1.0, 0.5)
    cfg = RunConfig(n_elements=N_ELEMENTS, dt=DT, T=T_FINAL, c=1.0, D=D, G=G,
                    r_list=(20,), t_train=windows)
    _, rows = train_interval_rows(cfg)
    errs = {t_train: err for t_train, method, err in rows if method == "standard"}
    traj = fe_trajectory(cfg)
    u_norm = float(np.sqrt(l2_norms_sq(traj.space, traj.states[-1])))
    full = errs[10.0]
    held = max(errs[5.0] / full, errs[1.0] / full)
    threshold = min(1e3 * full, 0.5 * u_norm)
    collapsed = {t: errs[t] >= threshold for t in windows}
    ok = (held <= 10.0 and collapsed[0.5]
          and not collapsed[5.0] and not collapsed[1.0])
    report(f"training-interval-{label}", ok,
           f"errors {[f'{errs[t]:.2e}' for t in windows]}, "
           f"relative {[f'{errs[t] / u_norm:.2e}' for t in windows]} "
           f"of ||u_h(T)|| = {u_norm:.3e}, held x{held:.1f} (<=10), "
           f"collapse threshold {threshold:.3e} "
           f"= min(1e3 x {full:.2e}, 0.5 x {u_norm:.3e}), "
           f"collapsed {[t for t in windows if collapsed[t]]} (want [0.5])")


def test_full_rank_rom_consistency():
    """On a small instance the full-rank ROM reproduces the FE trajectory."""
    space = assemble(20)
    grid = TimeGrid.from_dt(1.45, 0.05)  # 30 time levels
    params = WaveParams(c=1.0, D=0.1)
    traj = solve(space, grid, params, default_u0, default_u00)
    basis = pod.pod_basis(traj, "standard")
    (_, (coeffs,)), = solve_rom(build_rom([(basis, basis.rank)], traj, params))
    rom_states = coeffs @ basis.modes
    scale = float(np.max(np.sqrt(l2_norms_sq(space, traj.states))))
    err = float(np.max(np.sqrt(l2_norms_sq(space, traj.states - rom_states))))
    ok = err <= 1e-8 * scale
    report("full-rank-rom", ok, f"relative error {err / scale:.2e} (tol 1e-8)")


def test_rom_sweep_determinism(tmp_path):
    """Two consecutive rom-sweep runs with one config are byte-identical."""
    args = ["--n-elements", "32", "--dt", "1/32", "--T", "2", "--G", "0.001",
            "--r-list", "4,8", "--output-dir", str(tmp_path),
            "rom-sweep", "--param", "G", "--values", "0.001", "0.01"]
    assert cli_main(args) == 0
    first = (tmp_path / "rom_sweep.csv").read_bytes()
    assert cli_main(args) == 0
    second = (tmp_path / "rom_sweep.csv").read_bytes()
    ok = first == second and len(first) > 0
    report("determinism", ok, f"{len(first)} bytes, byte-identical: {first == second}")
