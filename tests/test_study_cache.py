"""The study cache in experiments: each distinct FE trajectory and POD basis
is computed once per process, the outputs do not depend on what the cache
holds, cached arrays are read-only, and the byte budget holds."""

import functools
import importlib.util
import os
import random
import weakref

import numpy as np
import pytest

from podwave import experiments, pod, wave
from podwave.cli import main
from podwave.config import RunConfig

REPRODUCE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "scripts", "reproduce_tables.py")

SMALL = ["--n-elements", "24", "--dt", "1/40", "--T", "2", "--D", "0.05"]


def quick_invocations():
    spec = importlib.util.spec_from_file_location("reproduce_tables", REPRODUCE_PATH)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.invocations(quick=True)


def run_ops(root, ops, monkeypatch, clear_each=False):
    """Run (subdir, argv) ops under root, with relative output directories so
    that the CSV headers do not depend on root; returns {path: bytes}."""
    monkeypatch.chdir(root)
    for subdir, argv in ops:
        if clear_each:
            experiments._cache.clear()
        assert main(["--output-dir", subdir, *argv]) == 0
    return {os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


def test_reproduction_csvs_do_not_depend_on_the_cache(tmp_path, monkeypatch, capsys):
    ops = quick_invocations()
    fresh_root = tmp_path / "fresh"
    fresh_root.mkdir()
    fresh = run_ops(fresh_root, ops, monkeypatch, clear_each=True)
    assert len(fresh) == 19
    for seed in (1, 2):
        shuffled = list(ops)
        random.Random(seed).shuffle(shuffled)
        experiments._cache.clear()
        root = tmp_path / f"order{seed}"
        root.mkdir()
        assert run_ops(root, shuffled, monkeypatch) == fresh


class CallCounter:
    def __init__(self, monkeypatch):
        self.solves = self.bases = 0
        solve, compute_basis = wave.solve, pod.compute_basis

        def counted_solve(*args, **kwargs):
            self.solves += 1
            return solve(*args, **kwargs)

        def counted_basis(*args, **kwargs):
            self.bases += 1
            return compute_basis(*args, **kwargs)

        monkeypatch.setattr(wave, "solve", counted_solve)
        monkeypatch.setattr(pod, "compute_basis", counted_basis)


@pytest.mark.parametrize("argv", [
    ["singvals"],
    ["--r-list", "2,4", "error-formulas"],
    ["--r-list", "2,4", "rom-sweep", "--param", "D", "--values", "0.05", "0.1"],
    ["profiles", "--r", "4", "--times", "0", "1"],
    ["train-interval", "--t-train", "2", "1", "--r", "4"],
    ["check"],
], ids=["singvals", "error-formulas", "rom-sweep", "profiles", "train-interval",
        "check"])
def test_a_repeated_op_solves_nothing(argv, tmp_path, monkeypatch, capsys):
    counter = CallCounter(monkeypatch)
    assert main(["--output-dir", str(tmp_path), *SMALL, *argv]) == 0
    assert counter.solves >= 1
    counter.solves = counter.bases = 0
    assert main(["--output-dir", str(tmp_path), *SMALL, *argv]) == 0
    assert (counter.solves, counter.bases) == (0, 0)


def cache_state():
    return [(key, id(value), size, hits) for key, (value, size, hits) in experiments._cache.items()]


def test_solve_leaves_the_study_cache_alone(tmp_path, monkeypatch, capsys):
    """solve streams its trajectory in bounded blocks of levels: it neither
    looks up nor stores nor evicts a cache entry, so the entries of other
    ops stay as they were, and a repeated solve writes the same bytes."""
    counter = CallCounter(monkeypatch)
    assert main(["--output-dir", str(tmp_path), *SMALL, "singvals"]) == 0
    before = cache_state()
    assert len(before) == 2 and counter.solves == 1  # the trajectory and its basis
    written = []
    for _ in range(2):
        assert main(["--output-dir", str(tmp_path), *SMALL, "solve"]) == 0
        assert cache_state() == before
        written.append([(tmp_path / name).read_bytes()
                        for name in ("trajectory.csv", "energy.csv")])
    assert written[0] == written[1]
    assert counter.solves == 1


def test_a_full_training_window_shares_the_full_basis(monkeypatch):
    config = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, D=0.05)
    counter = CallCounter(monkeypatch)
    traj = experiments.fe_trajectory(config)
    basis = experiments._basis(config, traj, "ddq")
    whole = experiments.training_slice(traj, 2.0)
    assert experiments._basis(config, whole, "ddq") is basis
    assert counter.bases == 1


def test_cached_arrays_are_read_only():
    config = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, D=0.05)
    traj = experiments.fe_trajectory(config)
    basis = experiments._basis(config, traj, "standard")
    for array in (traj.states, basis.modes, basis.eigenvalues):
        with pytest.raises(ValueError):
            array[0] = 1.0


def resident_bytes():
    return sum(size for _, size, _ in experiments._cache.values())


def small_solves(counter, D, dt=1.0 / 40.0):
    """The wave.solve calls of one fe_trajectory call under a 4 KiB budget.
    3 dofs and 41 levels make a 984-byte trajectory, so four fit."""
    before = counter.solves
    experiments.fe_trajectory(RunConfig(n_elements=4, dt=dt, T=1.0, D=D))
    assert resident_bytes() <= 4096
    assert resident_bytes() == sum(v.states.nbytes for v, _, _ in experiments._cache.values())
    return counter.solves - before


def test_budget_bounds_the_cache(monkeypatch):
    """Four 984-byte trajectories fit a 4 KiB budget, a fifth evicts the
    least recently used one that was never hit, or, when all were hit, the
    least recently used one; a 201-level trajectory (4824 bytes) is never
    stored."""
    monkeypatch.setattr(experiments, "_CACHE_BUDGET_BYTES", 4096)
    solves = functools.partial(small_solves, CallCounter(monkeypatch))
    for D in (0.1, 0.2, 0.3, 0.4):
        assert solves(D) == 1
    assert resident_bytes() == 4 * 984
    assert solves(0.1) == 0      # a hit makes D = 0.1 the most recently used
    assert solves(0.5) == 1      # evicts D = 0.2, the least recently used never hit
    assert [solves(D) for D in (0.1, 0.3, 0.4, 0.5)] == [0, 0, 0, 0]
    assert solves(0.2) == 1      # all were hit: evicts D = 0.1, the least recently used
    assert solves(0.1) == 1

    assert solves(0.1, dt=1.0 / 200.0) == 1  # over the budget: returned, not stored
    assert solves(0.1, dt=1.0 / 200.0) == 1
    assert len(experiments._cache) == 4


def test_a_hit_entry_outlives_single_use_entries(monkeypatch):
    """A run of single-use entries that overflows the budget evicts its own
    entries, not one that has been hit, however long ago."""
    monkeypatch.setattr(experiments, "_CACHE_BUDGET_BYTES", 4096)
    counter = CallCounter(monkeypatch)
    assert small_solves(counter, 0.05) == 1
    assert small_solves(counter, 0.05) == 0
    assert [small_solves(counter, D) for D in np.arange(1, 11) / 10] == [1] * 10
    assert small_solves(counter, 0.05) == 0
    assert small_solves(counter, 1.0) == 0   # the most recent single-use entries stay
    assert small_solves(counter, 0.1) == 1


def test_a_basis_does_not_evict_its_trajectory(tmp_path, monkeypatch, capsys):
    """Under a budget one byte short of a trajectory and its basis, each
    data convention's basis is returned unstored and the trajectory stays,
    so error-formulas for all three solves once."""
    config = RunConfig(n_elements=24, dt=1.0 / 40.0, T=2.0, D=0.05)
    traj = experiments.fe_trajectory(config)
    basis = experiments._basis(config, traj, "standard")
    budget = traj.states.nbytes + basis.modes.nbytes + basis.eigenvalues.nbytes - 1
    experiments._cache.clear()
    monkeypatch.setattr(experiments, "_CACHE_BUDGET_BYTES", budget)
    counter = CallCounter(monkeypatch)
    for method in pod.METHODS:
        assert main(["--output-dir", str(tmp_path), *SMALL, "--pod-method", method,
                     "--r-list", "2,4", "error-formulas"]) == 0
    assert (counter.solves, counter.bases) == (1, 3)
    assert resident_bytes() == traj.states.nbytes


def test_a_sweep_frees_each_trajectory_before_solving_the_next(tmp_path, monkeypatch, capsys):
    """With nothing cached, rom-sweep drops each swept value's trajectory,
    and the bases made from it, before it solves the next value's: no two
    trajectories are ever held at once."""
    monkeypatch.setattr(experiments, "_CACHE_BUDGET_BYTES", 0)
    solve, refs, held = wave.solve, [], []

    def spied_solve(*args, **kwargs):
        held.append(sum(ref() is not None for ref in refs))
        traj = solve(*args, **kwargs)
        refs.extend((weakref.ref(traj), weakref.ref(traj.states)))
        return traj

    monkeypatch.setattr(wave, "solve", spied_solve)
    assert main(["--output-dir", str(tmp_path), "--n-elements", "48", "--dt", "1/96",
                 "--T", "4", "--c", "1.0", "--r-list", "8,12",
                 "rom-sweep", "--param", "D", "--values", "0.01", "0.05", "0.1"]) == 0
    assert held == [0, 0, 0]
