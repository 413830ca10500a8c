"""End-to-end checks of the command-line tool and its configuration layer,
on reduced problem sizes."""

import contextlib
import ctypes
import glob
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fe_reference
import podwave
from podwave import experiments, linalg, pod, wave
from podwave.cli import main, write_csv
from podwave.config import ConfigError, RunConfig, make_config
from podwave.wave import INITIAL_CONDITIONS

SMALL = ["--n-elements", "24", "--dt", "1/40", "--T", "2"]
COMMANDS = ("solve", "singvals", "error-formulas", "rom-sweep", "profiles",
            "train-interval", "convergence", "check")


def read(path):
    return path.read_text(encoding="utf-8")


def data_lines(text):
    return [l for l in text.splitlines() if not l.startswith("#")]


def test_config_defaults_validate():
    cfg = RunConfig()
    assert cfg.T == 10.0
    assert cfg.n_elements == 400 and cfg.dt == 1.0 / 800.0
    assert cfg.c == 1.0 and cfg.pod_method == "standard"


def test_a_replaced_config_is_validated():
    """A copy made by dataclasses.replace is checked as it is made: dt = 0.3
    does not divide T = 10."""
    with pytest.raises(ConfigError, match="does not divide T"):
        replace(RunConfig(), dt=0.3)


def test_config_file_and_overrides(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("n_elements = 32\ndt = 1/64\nT = 2\nG = 0.001  # damping\nr_list = 4,8\n"
                 "dt_list = 1/64, 1/128\n")
    cfg = make_config(str(f), {"pod_method": "ddq", "times": ["0", "1/2"]})
    assert cfg.n_elements == 32 and cfg.dt == pytest.approx(1.0 / 64.0)
    assert cfg.r_list == (4, 8) and cfg.pod_method == "ddq"
    assert cfg.dt_list == (1.0 / 64.0, 1.0 / 128.0) and cfg.times == (0.0, 0.5)


@pytest.mark.parametrize("overrides", [
    {"dt": "0.3", "T": "1.0"},                 # dt does not divide T
    {"dt": "2.0", "T": "2.0"},                 # one step: the grid needs two
    {"pod_method": "qr"},
    {"n_elements": 1},
    {"r_list": "0,4"},
    {"times": ""},
    {"t_train": " , "},
    {"dt_list": []},
])
def test_config_rejections(overrides):
    base = {"n_elements": 24, "dt": "1/40", "T": "2.0"}
    base.update(overrides)
    with pytest.raises(ConfigError):
        make_config(None, base)


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("n_element = 32\n")
    with pytest.raises(ConfigError):
        make_config(str(f), {})


def test_bad_config_exits_one(tmp_path, capsys):
    rc = main(["--dt", "0.3", "--T", "1.0", "solve"])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--c", "nan", "solve"], "c must be finite"),
    (["--D", "nan", "solve"], "D must be finite"),
    (["--T", "inf", "solve"], "T must be finite"),
    (["--dt", "1/0", "solve"], "bad number for dt"),
    (["rom-sweep", "--values", "0.1", "nan"], "values must be finite, got nan"),
    (["convergence", "--dt-list", "0.01", "inf"], "dt_list must be finite, got inf"),
    (["train-interval", "--t-train", "1", "nan"], "t_train must be finite, got nan"),
    (["profiles", "--times", "0", "nan"], "times must be finite, got nan"),
], ids=["c-nan", "D-nan", "T-inf", "dt-1/0", "values-second-nan", "dt-list-second-inf",
        "t-train-second-nan", "times-second-nan"])
def test_non_finite_config_exits_one(tmp_path, capsys, monkeypatch, argv, message):
    """A non-finite number, a scalar or any entry of a list, exits 1 with
    one line naming its field, before any FE trajectory is stepped."""
    stepped = []
    for name in ("solve", "final_state"):
        monkeypatch.setattr(wave, name, lambda *args, name=name: stepped.append(name))
    rc = main(SMALL + ["--output-dir", str(tmp_path), *argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())
    assert not stepped


COARSE = ["--n-elements", "8", "--dt", "1/8", "--T", "1"]  # POD rank 7


@pytest.mark.parametrize("argv, message", [
    (["--pod-method", "foo", "solve"], "pod_method must be one of"),
    (["--u0", "wave", "solve"], "u0 must be one of"),
    (["--n-elements", "abc", "solve"], "bad integer for n_elements"),
    (["rom-sweep", "--values", "nan"], "values must be finite"),
    (["rom-sweep", "--values", "inf"], "values must be finite"),
    (["rom-sweep", "--values", "-1"], "must be nonnegative"),
    (["train-interval", "--t-train", "nan"], "t_train must be finite"),
    (["convergence", "--dt-list", "inf"], "dt_list must be finite"),
    (["convergence", "--dt-list", "0.3"], "does not divide T"),
    (["--dt", "2", "--T", "2", "solve"], "fewer than two time steps"),
    (["--D", "0.1", "--G", "0.001", "convergence"], "D = 0 or G = 0"),
    (["profiles", "--times", "nan"], "times must be finite"),
    (["profiles", "--times", "-0.01"], "profile time -0.01"),
    (["profiles", "--times", "2.01"], "profile time 2.01"),
    (["profiles", "--times", "0.01"], "profile time 0.01"),
    (COARSE + ["profiles", "--times", "0", "1"], "r must be in [1, 7]"),
    (COARSE + ["train-interval", "--t-train", "1"], "r must be in [1, 7]"),
    (COARSE + ["--r-list", "20", "rom-sweep"], "r must be in [1, 7]"),
    (COARSE + ["--r-list", "20", "error-formulas"], "r must be in [1, 7]"),
    (["convergence", "--dt-list", "0.1", "1/10"], "dt-list repeats the step 0.1"),
    (["rom-sweep", "--param", "X"], "param must be D or G"),
    (["profiles", "--r", "abc"], "bad integer for r_list"),
    (["--times", "0", "1", "profiles"], "bad number for times: 'profiles'"),
    (["--values", "0.1", "rom-sweep"], "bad number for values: 'rom-sweep'"),
    (["profiles", "--times", "0.5", "1/2"], "times repeats the time 0.5"),
], ids=["pod-method-foo", "u0-wave", "n-elements-abc", "values-nan", "values-inf",
        "values-negative", "t-train-nan", "dt-list-inf", "dt-list-not-dividing",
        "dt-equals-T",
        "convergence-two-dampings", "times-nan", "times-negative", "times-past-T",
        "times-off-grid", "profiles-r-above-rank",
        "train-interval-r-above-rank", "rom-sweep-r-above-rank",
        "error-formulas-r-above-rank", "dt-list-repeated",
        "param-X", "r-abc", "times-swallow-command",
        "values-swallow-command", "times-repeated"])
def test_bad_values_exit_one(tmp_path, capsys, argv, message):
    """Bad configuration and subcommand values exit 1 with one line."""
    rc = main(SMALL + ["--output-dir", str(tmp_path)] + argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], ["--times", "0", "1"], ["bogus"]],
                         ids=["none", "after-list-flag", "unknown"])
def test_missing_or_unknown_command_exits_two(tmp_path, capsys, argv):
    """Without a valid command the parser's usage error exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--output-dir", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert "COMMAND" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--bogus", "0", "singvals"], ["singvals", "--bogus", "0"],
                                  ["--bogus=0", "singvals"]],
                         ids=["before-command", "after-command", "attached-value"])
def test_unknown_flag_exits_two_in_any_position(tmp_path, capsys, argv):
    """An unknown flag is argparse's usage error, exit 2, naming the flag,
    before or after the command: the value after it, which argparse cannot
    tell from the command, is not reported as a bad command."""
    with pytest.raises(SystemExit) as exc:
        main(COARSE + ["--output-dir", str(tmp_path)] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: podwave")
    assert "unrecognized arguments: --bogus" in err.splitlines()[-1]
    assert "invalid choice" not in err
    assert not list(tmp_path.iterdir())


def test_error_formulas_checks_every_r_before_the_data_set(monkeypatch):
    """A size above the POD rank is refused before any data error is computed."""
    config = make_config(None, {"n_elements": 8, "dt": "1/8", "T": "1"})
    rank = experiments._basis(config, experiments.fe_trajectory(config), config.pod_method).rank

    def no_data_set(*args, **kwargs):
        raise AssertionError("the data set was built before every r was checked")

    monkeypatch.setattr(pod, "build_dataset", no_data_set)
    with pytest.raises(ConfigError, match=f"r must be in \\[1, {rank}\\]"):
        experiments.error_formula_rows(replace(config, r_list=(1, rank + 1)))


@pytest.mark.parametrize("key,value", [("rank_tol", "0.0"), ("seed", "0"),
                                       ("u00", "zero"), ("k_max", "200")],
                         ids=["rank_tol", "seed", "u00", "k_max"])
def test_a_rank_cutoff_is_no_key(tmp_path, capsys, key, value):
    """Removed keys stay refused: a POD basis is its data's whole positive
    spectrum, with no cutoff, the self-checks draw from a fixed seed, every
    run starts at rest and the modal series has its own number of modes.
    The flag is argparse's usage error, exit 2, and a config file line such
    as rank_tol=0.0, seed=0, u00=zero or k_max=200, as older CSV headers
    carry, exits 1 naming the key."""
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(COARSE + ["--output-dir", str(tmp_path), "singvals", flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: podwave") and f"unrecognized arguments: {flag} 0" in err
    config = tmp_path / "run.cfg"
    config.write_text(f"n_elements=8\ndt=1/8\nT=1\n{key}={value}\n")
    assert main(["--config", str(config), "--output-dir", str(tmp_path), "singvals"]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: unknown config key '{key}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_unwritable_output_dir_exits_one(tmp_path, capsys):
    """An output directory that cannot be created exits 1 with one line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(COARSE + ["--output-dir", str(blocker / "sub"), "solve"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def run_podwave(argv, cwd, **env):
    """`python -m podwave` on argv in a fresh interpreter, whose stderr
    also shows numpy's warnings, with env added to its environment."""
    src = os.path.dirname(os.path.dirname(podwave.__file__))
    return subprocess.run([sys.executable, "-m", "podwave", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
                          text=True, timeout=300)


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A CLI run writes the same bytes at any OPENBLAS_NUM_THREADS.  Unpinned,
    two threads moved the 0.5 training window of this Kelvin-Voigt op (49
    levels against 47 unknowns) by 5.5e-13 and 3.3e-12 relative.  Both runs
    write to the same relative path, as the CSV header names it."""
    argv = ["train-interval", "--n-elements", "48", "--dt", "1/96", "--T", "4", "--c", "1.0",
            "--G", "0.001", "--r", "20", "--t-train", "4", "2", "1", "0.5", "--output-dir", "out"]
    written = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        run = run_podwave(argv, cwd=tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        written.append((tmp_path / threads / "out" / "train_interval.csv").read_bytes())
    assert written[0] == written[1]


def openblas_thread_calls():
    """(get, set) of the thread counts of numpy's and scipy's OpenBLAS,
    looked up here by the symbols that podwave uses; skips where either
    library or symbol is missing (another BLAS)."""
    calls = []
    for package, pattern, suffix in (
            (os.path.dirname(np.__file__), "libscipy_openblas64_-*.so", "64_"),
            (importlib.util.find_spec("scipy").submodule_search_locations[0],
             "libscipy_openblas-*.so", "")):
        paths = glob.glob(os.path.join(package + ".libs", pattern))
        lib = ctypes.CDLL(paths[0]) if paths else None
        if not hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
            pytest.skip(f"no OpenBLAS thread symbols beside {package}")
        calls.append((getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                       getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
    return calls


def test_cli_pins_blas_threads_and_restores_them(tmp_path, monkeypatch):
    """A command runs on one thread of each OpenBLAS, and main restores the
    caller's counts after it, whether it succeeded or failed."""
    calls = openblas_thread_calls()
    saved = [get() for get, _ in calls]
    seen = []

    def spy(driver):
        def run(config):
            seen.append([get() for get, _ in calls])
            return driver(config)
        return run

    def fail(config):
        raise linalg.LinAlgFailure("planted failure")

    monkeypatch.setattr(experiments, "singular_value_rows", spy(experiments.singular_value_rows))
    monkeypatch.setattr(experiments, "error_formula_rows", spy(fail))
    try:
        for _, put in calls:
            put(2)
        caller = [get() for get, _ in calls]
        out = SMALL + ["--output-dir", str(tmp_path)]
        assert main(out + ["singvals"]) == 0
        assert [get() for get, _ in calls] == caller
        assert main(out + ["error-formulas"]) == 2
        assert [get() for get, _ in calls] == caller
        assert seen == [[1, 1], [1, 1]]
    finally:
        for (_, put), count in zip(calls, saved):
            put(count)


@pytest.mark.parametrize("coefficient", [["--G", "1e200"], ["--D", "2.7e154"], ["--c", "1e150"]],
                         ids=lambda argv: argv[0][2:])
def test_overflow_exits_two_with_one_line(tmp_path, coefficient):
    """A floating-point overflow (here of sigma squared in the series, or of
    the FE step) fails the run with exit 2 and one line: no nan rows, no
    numpy warnings, no CSV."""
    run = run_podwave(["--n-elements", "8", "--dt", "1/16", "--T", "1", *coefficient,
                       "--dt-list", "0.5", "0.25", "--output-dir", str(tmp_path), "convergence"],
                      cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr.startswith("numerical failure:") and run.stderr.count("\n") == 1
    assert not (tmp_path / "convergence.csv").exists()


def test_too_large_a_run_exits_one_with_one_line(tmp_path):
    """A 727 TiB trajectory, more than a 64-bit address space holds, fails
    to allocate at once: exit 1 with numpy's message on one line, not a
    traceback."""
    run = run_podwave(["--n-elements", "1000", "--dt", "1e-10", "--T", "10",
                       "--output-dir", str(tmp_path), "singvals"], cwd=tmp_path)
    assert run.returncode == 1
    assert run.stderr.startswith("out of memory: Unable to allocate")
    assert run.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_write_csv_is_atomic(tmp_path):
    """A row that fails to format leaves the earlier file whole and no
    temporary file behind."""
    config = RunConfig()
    path = str(tmp_path / "out.csv")
    assert write_csv(path, config, "solve", ["a"], [[1.0]]) == path
    before = (tmp_path / "out.csv").read_bytes()

    class Unformattable:
        def __str__(self):
            raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError):
        write_csv(path, config, "solve", ["a"], [[2.0], [Unformattable()], [3.0]])
    assert (tmp_path / "out.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def reference_cell(v) -> str:
    """The CSV cell rule: %.16e for floats, numpy's included; str() for
    every other value, bool included."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return "%.16e" % v
    return str(v)


CELLS = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0)]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=6))
def test_write_csv_cells_follow_the_reference_rule(tmp_path, rows):
    config = RunConfig()
    path = tmp_path / "cells.csv"
    write_csv(str(path), config, "solve", ["a"], [])
    head = path.read_bytes()
    write_csv(str(path), config, "solve", ["a"], iter(rows))
    body = "".join(",".join(reference_cell(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == head + body.encode("utf-8")


def csv_body(path, rows) -> bytes:
    """The data lines write_csv writes for rows under a one-column header."""
    config = RunConfig()
    write_csv(str(path), config, "solve", ["a"], [])
    head = path.read_bytes()
    write_csv(str(path), config, "solve", ["a"], rows)
    return path.read_bytes()[len(head):]


def reference_lines(block) -> bytes:
    return "".join(",".join(map(reference_cell, row)) + "\n" for row in block.tolist()).encode()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(st.floats(), st.floats(-1e250, 1e250), st.floats(-1e-200, 1e-200)),
                min_size=1, max_size=12))
def test_float_blocks_are_the_cell_rule_byte_for_byte(tmp_path, values):
    """A float64 block is written as %.16e per cell, whichever of its cells
    the digit path certifies: nan, inf, values outside [1e-250, 1e250) and
    uncertified digits are %-formatted one by one and spliced in among the
    others.  The values are written as one column, as one row and as blocks
    of one cell each."""
    x = np.array(values)
    for rows in (x[:, None], x[None, :], [x[i:i + 1, None] for i in range(x.size)]):
        expected = b"".join(map(reference_lines, rows if isinstance(rows, list) else [rows]))
        assert csv_body(tmp_path / "block.csv", rows) == expected


def hard_cells():
    """Values near the certification limits of the digit path, all in its
    range [1e-250, 1e250), so that every cell of them is one it tries."""
    rng = np.random.default_rng(17)
    exps = rng.integers(-250, 250, 4000).tolist()
    digits = rng.integers(10 ** 16, 10 ** 17, 4000).tolist()
    # the doubles nearest the ties (D + 1/2) 10**(E - 16), from exact integers
    ties = np.array([(2 * d + 1) * 10 ** (e - 16) / 2 if e >= 16 else
                     (2 * d + 1) / (2 * 10 ** (16 - e)) for d, e in zip(digits, exps)])
    powers = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(-250, 250)])
    dyadic = rng.integers(1, 2 ** 53, 4000) / 2.0 ** rng.integers(0, 120, 4000)
    short = rng.integers(1, 10 ** 6, 4000) * 10.0 ** rng.integers(-20, 20, 4000)
    cells = np.concatenate([ties, powers, dyadic, short])
    cells = np.concatenate([cells, np.nextafter(cells, 0), np.nextafter(cells, np.inf)])
    cells = cells[(cells >= 1e-250) & (cells < 1e250)]
    return np.concatenate([cells, -cells])


def test_hard_float_blocks_are_the_cell_rule_byte_for_byte(tmp_path):
    """Near-ties and their neighbours, powers of ten and their neighbours,
    k/2^m values and short decimals; then the edges of the digit path's
    range and every special value, in blocks of their own and spliced into
    one block of hard cells."""
    cells = hard_cells()
    for block in (cells[:, None], cells[:cells.size // 8 * 8].reshape(-1, 8)):
        assert csv_body(tmp_path / "hard.csv", block) == reference_lines(block)
    edges = np.array([1e250, 1e-250, math.inf, math.nan, 0.0, 5e-324, 1.7976931348623157e308])
    with np.errstate(over="ignore"):
        edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    edges = np.concatenate([edges, -edges])
    cells = [edges[i:i + 1, None] for i in range(edges.size)]  # one block each
    assert csv_body(tmp_path / "edges.csv", cells) == b"".join(map(reference_lines, cells))
    mixed = np.insert(hard_cells()[:512 - edges.size], 11 * np.arange(edges.size), edges)
    block = mixed.reshape(-1, 8)  # 512 cells: one formatted block
    assert csv_body(tmp_path / "mixed.csv", block) == reference_lines(block)


@pytest.mark.parametrize("stride", [1, 3])
def test_trajectory_csv_is_the_cell_rule_byte_for_byte(tmp_path, stride):
    config = make_config(None, {"n_elements": "40", "dt": "1/80", "T": "2", "D": "0.1"})
    traj = experiments.fe_trajectory(config)
    header, blocks = experiments.trajectory_rows(traj.space, traj.grid, [(0, traj.states)], stride)
    assert header[:2] == ["t", "u_1"] and len(header) == 40
    table = np.column_stack((traj.grid.times, traj.states))[::stride]
    assert csv_body(tmp_path / "trajectory.csv", blocks) == reference_lines(table)


def test_trajectory_csv_streams_in_blocks(tmp_path):
    """Writing a stride-1 trajectory.csv allocates neither the table's text
    nor a float copy of it: at 400 elements, dt = 1/800 and T = 2.5 the
    trajectory is 6.4 MB and the text 18.8 MB.  The peak, 1.7 MiB, is one
    64-row float block and the temporaries of formatting 8192 cells."""
    config = make_config(None, {"n_elements": "400", "dt": "1/800", "T": "2.5", "D": "0.1"})
    traj = experiments.fe_trajectory(config)
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "trajectory.csv"), config, "solve",
                  *experiments.trajectory_rows(traj.space, traj.grid, [(0, traj.states)], 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.getsize(tmp_path / "trajectory.csv") > 18e6
    assert peak < 3 << 20, peak


# 4199 unknowns make level blocks of 16 new levels, the least there are
_B = wave._block_rows(4199)


@pytest.mark.parametrize("n_levels", [3, _B - 1, _B, _B + 1, _B + 2, _B + 3, 2 * _B + 2])
@pytest.mark.parametrize("stride, damping", [
    (1, {"D": "0.1"}), (3, {"G": "0.002"}), (7, {"D": "0.1", "G": "0.002"}),
    (1000, {"D": "0.1", "G": "0.002"})], ids=["1-D", "3-G", "7-DG", "above-N-DG"])
def test_streamed_solve_csvs_are_the_whole_array_bytes(tmp_path, n_levels, stride, damping):
    """solve steps in blocks of levels that share two levels with the next
    and writes trajectory.csv and reduces energy.csv as they come: around
    one and two blocks, both CSVs are byte for byte those written from the
    whole trajectory."""
    values = {"n_elements": "4200", "dt": "0.01", "T": repr((n_levels - 1) * 0.01),
              "stride": str(stride), **damping, "output_dir": str(tmp_path / "stream")}
    argv = [word for key, value in values.items() for word in ("--" + key.replace("_", "-"), value)]
    assert main([*argv, "solve"]) == 0
    config = make_config(None, values)
    assert config.time_grid().N == n_levels
    os.mkdir(tmp_path / "whole")
    fe_reference.solve_csvs(config, str(tmp_path / "whole"))
    for name in ("trajectory.csv", "energy.csv"):
        assert (tmp_path / "stream" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_solve_holds_one_block_of_levels(tmp_path):
    """At 400 elements, dt = 1/800 and T = 10 the trajectory is 25.5 MB and
    the text of its stride-1 table 75 MB; solve holds one block of 322
    levels (1 MiB), its energy arrays (128 KB) and the temporaries of one
    block (26.7 MiB when it held the trajectory)."""
    tracemalloc.start()
    try:
        rc = main(["--n-elements", "400", "--dt", "1/800", "--T", "10", "--D", "0.1",
                   "--stride", "1", "--output-dir", str(tmp_path), "solve"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert os.path.getsize(tmp_path / "trajectory.csv") > 75e6
    assert peak < 4 << 20, peak


def loaded_by_cli_import(*modules, runs=()) -> str:
    """Which of modules `import podwave.cli` loads in a fresh interpreter,
    and the CLI runs of the argument lists runs after it."""
    src = os.path.dirname(os.path.dirname(podwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys, podwave.cli; [podwave.cli.main(argv) for argv in {list(runs)!r}]; "
            f"print(sorted({set(modules)!r} & set(sys.modules)))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


def test_cli_import_skips_scipy_signal():
    """scipy.signal costs about a second and 46 MiB to import; the CLI
    must not pull it in."""
    assert loaded_by_cli_import("scipy.signal") == "[]"


def test_cli_import_skips_scipy_linalg(tmp_path):
    """linalg loads scipy's compiled LAPACK module from its file: the
    scipy.linalg package's __init__ imports array_api_compat and through it
    numpy.f2py and numpy.testing, which took `import podwave.cli` in a fresh
    interpreter from a median 0.30 to 0.74 s and from 32.5 to 57 MiB (2-vCPU
    VM).  Nor do the SVD, the factorisations and the triangular solves of
    tiny runs load them."""
    modules = ("scipy.linalg", "numpy.f2py", "numpy.testing")
    assert loaded_by_cli_import(*modules) == "[]"
    out = ["--output-dir", str(tmp_path)]
    runs = [COARSE + out + ["error-formulas", "--r", "2,4"],
            COARSE + out + ["--r", "2,7", "rom-sweep", "--param", "D", "--values", "0", "0.1"]]
    assert loaded_by_cli_import(*modules, runs=runs) == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error_formulas.csv", "rom_sweep.csv"]


def test_cli_import_skips_fractions_and_decimal():
    """The block formatter's power-of-ten table is built from exact ints:
    `fractions` took 130 ms to build it, which every run would pay."""
    assert loaded_by_cli_import("fractions", "decimal") == "[]"


@pytest.mark.parametrize("scale,message", [
    (-1.0, "reduced stiffness is not SPD: 1-th leading minor of the array is not positive definite"),
    (np.nan, "array must not contain infs or NaNs"),
], ids=["not-spd", "not-finite"])
def test_reduced_stiffness_failures_exit_two(tmp_path, capsys, monkeypatch, scale, message):
    """A reduced stiffness that LAPACK cannot factor, here scaled by -1 or
    nan before its Cholesky factorisation, exits 2 with one line."""
    monkeypatch.setattr(pod, "cholesky", lambda a: linalg.cholesky(scale * a))
    rc = main(COARSE + ["--r", "2", "--output-dir", str(tmp_path), "rom-sweep",
                        "--param", "D", "--values", "0"])
    assert rc == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not list(tmp_path.iterdir())


def test_zero_data_exits_two(tmp_path, capsys):
    rc = main(SMALL + ["--u0", "zero", "--output-dir", str(tmp_path), "error-formulas"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_solve_outputs(tmp_path):
    rc = main(SMALL + ["--D", "0.1", "--output-dir", str(tmp_path), "--stride", "4", "solve"])
    assert rc == 0
    traj = read(tmp_path / "trajectory.csv")
    assert traj.startswith("# command=solve")
    # the full configuration rides along in the header
    header_keys = {l[2:].split("=")[0] for l in traj.splitlines() if l.startswith("# ")}
    from dataclasses import fields
    assert {f.name for f in fields(RunConfig)} <= header_keys
    lines = data_lines(traj)
    assert lines[0].split(",")[:2] == ["t", "u_1"]
    assert len(lines) == 1 + (81 + 3) // 4  # header + strided rows

    energy = data_lines(read(tmp_path / "energy.csv"))
    assert energy[0] == "t,energy,energy_rate,neg_dissipation"
    assert len(energy) == 1 + 79  # interior levels n = 2..N-1
    rate = np.array([float(l.split(",")[2]) for l in energy[1:]])
    neg_diss = np.array([float(l.split(",")[3]) for l in energy[1:]])
    first_e = float(energy[1].split(",")[1])
    assert np.max(np.abs(rate - neg_diss)) <= 1e-9 * first_e


def test_singvals_output(tmp_path):
    rc = main(SMALL + ["--G", "0.001", "--pod-method", "ddq",
                       "--output-dir", str(tmp_path), "singvals"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "singvals_ddq.csv"))
    assert lines[0] == "k,sigma"
    sigma = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(np.diff(sigma) <= 1e-12 * sigma[0])
    assert np.all(sigma > 0)


def test_singvals_zero_trajectory_empty(tmp_path):
    rc = main(SMALL + ["--u0", "zero", "--output-dir", str(tmp_path), "singvals"])
    assert rc == 0
    assert data_lines(read(tmp_path / "singvals_standard.csv")) == ["k,sigma"]


def test_error_formulas_output(tmp_path):
    rc = main(SMALL + ["--G", "0.001", "--r-list", "2,5",
                       "--output-dir", str(tmp_path), "error-formulas"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "error_formulas.csv"))
    assert lines[0] == "r,norm,actual,formula,relative_gap"
    assert len(lines) == 1 + 4  # two r values times two norms
    gaps = [float(l.split(",")[4]) for l in lines[1:]]
    assert max(gaps) <= 1e-8


def test_error_formulas_projects_once_per_r(tmp_path, monkeypatch):
    """One L2 projection per r yields the data errors in both norms."""
    calls = []

    def counting(basis, r, v):
        calls.append(r)
        return pod.project_l2(basis, r, v)

    monkeypatch.setitem(pod._PROJECTORS, pod.PROJECTOR_L2, counting)
    rc = main(SMALL + ["--G", "0.001", "--r-list", "2,5,9",
                       "--output-dir", str(tmp_path), "error-formulas"])
    assert rc == 0
    assert calls == [2, 5, 9]


def test_rom_sweep_deterministic_bytes(tmp_path):
    args = SMALL + ["--G", "0.001", "--r-list", "3,6", "--output-dir", str(tmp_path),
                    "rom-sweep", "--param", "G", "--values", "0.001", "0.01"]
    assert main(args) == 0
    first = (tmp_path / "rom_sweep.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "rom_sweep.csv").read_bytes() == first
    lines = data_lines(first.decode())
    assert lines[0] == "G,r,method,max_l2_sq,max_energy,ratio_energy,ratio_pointwise"
    assert len(lines) == 1 + 2 * 2 * 2  # values x methods x r


def test_profiles_output(tmp_path):
    rc = main(SMALL + ["--D", "0.05", "--r-list", "6", "--output-dir", str(tmp_path),
                       "profiles", "--times", "0", "1", "2"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "profiles.csv"))
    assert lines[0] == "x,fe_t0,rom_t0,fe_t1,rom_t1,fe_t2,rom_t2"
    assert len(lines) == 1 + 25  # all nodes including the boundary
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(last[0]) == 1.0
    assert all(float(v) == 0.0 for v in first[1:])  # Dirichlet boundary


def test_profile_columns_name_close_times_apart(tmp_path):
    """%g keeps 6 significant digits: a time it would round is named by repr."""
    rc = main(["--n-elements", "8", "--dt", "0.1", "--T", "1", "--r-list", "3",
               "--output-dir", str(tmp_path), "profiles", "--times", "0.3", "0.30000000000000004"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "profiles.csv"))
    assert lines[0] == "x,fe_t0.3,rom_t0.3,fe_t0.30000000000000004,rom_t0.30000000000000004"


def test_train_interval_output(tmp_path):
    rc = main(SMALL + ["--D", "0.1", "--output-dir", str(tmp_path),
                       "train-interval", "--t-train", "2", "1", "--r", "6"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "train_interval.csv"))
    assert lines[0] == "T_train,method,final_time_l2"
    assert len(lines) == 1 + 4
    errs = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(e >= 0 for e in errs)


def test_convergence_output(tmp_path):
    rc = main(["--n-elements", "400", "--dt", "1/40", "--T", "1.25", "--u0", "sine",
               "--output-dir", str(tmp_path),
               "convergence", "--dt-list", "0.025", "0.0125"])
    assert rc == 0
    lines = data_lines(read(tmp_path / "convergence.csv"))
    assert lines[0] == "dt,h,final_l2_error,observed_order"
    order = float(lines[2].split(",")[3])
    assert 1.7 <= order <= 2.3


def test_convergence_zero_error_has_no_order(tmp_path):
    """Zero initial data has an exact error of 0: the order is nan, not a
    division by zero."""
    rc = main(SMALL + ["--u0", "zero", "--output-dir", str(tmp_path),
                       "convergence", "--dt-list", "0.1", "0.05"])
    assert rc == 0
    rows = [l.split(",") for l in data_lines(read(tmp_path / "convergence.csv"))[1:]]
    assert [float(row[2]) for row in rows] == [0.0, 0.0]
    assert all(math.isnan(float(row[3])) for row in rows)


def test_check_command_passes(capsys):
    rc = main(SMALL + ["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_failed_check_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "invariant_checks",
                        lambda config: [("one", True, "ok"), ("two", False, "off")])
    assert main(SMALL + ["check"]) == 2
    out, err = capsys.readouterr()
    assert out == "PASS one: ok\nFAIL two: off\n"
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def header_config(csv_path, config_path, drop=("command", "output_dir")):
    """Write the `# key=value` preamble of a CSV, less the keys in drop, as
    a config file."""
    lines = [l[2:] for l in read(csv_path).splitlines() if l.startswith("# ")]
    config_path.write_text("".join(l + "\n" for l in lines if l.split("=")[0] not in drop))
    return str(config_path)


@pytest.mark.parametrize("argv", [
    ["--D", "0.1", "--stride", "4", "solve"],
    ["--G", "0.001", "--pod-method", "ddq", "singvals"],
    ["--G", "0.001", "--r-list", "2,5", "error-formulas"],
    ["--r-list", "3,6", "rom-sweep", "--param", "G", "--values", "0.001", "1/100"],
    ["--D", "0.05", "profiles", "--r", "6", "--times", "0", "1", "2"],
    ["--D", "0.1", "train-interval", "--t-train", "2", "1", "--r", "6"],
    ["--u0", "sine", "convergence", "--dt-list", "0.1", "1/20"],
], ids=lambda argv: next(a for a in argv if a in COMMANDS))
def test_csv_header_reproduces_the_run(tmp_path, argv):
    """Every input of a command is in its CSV header: the header, replayed
    as a config file, writes the same data rows."""
    command = next(a for a in argv if a in COMMANDS)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(SMALL + ["--output-dir", str(first)] + argv) == 0
    names = sorted(os.listdir(first))
    for name in names:
        config = header_config(first / name, tmp_path / f"{name}.cfg")
        assert main(["--config", config, "--output-dir", str(again), command]) == 0
        assert data_lines(read(again / name)) == data_lines(read(first / name)), name
    assert sorted(os.listdir(again)) == names


def test_csv_header_replays_a_hash_inside_a_value(tmp_path):
    """Only a line that starts with # or the rest of a line from a # after a
    blank is a comment: the header of a run into run#1, replayed as a config
    file, writes to run#1 again, not to run."""
    out = tmp_path / "run#1"
    assert main(SMALL + ["--output-dir", str(out), "singvals"]) == 0
    config = header_config(out / "singvals_standard.csv", tmp_path / "run.cfg",
                           drop=("command",))
    assert make_config(config).output_dir == str(out)
    assert main(["--config", config, "singvals"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1", "run.cfg"]


def test_unset_output_dir_replays_to_the_current_directory(tmp_path, monkeypatch):
    """A run without --output-dir writes into the current directory and
    records output_dir as empty, and the header replayed as a config file
    writes there again: the retired PODWAVE_OUTPUT_DIR is not read."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PODWAVE_OUTPUT_DIR", "elsewhere")
    assert main(SMALL + ["singvals"]) == 0
    csv = tmp_path / "singvals_standard.csv"
    assert "# output_dir=\n" in read(csv)
    config = header_config(csv, tmp_path / "run.cfg", drop=("command",))
    assert make_config(config).output_dir == ""
    csv.unlink()
    assert main(["--config", config, "singvals"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "singvals_standard.csv"]


# Columns whose cells may be nan: a bound quotient with a round-off-level
# denominator, and the order of a first or error-free convergence row.
NAN_COLUMNS = {"ratio_energy", "ratio_pointwise", "observed_order"}


@st.composite
def tiny_runs(draw):
    """argv for one subcommand on a tiny configuration: at most 24 elements
    and 100 time levels."""
    T = draw(st.floats(0.01, 100.0))
    steps = draw(st.integers(2, 99))
    grid_time = st.integers(0, steps).map(lambda n: repr(n * T / steps))
    a_time = st.one_of(grid_time, st.floats(0.0, T).map(repr))
    small_r = st.one_of(st.integers(1, 4), st.integers(1, 30))  # a POD rank is often small
    argv = ["--T", repr(T), "--dt", repr(T / steps),
            "--n-elements", str(draw(st.integers(2, 24))),
            "--c", repr(draw(st.floats(0.01, 100.0))),
            "--D", repr(draw(st.one_of(st.just(0.0), st.floats(0.0, 1000.0)))),
            "--G", repr(draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))),
            "--pod-method", draw(st.sampled_from(pod.METHODS)),
            "--r-list", ",".join(map(str, draw(st.lists(small_r, min_size=1, max_size=3)))),
            "--u0", draw(st.sampled_from(sorted(INITIAL_CONDITIONS))),
            "--stride", str(draw(st.integers(1, 5)))]
    command = draw(st.sampled_from(COMMANDS))
    args = []
    r = st.one_of(st.just([]), small_r.map(lambda r: ["--r", str(r)]))
    if command == "rom-sweep":
        args = draw(st.one_of(st.just([]), st.sampled_from(["D", "G"]).map(
            lambda p: ["--param", p])))
        args += ["--values", *draw(st.lists(st.floats(0.0, 1.0).map(repr),
                                            min_size=1, max_size=2))]
    elif command == "profiles":
        args = ["--times", *draw(st.lists(a_time, min_size=1, max_size=3)), *draw(r)]
    elif command == "train-interval":
        args = ["--t-train", *draw(st.lists(a_time, min_size=1, max_size=3)), *draw(r)]
    elif command == "convergence":
        dts = st.integers(2, 99).map(lambda k: repr(T / k))
        args = ["--dt-list", *draw(st.lists(dts, min_size=1, max_size=3))]
    return argv, [command, *args]


def csv_tables(out_dir):
    """{file name: (header, rows)} of every CSV written into out_dir."""
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            lines = data_lines(fh.read())
        tables[name] = (lines[0].split(","), [l.split(",") for l in lines[1:]])
    return tables


def as_number(cell):
    try:
        return float(cell)
    except ValueError:  # a method or norm name
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tiny_runs())
def test_cli_runs_end_in_csv_or_one_line(run):
    """Every tiny run either exits 0 with finite numbers, or exits 1 or 2
    with one stderr line and no traceback."""
    argv, command = run
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv + ["--output-dir", out] + command)
        tables = csv_tables(out)
    err = stderr.getvalue()
    if rc != 0:
        assert rc in (1, 2) and err.count("\n") == 1 and "Traceback" not in err, err
        return
    assert err == ""
    for name, (header, rows) in tables.items():
        for row in rows:
            for column, cell in zip(header, row):
                value = as_number(cell)
                if value is not None and not math.isfinite(value):
                    assert column in NAN_COLUMNS and math.isnan(value), (name, column, cell)
    if command[0] == "solve":  # per step: E^{n+1} - E^n = -dt * dissipation
        _, rows = tables["energy.csv"]
        e, rate, neg_diss = (np.array([float(row[i]) for row in rows]) for i in (1, 2, 3))
        dt = float(argv[argv.index("--dt") + 1])
        assert dt * np.max(np.abs(rate - neg_diss), initial=0.0) <= 1e-9 * np.max(e, initial=0.0)
    if command[0] == "error-formulas":
        _, rows = tables["error_formulas.csv"]
        assert max(float(row[4]) for row in rows) <= 1e-6
