"""Smoke tests of the benchmark itself, at the tiny workload size.

    python3 -m pytest -q perfbench/test_smoke.py

They are not part of the repository's test suite (pytest's testpaths is
`tests`); run them after changing anything under perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2].split(": ", 1)[1])
    return env, json.loads(lines[-1])


@pytest.fixture
def tmp_dir():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    _, result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics(workload):
    env, result = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(tracer.LAYER_METRICS)
    self_sum = sum(v["value"] for k, v in metrics.items()
                   if k.endswith(".self_s") and k != "trace.overhead_s")
    assert 0 < self_sum <= min(env["traced_pass_wall_s"])
    assert metrics["cli.main.self_s"]["value"] > 0


def _tiny_outputs(tmp_dir, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = os.path.join(tmp_dir, "op")
    subprocess.run([sys.executable, "-m", "podwave", "--output-dir", out, *argv],
                   env=env, check=True, capture_output=True, timeout=120)
    return out


def _rewrite(path, transform):
    """Replace the data rows of a podwave CSV by transform(header, rows)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[head + 1:] = transform(lines[head].split(","), lines[head + 1:])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _flip_cell(column, change):
    """A transform for _rewrite that changes one cell of the first data row."""
    def transform(header, rows):
        cells = rows[0].split(",")
        j = header.index(column)
        cells[j] = change(cells[j])
        return [",".join(cells), *rows[1:]]
    return transform


def _problems_after(tmp_dir, workload, file, transform):
    """check_op's findings on a copy of an op's outputs with `file` rewritten.

    The untouched outputs must pass, and fail once given a non-zero exit code.
    """
    reference = run.load_reference("tiny")
    argv = next(a for a in invocations(workload, "tiny", "0.01")
                if file in checks.output_files(a))
    out = _tiny_outputs(tmp_dir, argv)
    assert checks.check_op(out, argv, 0, reference)[0] == []
    assert checks.check_op(out, argv, 2, reference)[0] == ["exit code 2"]
    copy = os.path.join(tmp_dir, "copy")
    shutil.copytree(out, copy)
    _rewrite(os.path.join(copy, file), transform)
    return checks.check_op(copy, argv, 0, reference)[0]


@pytest.mark.parametrize("workload, file, column, change", [
    ("pod-data-errors", "error_formulas.csv", "actual", lambda c: repr(2 * float(c))),
    ("pod-data-errors", "error_formulas.csv", "relative_gap", lambda c: "1e-3"),
    ("rom-r-sweep", "rom_sweep.csv", "max_l2_sq", lambda c: "inf"),
    ("fe-export", "energy.csv", "energy_rate", lambda c: repr(float(c) + 1.0)),
    ("fe-export", "trajectory.csv", "u_3", lambda c: "garbage"),
])
def test_flipped_cell_fails_the_op(tmp_dir, workload, file, column, change):
    problems = _problems_after(tmp_dir, workload, file, _flip_cell(column, change))
    assert problems, f"flipped {file}:{column} went unnoticed"


@pytest.mark.parametrize("workload, file, reorder", [
    ("tables", "singvals_standard.csv", lambda rows: rows[::-1]),
    ("fe-export", "trajectory.csv", lambda rows: [rows[-1], *rows[1:-1], rows[0]]),
    ("fe-export", "energy.csv", lambda rows: rows[len(rows) // 2:] + rows[:len(rows) // 2]),
    ("rom-r-sweep", "rom_sweep.csv", lambda rows: [rows[1], rows[0], *rows[2:]]),
])
def test_reordered_rows_fail_the_op(tmp_dir, workload, file, reorder):
    problems = _problems_after(tmp_dir, workload, file, lambda header, rows: reorder(rows))
    assert problems, f"reordered rows of {file} went unnoticed"


def test_fails_without_the_program(tmp_dir):
    shutil.copytree(HERE, os.path.join(tmp_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_dir)
    proc = bench("tables", 0, cwd=tmp_dir, script=os.path.join(tmp_dir, "perfbench", "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
