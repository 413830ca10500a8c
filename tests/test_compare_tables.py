"""scripts/compare_tables.py passes two result trees only when every byte
but the `# output_dir=` line matches, and names the file and column of a
moved cell."""

import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "compare_tables.py")
TABLE = """# command=error-formulas
# output_dir={output_dir}
# pod_method=standard
r,norm,actual,formula,relative_gap
4,L2,1.2500000000000000e-03,1.2500000000000002e-03,1.7763568394002505e-16
4,H1_0,3.0000000000000000e+00,3.0000000000000000e+00,0.0000000000000000e+00
"""
NAMES = ("error_formulas/error_formulas.csv", "singvals/singvals_standard.csv")


def write_tree(root, output_dir, table=TABLE):
    for name in NAMES:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(table.format(output_dir=output_dir))


def unchanged(new):
    pass


def moved_output_dir(new):
    write_tree(new, "elsewhere/run")


def moved_cell(new):  # actual 1.25e-3 by 1e-12 of itself
    write_tree(new, "old", TABLE.replace("1.2500000000000000e-03", "1.2500000000012500e-03"))


def moved_gap(new):
    write_tree(new, "old", TABLE.replace("1.7763568394002505e-16", "1.7763568394002506e-16"))


def missing_file(new):
    (new / NAMES[1]).unlink()


@pytest.mark.parametrize("doctor, rc, said", [
    (unchanged, 0, ["2 tables match"]),
    (moved_output_dir, 0, ["2 tables match"]),
    (moved_cell, 1, [f"{name}\n  actual: 1 of 2 cells differ, worst 1.00e-12 of the cell, "
                     "4.17e-16 of the column's largest value" for name in NAMES]),
    (moved_gap, 1, ["relative_gap: 1 of 2 cells differ (not quantified)"]),
    (missing_file, 1, [f"{NAMES[1]}: only in "]),
], ids=["unchanged", "moved_output_dir", "moved_cell", "moved_gap", "missing_file"])
def test_compare_tables(tmp_path, doctor, rc, said):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, "old")
    write_tree(new, "old")
    doctor(new)
    run = subprocess.run([sys.executable, SCRIPT, str(old), str(new)],
                         capture_output=True, text=True)
    assert run.returncode == rc, run.stdout + run.stderr
    for words in said:
        assert words in run.stdout
    if rc:
        assert "match" not in run.stdout


def test_compare_tables_needs_tables(tmp_path):
    """Two trees without a table prove nothing, so they do not pass."""
    run = subprocess.run([sys.executable, SCRIPT, str(tmp_path / "a"), str(tmp_path / "b")],
                         capture_output=True, text=True)
    assert run.returncode == 1 and "no *.csv" in run.stdout
