#!/usr/bin/env python3
"""Compare the CSV tables of two result trees and say how far each moved.

    python scripts/compare_tables.py OLD NEW

Pairs every *.csv under OLD and NEW by its path relative to the tree.  The
`# output_dir=` header line is left out, since each run records where it
wrote; every other byte must match.  For each file that differs it prints
the header lines that changed and, per changed column, the worst move of a
cell relative to the cell, |new - old| / |old|, and relative to the
column's largest value, |new - old| / max |old|.  A text column reports how
many of its cells differ.  `relative_gap` (the data-error formula gap, a
quotient of round-off) is not quantified, but its bytes still count.

Exits 0 when every table is in both trees and matches byte for byte, 1
otherwise, also when neither tree holds a table.
"""

import os
import sys

import numpy as np

IGNORED = b"# output_dir="
UNQUANTIFIED = ("relative_gap",)


def tables(root):
    """The relative path of every *.csv under root."""
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names if name.endswith(".csv")}


def table_lines(path):
    """The lines of a CSV file as bytes, less its output_dir line."""
    with open(path, "rb") as fh:
        return [line for line in fh.read().split(b"\n") if not line.startswith(IGNORED)]


def column_move(name, old, new):
    """One line on how the cells of a column moved, or None if none did."""
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if not changed:
        return None
    count = f"{len(changed)} of {len(old)} cells differ"
    if name in UNQUANTIFIED:
        return f"{name}: {count} (not quantified)"
    try:
        a, b = np.array(old, dtype=float), np.array(new, dtype=float)
    except ValueError:  # a text column
        return f"{name}: {count}"
    with np.errstate(all="ignore"):
        largest = np.max(np.abs(a[np.isfinite(a)]), initial=0.0)
        a, b = a[changed], b[changed]
        same = (a == b) | np.isnan(a) & np.isnan(b)  # one value, written otherwise
        move = np.where(same, 0.0, np.abs(b - a))
        of_cell = np.where(same, 0.0, move / np.abs(a))
        of_cell[np.isnan(of_cell)] = np.inf  # a cell became or stopped being nan or inf
        of_column = np.max(move) / largest
    return (f"{name}: {count}, worst {np.max(of_cell):.2e} of the cell, "
            f"{of_column:.2e} of the column's largest value")


def differences(old_path, new_path):
    """Lines describing how the table at new_path differs from old_path."""
    old, new = table_lines(old_path), table_lines(new_path)
    old_notes = [line for line in old if line.startswith(b"#")]
    new_notes = [line for line in new if line.startswith(b"#")]
    out = [f"header: {a.decode(errors='replace')!r} -> {b.decode(errors='replace')!r}"
           for a, b in zip(old_notes, new_notes) if a != b]
    if len(old_notes) != len(new_notes):
        out.append(f"header: {len(old_notes)} -> {len(new_notes)} lines")
    old_rows, new_rows = ([line.decode(errors="replace").split(",") for line in lines
                           if line and not line.startswith(b"#")] for lines in (old, new))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        shape = [(len(rows), rows[0] if rows else []) for rows in (old_rows, new_rows)]
        return out + [f"rows and columns: {shape[0]} -> {shape[1]}"]
    for j, name in enumerate(old_rows[0] if old_rows else []):
        try:
            line = column_move(name, [row[j] for row in old_rows[1:]],
                               [row[j] for row in new_rows[1:]])
        except IndexError:
            return out + ["a row has fewer cells than the column names"]
        if line:
            out.append(line)
    return out or ["bytes differ outside the cells"]


def main(argv):
    if len(argv) != 2:
        print("usage: compare_tables.py OLD NEW", file=sys.stderr)
        return 2
    old_root, new_root = argv
    old, new = tables(old_root), tables(new_root)
    failed = not old | new
    if failed:
        print(f"no *.csv under {old_root} or {new_root}")
    for path in sorted(old ^ new):
        print(f"{path}: only in {old_root if path in old else new_root}")
        failed = True
    for path in sorted(old & new):
        old_path, new_path = os.path.join(old_root, path), os.path.join(new_root, path)
        if table_lines(old_path) != table_lines(new_path):
            print(path)
            for line in differences(old_path, new_path):
                print(f"  {line}")
            failed = True
    if not failed:
        print(f"{len(old)} tables match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
