#!/usr/bin/env python3
"""Reproduce the reference experiment tables and figure data as CSV files.

Runs the podwave CLI in this one process for every experiment family, so
the study cache can share FE trajectories and POD bases between families,
within its 8 MiB budget: at the full scale a 400-element trajectory over
T = 10 does not fit, and the run makes 26 FE solves (counted by a spy on
wave.solve) for 11 distinct trajectories; the --quick run makes 11, one
per trajectory.  It writes:

  error_formulas/   actual-vs-formula data errors (standard and ddq)
  singvals/         POD singular value decay for both damping types
  rom_sweep/        ROM max errors and bound ratios over damping sweeps
  profiles/         FE vs ROM spatial profiles at t = 0, 5, 10
  train_interval/   final-time error vs training window
  convergence/      undamped second-order-in-time verification

The wave speed is not part of the reference setup; c = 2/pi reproduces the
Kelvin-Voigt data-error magnitudes and c = 1 the viscous-damping ROM tables,
so each family is run with its identified value.  The full scale (400
elements, dt = 1/800, T = 10) takes 12-19 s over 19 runs (a 2-vCPU Xeon VM
whose speed drifts), the --quick scale under 1 s.  Each CLI call runs on one
BLAS thread at any OPENBLAS_NUM_THREADS, so these times and the CSV bytes
hold at every setting.
"""

import argparse
import math
import os
import sys

from podwave.cli import main as podwave

C_KELVIN_VOIGT = repr(2.0 / math.pi)
DAMPING_VALUES = ["0.00001", "0.0001", "0.001", "0.01", "0.1"]


def run(outdir, *args):
    print("podwave " + " ".join(args) + f"  -> {outdir}")
    rc = podwave(["--output-dir", outdir, *args])
    if rc != 0:
        sys.exit(rc)


def invocations(quick=False):
    """(output subdirectory, podwave argv) of every experiment, in run order."""
    if quick:
        base = ["--n-elements", "48", "--dt", "1/96", "--T", "4"]
        r_data, r_visc, r_kv = "4,8,12", "8,12", "4,8"
        conv = ["--n-elements", "400", "--T", "1.25"]
        times = ["0", "2", "4"]
        windows = ["4", "2", "1", "0.5"]
    else:
        base = ["--n-elements", "400", "--dt", "1/800", "--T", "10"]
        r_data, r_visc, r_kv = "10,20,40,60", "20,40", "10,20"
        conv = ["--n-elements", "2000", "--T", "1.25"]
        times = ["0", "5", "10"]
        windows = ["10", "5", "1", "0.5"]

    kv = base + ["--c", C_KELVIN_VOIGT, "--G", "0.001"]
    visc = base + ["--c", "1.0", "--D", "0.1"]
    ops = []

    for method in ("standard", "ddq"):
        ops.append((os.path.join("error_formulas", method),
                    [*kv, "--pod-method", method, "--r-list", r_data, "error-formulas"]))
        ops.append((os.path.join("singvals", "kelvin_voigt"),
                    [*kv, "--pod-method", method, "singvals"]))
        ops.append((os.path.join("singvals", "viscous"),
                    [*visc, "--pod-method", method, "singvals"]))

    ops.append((os.path.join("rom_sweep", "viscous"),
                [*base, "--c", "1.0", "--r-list", r_visc,
                 "rom-sweep", "--param", "D", "--values", *DAMPING_VALUES]))
    ops.append((os.path.join("rom_sweep", "kelvin_voigt"),
                [*base, "--c", "1.0", "--r-list", r_kv,
                 "rom-sweep", "--param", "G", "--values", *DAMPING_VALUES]))

    for method in ("standard", "ddq"):
        for r in (10, 20):
            ops.append((os.path.join("profiles", f"viscous_r{r}_{method}"),
                        [*visc, "--pod-method", method, "profiles", "--r", str(r),
                         "--times", *times]))
        for r in (5, 10):
            ops.append((os.path.join("profiles", f"kelvin_voigt_r{r}_{method}"),
                        [*kv, "--pod-method", method, "profiles", "--r", str(r),
                         "--times", *times]))

    for label, flags in (("viscous", ["--D", "0.1"]), ("kelvin_voigt", ["--G", "0.001"])):
        ops.append((os.path.join("train_interval", label),
                    [*base, "--c", "1.0", *flags,
                     "train-interval", "--t-train", *windows, "--r", "20"]))

    ops.append(("convergence",
                [*conv, "--dt", "1/100", "--c", "1.0", "--u0", "sine",
                 "convergence", "--dt-list", "0.01", "0.005", "0.0025"]))
    return ops


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem size for a fast smoke run")
    args = parser.parse_args()
    for subdir, argv in invocations(args.quick):
        run(os.path.join(args.out, subdir), *argv)
    print(f"done; results under {args.out}/")


if __name__ == "__main__":
    main()
