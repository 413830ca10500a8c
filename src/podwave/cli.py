"""Command-line front end: solve, POD diagnostics, ROM sweeps, CSV output.

The flags are the RunConfig fields and the commands are one table, so every
input of a run reaches its CSV header.

Exit codes: 0 success, 1 configuration or output error, 2 numerical failure.
"""

import argparse
import functools
import os
import sys
from dataclasses import fields
from typing import Tuple

from . import experiments
from .config import ConfigError, RunConfig, format_value, make_config
from .linalg import LinAlgFailure

_FLOAT_FMT = "%.16e"  # 17 significant digits


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple) -> str:
    """The %-format line for a row whose cells have these types: floats
    (numpy's included) as %.16e, every other cell, bool included, as str()."""
    return ",".join(_FLOAT_FMT if issubclass(t, float) else "%s" for t in types) + "\n"


def write_csv(path: str, config: RunConfig, command: str, header, rows):
    """Write the CSV atomically: a temporary file next to `path`, renamed
    over it only once every row is written.  `rows` may be any iterable of
    sequences, a generator included."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# command={command}\n")
            for key, value in config.as_items():
                fh.write(f"# {key}={value}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                row = tuple(row)
                fh.write(_row_format(tuple(map(type, row))) % row)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _solve(config: RunConfig):
    traj = experiments.fe_trajectory(config)
    yield "trajectory.csv", experiments.trajectory_rows(traj, config.stride)
    yield "energy.csv", experiments.energy_rows(traj, config.wave_params())


def _check(config: RunConfig):
    results = experiments.invariant_checks(config)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    if not all(passed for _, passed, _ in results):
        raise ArithmeticError("a self-check failed")
    return ()


# command -> (help, config -> its (CSV name, (header, rows)) pairs).  The
# drivers are looked up in `experiments` at call time, so that a function
# rebound there (as a tracer does) is the one that runs.
_COMMANDS = {
    "solve": ("write trajectory.csv and energy.csv", _solve),
    "singvals": ("write the POD singular values", lambda config: [
        (f"singvals_{config.pod_method}.csv", experiments.singular_value_rows(config))]),
    "error-formulas": ("actual vs formula data errors per r", lambda config: [
        ("error_formulas.csv", experiments.error_formula_rows(config))]),
    "rom-sweep": ("ROM errors and bound ratios over damping values", lambda config: [
        ("rom_sweep.csv", experiments.rom_sweep_rows(config))]),
    "profiles": ("FE vs ROM spatial profiles at chosen times", lambda config: [
        ("profiles.csv", experiments.profile_rows(config))]),
    "train-interval": ("final-time error vs training window", lambda config: [
        ("train_interval.csv", experiments.train_interval_rows(config))]),
    "convergence": ("final-time error vs dt against the series", lambda config: [
        ("convergence.csv", experiments.convergence_rows(config))]),
    "check": ("run the invariant self-checks, exit 2 if one fails", _check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podwave",
        description="Damped-wave POD/ROM toolkit: solve, build bases, verify error\n"
                    "formulas and bounds, emit CSV tables.",
        formatter_class=argparse.RawTextHelpFormatter,
        allow_abbrev=False,
    )
    # optional, so that a command swallowed by a list flag fails as its value
    parser.add_argument("command", nargs="?", choices=_COMMANDS, metavar="COMMAND",
                        help="\n".join(f"{name:15} {text}"
                                       for name, (text, _) in _COMMANDS.items()))
    parser.add_argument("--config", help="flat key=value configuration file")
    cfg = parser.add_argument_group(
        "configuration",
        "one flag per RunConfig field, parsed like the config file: floats accept\n"
        "fractions such as 1/800; r_list (also --r) is one comma-separated word,\n"
        "the other lists take one or more words")
    for f in fields(RunConfig):
        flags = ["--" + f.name.replace("_", "-")] + (["--r"] if f.name == "r_list" else [])
        cfg.add_argument(*flags, dest=f.name, nargs="+" if f.type == Tuple[float, ...] else None,
                         help=f"default: {format_value(f.type, f.default) or '(empty)'}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = make_config(args.config, {f.name: getattr(args, f.name) for f in fields(RunConfig)})
        if args.command is None:
            parser.error("the following arguments are required: COMMAND")
        for name, (header, rows) in _COMMANDS[args.command][1](config):
            path = os.path.join(config.resolve_output_dir(), name)
            print(write_csv(path, config, args.command, header, rows))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (LinAlgFailure, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
