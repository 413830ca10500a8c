"""Command-line front end: solve, POD diagnostics, ROM sweeps, CSV output.

Exit codes: 0 success, 1 configuration or output error, 2 numerical failure.
"""

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import experiments
from .config import ConfigError, RunConfig, make_config, parse_number
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


def _out_path(config: RunConfig, name: str) -> str:
    return os.path.join(config.resolve_output_dir(), name)


def cmd_solve(config: RunConfig, args) -> int:
    traj = experiments.fe_trajectory(config)
    header, rows = experiments.trajectory_rows(traj, config.stride)
    p1 = write_csv(_out_path(config, "trajectory.csv"), config, "solve", header, rows)
    header, rows = experiments.energy_rows(traj, config.wave_params())
    p2 = write_csv(_out_path(config, "energy.csv"), config, "solve", header, rows)
    print(p1)
    print(p2)
    return 0


def cmd_singvals(config: RunConfig, args) -> int:
    header, rows = experiments.singular_value_rows(config)
    name = f"singvals_{config.pod_method}.csv"
    print(write_csv(_out_path(config, name), config, "singvals", header, rows))
    return 0


def cmd_error_formulas(config: RunConfig, args) -> int:
    header, rows = experiments.error_formula_rows(config)
    print(write_csv(_out_path(config, "error_formulas.csv"), config,
                    "error-formulas", header, rows))
    return 0


def cmd_rom_sweep(config: RunConfig, args) -> int:
    param = args.param
    if param is None:
        param = "G" if config.G > 0 and config.D == 0 else "D"
    if args.values:
        values = [parse_number("--values", v) for v in args.values]
    else:
        values = [getattr(config, param)]
    header, rows = experiments.rom_sweep_rows(config, param, values)
    print(write_csv(_out_path(config, "rom_sweep.csv"), config, "rom-sweep",
                    header, rows))
    return 0


def cmd_profiles(config: RunConfig, args) -> int:
    r = args.r if args.r is not None else int(config.r_list[0])
    times = [parse_number("--times", t) for t in args.times]
    header, rows = experiments.profile_rows(config, times, r)
    print(write_csv(_out_path(config, "profiles.csv"), config, "profiles",
                    header, rows))
    return 0


def cmd_train_interval(config: RunConfig, args) -> int:
    r = args.r if args.r is not None else int(config.r_list[0])
    t_train = [parse_number("--t-train", t) for t in args.t_train]
    header, rows = experiments.train_interval_rows(config, t_train, r)
    print(write_csv(_out_path(config, "train_interval.csv"), config,
                    "train-interval", header, rows))
    return 0


def cmd_convergence(config: RunConfig, args) -> int:
    dt_list = [parse_number("--dt-list", dt) for dt in args.dt_list]
    header, rows = experiments.convergence_rows(config, dt_list)
    print(write_csv(_out_path(config, "convergence.csv"), config,
                    "convergence", header, rows))
    return 0


def cmd_check(config: RunConfig, args) -> int:
    results = experiments.invariant_checks(config)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podwave",
        description="Damped-wave POD/ROM toolkit: solve, build bases, "
                    "verify error formulas and bounds, emit CSV tables.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    cfg = parser.add_argument_group(
        "configuration overrides",
        "one flag per RunConfig field, parsed like the config file: floats "
        "accept fractions such as 1/800, r_list is comma separated")
    for f in fields(RunConfig):
        cfg.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=str,
                         help=f"default: {f.default}")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="write trajectory.csv and energy.csv")
    sub.add_parser("singvals", help="write the POD singular values")
    sub.add_parser("error-formulas", help="actual vs formula data errors per r")

    p = sub.add_parser("rom-sweep", help="ROM errors and bound ratios over damping values")
    p.add_argument("--param", choices=("D", "G"))
    p.add_argument("--values", nargs="+")

    p = sub.add_parser("profiles", help="FE vs ROM spatial profiles at chosen times")
    p.add_argument("--times", nargs="+", default=["0", "5", "10"])
    p.add_argument("--r", type=int)

    p = sub.add_parser("train-interval", help="final-time error vs training window")
    p.add_argument("--t-train", dest="t_train", nargs="+", default=["10", "5", "1", "0.5"])
    p.add_argument("--r", type=int)

    p = sub.add_parser("convergence", help="final-time error vs dt against the series")
    p.add_argument("--dt-list", dest="dt_list", nargs="+", default=["1/100", "1/200", "1/400"])

    sub.add_parser("check", help="run the invariant self-checks")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "singvals": cmd_singvals,
    "error-formulas": cmd_error_formulas,
    "rom-sweep": cmd_rom_sweep,
    "profiles": cmd_profiles,
    "train-interval": cmd_train_interval,
    "convergence": cmd_convergence,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = make_config(args.config, {f.name: getattr(args, f.name) for f in fields(RunConfig)})
        return _COMMANDS[args.command](config, args)
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
