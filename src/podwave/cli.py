"""Command-line front end: solve, POD diagnostics, ROM sweeps, CSV output.

The flags are the RunConfig fields and the commands are one table, so every
input of a run reaches its CSV header.

Exit codes: 0 success, 1 configuration, output or out-of-memory error, 2
numerical failure, a floating-point overflow included.
"""

import argparse
import os
import sys
from dataclasses import fields
from typing import Tuple

import numpy as np

from . import experiments
from .config import ConfigError, RunConfig, format_value, make_config
from .linalg import LinAlgFailure, one_blas_thread

_FLOAT_FMT = "%.16e"  # 17 significant digits


# The block formatter.  A cell is one 25-byte record "-d.dddddddddddddddde+HEE,"
# whose NUL bytes (the sign of x >= 0, the hundreds digit of |E| < 100, the
# padding of a %-formatted cell) are dropped.  It writes the digits of
# D = round(|x| 10**(16 - E)) for E = floor(log10 |x|) wherever |x| 10**(16 - E)
# is known exactly enough to round: 1e-250 <= |x| < 1e250, and the product,
# taken as a double-double, at least 1e-9 from a rounding tie.
_E_MAX = 251  # the exponents E of the power table, -_E_MAX..._E_MAX
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter
_BLOCK_CELLS = 1 << 13  # cells per formatted block: its temporaries stay in cache


def _split(a):
    """(hi, lo) with hi + lo = a and 26-bit halves, so that their products are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(p: int):
    """10**p as (hi, lo): hi correctly rounded, lo the rounded rest, from exact ints."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


_P10_HI, _P10_LO = np.array([_pow10(16 - e) for e in range(-_E_MAX, _E_MAX + 1)]).T
_P10 = (*_split(_P10_HI), _P10_LO)  # at E + _E_MAX: 10**(16 - E) as two halves and a rest
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_EXPONENTS = np.frombuffer(b"".join((b"-" if e < 0 else b"+") + (b"%02d" % abs(e)).rjust(3, b"\0")
                                    for e in range(-_E_MAX, _E_MAX + 1)), np.uint32)
_RECORD = np.dtype({"names": ["sign", "lead", "pairs", "exponent"],
                    "formats": ["u1", "u1", ("u2", 8), "u4"],
                    "offsets": [0, 1, 3, 20], "itemsize": 25})


def _format_block(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, cols) float64 block, byte for byte those of
    _FLOAT_FMT % x per cell.  Cells whose digits cannot be certified, nan,
    inf and |x| outside [1e-250, 1e250) among them, are %-formatted on their
    own."""
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    in_range = (a >= 1e-250) & (a < 1e250)
    np.copyto(a, 1.0, where=~in_range)  # zero included: its cell is written below
    e = np.floor(np.log10(a)).astype(np.int64)
    p_hi, p_mid, p_lo = (t.take(e + _E_MAX) for t in _P10)
    y = a * (p_hi + p_mid)  # |x| 10**(16 - E) = y + err, exactly up to a * p_lo's rounding
    a_hi, a_lo = _split(a)
    err = (((a_hi * p_hi - y) + a_hi * p_mid + a_lo * p_hi) + a_lo * p_mid) + a * p_lo
    r = np.rint(err)
    d = y.astype(np.int64) + r.astype(np.int64)  # y >= 2**53 is a whole number
    v = err - r  # |x| 10**(16 - E) - d, to about 1e-15, and exactly where p_lo == 0
    # d must be a rounding of |x| 10**(16 - E) in [10**16, 10**17]: log10 can
    # round E up for an |x| just below a power of ten
    floor_ok = (d > 10 ** 16) | (d == 10 ** 16) & ((v > 1e-9) | (v == 0) & (p_lo == 0))
    fast = (np.abs(v) < 0.5 - 1e-9) & floor_ok & (d <= 10 ** 17) & in_range | zero
    carry = d == 10 ** 17  # 9.99...95eE is written 1.00...0e(E+1)
    d[carry] = 10 ** 16
    e += carry
    d[zero] = 0
    e[zero] = 0
    text = np.empty((rows, cols * 25), np.uint8)
    text[...] = np.frombuffer((b"-0.0000000000000000e+000," * cols)[:-1] + b"\n", np.uint8)
    rec = text.view(_RECORD).reshape(-1)
    rec["sign"] = np.signbit(x) * np.uint8(ord("-"))
    head = d // 10 ** 8
    lead = head // 10 ** 8
    rec["lead"] = lead + ord("0")
    for first, part in ((0, head - lead * 10 ** 8), (4, d - head * 10 ** 8)):
        part = part.astype(np.uint32)
        for k in range(first + 3, first - 1, -1):
            quot = part // 100
            rec["pairs"][:, k] = _PAIRS[part - quot * 100]
            part = quot
    rec["exponent"] = _EXPONENTS[e + _E_MAX]
    slow = np.flatnonzero(~fast)
    if slow.size:  # one %-format for them all, split into NUL-padded fields
        cells = ((_FLOAT_FMT + ",") * slow.size % tuple(x[slow].tolist())).encode().split(b",")
        text.reshape(-1, 25)[slow, :24] = np.array(cells[:-1], "S24").view(np.uint8).reshape(-1, 24)
    return text[text != 0].tobytes()


def _is_block(rows) -> bool:
    return (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] > 0
            and rows.dtype == np.float64)


def write_csv(path: str, config: RunConfig, command: str, header, rows):
    """Write the CSV atomically: a temporary file next to `path`, renamed
    over it only once every row is written.  `rows` is a 2-D float64 array
    or an iterable, a generator included, of rows (sequences) and of such
    arrays, which are formatted as row blocks."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            lines = [f"# command={command}"] + [f"# {key}={value}" for key, value in config.as_items()]
            fh.write("".join(line + "\n" for line in lines + [",".join(header)]).encode())
            for item in [rows] if _is_block(rows) else rows:
                if _is_block(item):
                    step = max(1, _BLOCK_CELLS // item.shape[1])
                    for i in range(0, len(item), step):
                        fh.write(_format_block(item[i:i + step]))
                else:
                    fh.write((",".join(_FLOAT_FMT % v if isinstance(v, float) else str(v)
                                       for v in item) + "\n").encode())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


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
    "solve": ("write trajectory.csv and energy.csv",
              lambda config: experiments.solve_tables(config)),
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
    # optional, so that a command swallowed by a list flag fails as its value;
    # main checks it after the unknown flags
    parser.add_argument("command", nargs="?", metavar="COMMAND",
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
                         help=f"default: {format_value(f.default) or '(empty)'}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # unknown arguments before the command: argparse cannot know whether an
    # unknown flag takes a value, so in `--bogus 0 singvals` it reads 0 as
    # the command and singvals as an unknown argument
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command not in (None, *_COMMANDS):
        parser.error(f"argument COMMAND: invalid choice: {args.command!r} "
                     f"(choose from {', '.join(map(repr, _COMMANDS))})")
    try:
        config = make_config(args.config, {f.name: getattr(args, f.name) for f in fields(RunConfig)})
        if args.command is None:
            parser.error("the following arguments are required: COMMAND")
        # overflow, an invalid operation and division by zero fail the run
        # rather than write nan rows; underflow does not, as the series'
        # exponentials decay to 0 by design.  One BLAS thread makes the bytes
        # independent of OPENBLAS_NUM_THREADS; the pin holds for the command
        # only, not from import on, so a library caller keeps its own setting
        with np.errstate(over="raise", invalid="raise", divide="raise"), one_blas_thread():
            for name, (header, rows) in _COMMANDS[args.command][1](config):
                path = os.path.join(config.output_dir, name)
                print(write_csv(path, config, args.command, header, rows))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except (LinAlgFailure, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
