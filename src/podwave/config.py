"""Run configuration: a flat key=value file with command-line overrides.

Every experiment is fully determined by a RunConfig, the inputs of every
subcommand included; each starts from zero initial velocity.  A RunConfig
is valid by construction: its fields are checked as it is made, a
`dataclasses.replace` copy included, and an invalid one raises ConfigError.
Every field value is made once, as the config is built, by one rule for
the config file's text, the command-line flags and Python values alike: an
int field stores an int, a float field a finite float, and a fraction such
as 1/800 is text for a float only.  So equal configs write equal CSV
headers, which embed the configuration: a file made of their `# key=value`
lines (less `command`) reruns the same table.  Tuples are written comma
separated; output_dir's default, the empty value, is the current directory.
"""

import math
import numbers
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields
from typing import Optional, Tuple, get_args, get_origin

from .pod import METHODS
from .wave import INITIAL_CONDITIONS, TimeGrid, WaveParams


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    n_elements: int = 400
    dt: float = 1.0 / 800.0
    T: float = 10.0
    c: float = 1.0
    D: float = 0.0
    G: float = 0.0
    pod_method: str = "standard"
    r_list: Tuple[int, ...] = (10, 20, 40, 60)
    output_dir: str = ""  # "": the current directory
    u0: str = "default"  # the initial velocity is zero
    stride: int = 1
    param: str = ""  # rom-sweep's swept coefficient; "": G if only G > 0, else D
    values: Tuple[float, ...] = ()  # rom-sweep's values; (): the config's own
    times: Tuple[float, ...] = (0.0, 5.0, 10.0)  # profiles
    t_train: Tuple[float, ...] = (10.0, 5.0, 1.0, 0.5)  # train-interval's windows
    dt_list: Tuple[float, ...] = (0.01, 0.005, 0.0025)  # convergence

    def __post_init__(self):
        for f in fields(self):  # each value made the field's type, once
            object.__setattr__(self, f.name, _field_value(f.name, f.type, getattr(self, f.name)))
        if self.n_elements < 2:
            raise ConfigError("n_elements must be at least 2")
        try:  # the time grid's and the equation's own rules
            self.time_grid()
            self.wave_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.pod_method not in METHODS:
            raise ConfigError(f"pod_method must be one of {METHODS}")
        if self.u0 not in INITIAL_CONDITIONS:
            raise ConfigError(f"u0 must be one of {tuple(INITIAL_CONDITIONS)}")
        if not self.r_list or any(r < 1 for r in self.r_list):
            raise ConfigError("r_list must be nonempty positive integers")
        for name in ("times", "t_train", "dt_list"):  # values may be empty
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if self.param not in ("", "D", "G"):
            raise ConfigError(f"param must be D or G, got {self.param!r}")

    def time_grid(self) -> TimeGrid:
        return TimeGrid.from_dt(self.T, self.dt)

    def wave_params(self) -> WaveParams:
        return WaveParams(c=self.c, D=self.D, G=self.G)

    def as_items(self):
        """Sorted (key, text) pairs for reproducibility headers, each text
        parsed back to the value by the config file's rules."""
        return sorted((f.name, format_value(getattr(self, f.name))) for f in fields(self))


def format_value(value) -> str:
    """The config-file text of a field value: a tuple comma separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _field_value(name: str, kind, value):
    """The value stored in field `name` of type kind, made from `value`.

    Text is stripped and read by the config file's rules.  A tuple's text,
    and each word of a list or tuple of words, is comma separated, so
    argparse's words of a list flag read as their comma-joined text.  A
    float is any finite real, in text also a fraction such as 1/800; an int
    is any integral number.  Anything else raises ConfigError."""
    if get_origin(kind) is tuple:
        words = value if isinstance(value, Iterable) and not isinstance(value, str) else [value]
        parts = [w.replace(" ", "").split(",") if isinstance(w, str) else [w] for w in words]
        return tuple(_field_value(name, get_args(kind)[0], p) for ps in parts for p in ps
                     if not isinstance(p, str) or p)
    text = isinstance(value, str)
    value = value.strip() if text else value
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        if text and kind is float:  # only a float's text may be a fraction
            num, _, den = value.partition("/")
            made = float(num) / float(den) if den else float(value)
        elif text or real and kind is float or real and kind is int and value == int(value):
            made = kind(value)
        else:
            raise ValueError(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        what = {int: "integer", float: "number"}.get(kind, "text")
        raise ConfigError(f"bad {what} for {name}: {value!r}") from exc
    if kind is float and not math.isfinite(made):
        raise ConfigError(f"{name} must be finite, got {made}")
    return made


def load_config(path: str) -> dict:
    """Read a flat key=value file into a dict of each key's value text.

    A line whose first non-blank character is # is a comment, and so is the
    rest of a line from a # after a blank; any other # is part of a value,
    so that a CSV header replays output_dir=out/run#1 whole."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = re.split(r"\s#", raw.strip(), maxsplit=1)[0].strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in {f.name for f in fields(RunConfig)}:
                    raise ConfigError(f"unknown config key {key!r}")
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def make_config(file_path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Config file values first, then the overrides that are not None."""
    values = load_config(file_path) if file_path else {}
    values.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    return RunConfig(**values)
