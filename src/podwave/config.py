"""Run configuration: a flat key=value file with command-line overrides.

Every experiment is fully determined by a RunConfig, the inputs of every
subcommand included; each starts from zero initial velocity.  A RunConfig
is valid by construction: its fields are checked as it is made, a
`dataclasses.replace` copy included, and an invalid one raises ConfigError.
Emitted CSV files embed the configuration, and a file made of their
`# key=value` lines (less `command`) reruns the same table.  Tuples are
written comma separated; output_dir's default, the empty value, is the
current directory.
"""

import math
import re
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
        for f in fields(self):  # every float, also each of a list
            value = getattr(self, f.name)
            for v in value if get_origin(f.type) is tuple else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v}")
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
        if not self.r_list or any(int(r) < 1 for r in self.r_list):
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
        return sorted((f.name, format_value(f.type, getattr(self, f.name)))
                      for f in fields(self))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def format_value(kind, value) -> str:
    """The config-file text of a value of a field of type kind."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return ",".join(str(item(v)) for v in value)
    return str(value)


def _parse_value(name: str, text: str):
    """Parse text as the RunConfig field `name`, by the field's type."""
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    kind, text = _FIELD_TYPES[name], text.strip()
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_parse_scalar(name, item, p) for p in text.replace(" ", "").split(",") if p)
    return _parse_scalar(name, kind, text)


def _parse_scalar(name: str, kind, text: str):
    """text as one value of type kind; a float may be a fraction such as 1/800."""
    try:
        if kind is int:
            return int(text)
        if kind is float:
            num, _, den = text.partition("/")
            return float(num) / float(den) if den else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        what = "integer" if kind is int else "number"
        raise ConfigError(f"bad {what} for {name}: {text!r}") from exc
    return text


def load_config(path: str) -> dict:
    """Read a flat key=value file into a dict of parsed values.

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
                out[key] = _parse_value(key, value)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def make_config(file_path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Config file values first, then explicit overrides."""
    values = {}
    if file_path:
        values.update(load_config(file_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if isinstance(val, list):  # the words of a list flag
            val = ",".join(map(str, val))
        values[key] = _parse_value(key, val) if isinstance(val, str) else val
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
