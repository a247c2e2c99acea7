"""Config-file parsing for the CLI: a sectioned key=value format (INI
dialect via configparser) with unit-suffixed keys, strict unknown-key
rejection, defaults echoed back by dump_config, and bundled example files.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .correlation import PumpConfig
from .dispersion import (
    KATO_BBO_EXTRAORDINARY,
    KATO_BBO_ORDINARY,
    CrystalConfig,
)
from .schmidt import MIN_NORM_SAMPLES, MIN_PURITY_SAMPLES


class ConfigError(ValueError):
    """Config file problem, carrying file location context."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class GridParams:
    """Correlation-map grid controls ([grid] section)."""

    n_q: int = 1024
    n_omega: int = 1024
    omega_extent: float = 3.0e14  # rad/s
    q_extent: Optional[float] = None  # rad/m; None = auto from the curve
    mode: str = "slice2d"

    def __post_init__(self):
        for name in ("n_q", "n_omega"):
            v = getattr(self, name)
            if v < 2 or v % 2:
                raise ConfigError(f"{name} must be even and >= 2, got {v}")
        if not self.omega_extent > 0:
            raise ConfigError(f"omega_extent must be > 0, got {self.omega_extent}")
        if self.q_extent is not None and not self.q_extent > 0:
            raise ConfigError(f"q_extent must be > 0, got {self.q_extent}")
        if self.mode not in ("slice2d", "full3d"):
            raise ConfigError(f"mode must be slice2d or full3d, got {self.mode!r}")


@dataclass(frozen=True)
class FilterParams:
    """Detection-box controls for Schmidt estimates ([filter] section)."""

    q_max: float = 1.2e6  # rad/m
    omega_max: float = 3.0e14  # rad/s
    omega_max_list: tuple = (
        2.5e13, 5.0e13, 1.0e14, 1.5e14, 2.25e14, 3.0e14, 4.5e14, 6.0e14,
    )

    def __post_init__(self):
        if not self.q_max > 0:
            raise ConfigError(f"q_max must be > 0, got {self.q_max}")
        if not self.omega_max > 0:
            raise ConfigError(f"omega_max must be > 0, got {self.omega_max}")
        lst = tuple(float(v) for v in self.omega_max_list)
        object.__setattr__(self, "omega_max_list", lst)
        if list(lst) != sorted(lst) or any(v <= 0 for v in lst):
            raise ConfigError("omega_max_list must be positive and ascending")


@dataclass(frozen=True)
class McParams:
    """Monte Carlo controls ([mc] section)."""

    n_norm: int = 2_000_000
    n_purity: int = 10_000_000
    seed: int = 12345
    sampler: str = "pump"
    batch: int = 1 << 19

    def __post_init__(self):
        if self.sampler not in ("pump", "uniform"):
            raise ConfigError(f"sampler must be pump or uniform, got {self.sampler!r}")
        for name, least in (("n_norm", MIN_NORM_SAMPLES),
                            ("n_purity", MIN_PURITY_SAMPLES), ("batch", 1)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    crystal: CrystalConfig = field(default_factory=CrystalConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    grid: GridParams = field(default_factory=GridParams)
    filter: FilterParams = field(default_factory=FilterParams)
    mc: McParams = field(default_factory=McParams)
    output_dir: str = "out"


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _flag(text):
    return text.strip().lower() in ("1", "true", "yes", "on")


# (section, key) -> (attribute path, converter from the raw string to SI).
# The first key listed for an attribute is its exact SI spelling: the one
# config_snapshot and dump_config write, so that a resolved config
# round-trips bit-for-bit.  The unit-suffixed keys after it are input
# aliases.
_SCHEMA = {
    ("crystal", "sellmeier_o"): ("crystal.sellmeier_ordinary", _floats),
    ("crystal", "sellmeier_e"): ("crystal.sellmeier_extraordinary", _floats),
    ("crystal", "length_m"): ("crystal.length_lc", float),
    ("crystal", "length_mm"): ("crystal.length_lc", lambda s: float(s) * 1e-3),
    ("crystal", "tuning_angle_rad"): ("crystal.tuning_angle", float),
    ("crystal", "tuning_angle_deg"): ("crystal.tuning_angle", lambda s: math.radians(float(s))),
    ("crystal", "pump_wavelength_m"): ("crystal.pump_wavelength", float),
    ("crystal", "pump_wavelength_nm"): ("crystal.pump_wavelength", lambda s: float(s) * 1e-9),
    ("crystal", "window_m"): ("crystal.window", _floats),
    ("crystal", "window_um"): ("crystal.window", lambda s: tuple(v * 1e-6 for v in _floats(s))),
    ("crystal", "pump_walkoff_phase"): ("crystal.pump_walkoff_phase", _flag),
    ("pump", "coupling_g"): ("pump.coupling_g", float),
    ("pump", "waist_m"): ("pump.waist", float),
    ("pump", "waist_um"): ("pump.waist", lambda s: float(s) * 1e-6),
    ("pump", "duration_s"): ("pump.duration", float),
    ("pump", "duration_fs"): ("pump.duration", lambda s: float(s) * 1e-15),
    ("grid", "n_q"): ("grid.n_q", int),
    ("grid", "n_omega"): ("grid.n_omega", int),
    ("grid", "omega_extent"): ("grid.omega_extent", float),
    ("grid", "q_extent"): ("grid.q_extent", lambda s: None if s.strip().lower() == "auto" else float(s)),
    ("grid", "mode"): ("grid.mode", str.strip),
    ("filter", "q_max"): ("filter.q_max", float),
    ("filter", "omega_max"): ("filter.omega_max", float),
    ("filter", "omega_max_list"): ("filter.omega_max_list", _floats),
    ("mc", "n_norm"): ("mc.n_norm", lambda s: int(float(s))),
    ("mc", "n_purity"): ("mc.n_purity", lambda s: int(float(s))),
    ("mc", "seed"): ("mc.seed", lambda s: int(s)),
    ("mc", "sampler"): ("mc.sampler", str.strip),
    ("mc", "batch"): ("mc.batch", lambda s: int(float(s))),
    ("output", "dir"): ("output_dir", str.strip),
}


def parse_config(path) -> RunConfig:
    """Read and validate a config file into a fully resolved RunConfig.

    Unknown sections or keys are rejected with their location; parse errors
    keep configparser's line information; field validation names the field
    and the violated constraint.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}", location=str(path)) from exc

    values = {}
    sources = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(
                    f"unknown key [{section}] {key}", location=str(path)
                )
            attr, conv = _SCHEMA[(section, key)]
            if attr in sources:
                raise ConfigError(
                    f"[{section}] {key} duplicates {sources[attr]} "
                    f"(both set the same field)",
                    location=str(path),
                )
            sources[attr] = f"[{section}] {key}"
            try:
                values[attr] = conv(raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})",
                    location=str(path),
                ) from exc

    def build(cls, prefix, **extra):
        kw = {
            attr.split(".", 1)[1]: v
            for attr, v in values.items()
            if attr.startswith(prefix + ".")
        }
        kw.update(extra)
        try:
            return cls(**kw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), location=str(path)) from exc

    return RunConfig(
        crystal=build(CrystalConfig, "crystal"),
        pump=build(PumpConfig, "pump"),
        grid=build(GridParams, "grid"),
        filter=build(FilterParams, "filter"),
        mc=build(McParams, "mc"),
        output_dir=values.get("output_dir", "out"),
    )


def config_snapshot(rc: RunConfig) -> dict:
    """{section: {key: value}} of every field under its SI key, in file
    order: JSON-ready, and the text dump_config writes.
    Sequences become lists and an auto q_extent reads "auto"."""
    snap, written = {}, set()
    for (section, key), (attr, _) in _SCHEMA.items():
        if attr in written:
            continue
        written.add(attr)
        value = rc
        for name in attr.split("."):
            value = getattr(value, name)
        if isinstance(value, tuple):
            value = [float(v) for v in value]
        snap.setdefault(section, {})[key] = "auto" if value is None else value
    return snap


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def dump_config(rc: RunConfig) -> str:
    """Render a RunConfig back to config-file text with every field explicit.

    parse_config(dump_config(parse_config(f))) round-trips exactly.
    """
    return "\n".join(
        f"[{section}]\n" + "".join(f"{k} = {_text(v)}\n" for k, v in keys.items())
        for section, keys in config_snapshot(rc).items()
    )


def builtin_config_path(name: str) -> Path:
    """Filesystem path of a bundled config (bbo_collinear / bbo_noncollinear)."""
    res = resources.files("biphoton").joinpath("configs", f"{name}.cfg")
    with resources.as_file(res) as p:
        return Path(p)
