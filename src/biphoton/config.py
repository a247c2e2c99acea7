"""Config-file parsing for the CLI: a sectioned key=value format (INI
dialect via configparser) with unit-suffixed keys, strict unknown-key
rejection, defaults echoed back by dump_config, and bundled example files.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field
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


# (section, key) -> attribute path; values are converter functions applied
# to the raw string, producing SI quantities.  Unit-suffixed keys are the
# human-friendly input form; the *_m/_rad/_s keys are the exact SI spellings
# that dump_config emits so that resolved configs round-trip bit-for-bit.
_SCHEMA = {
    ("crystal", "sellmeier_o"): ("crystal.sellmeier_ordinary", _floats),
    ("crystal", "sellmeier_e"): ("crystal.sellmeier_extraordinary", _floats),
    ("crystal", "length_mm"): ("crystal.length_lc", lambda s: float(s) * 1e-3),
    ("crystal", "length_m"): ("crystal.length_lc", float),
    ("crystal", "tuning_angle_deg"): ("crystal.tuning_angle", lambda s: math.radians(float(s))),
    ("crystal", "tuning_angle_rad"): ("crystal.tuning_angle", float),
    ("crystal", "pump_wavelength_nm"): ("crystal.pump_wavelength", lambda s: float(s) * 1e-9),
    ("crystal", "pump_wavelength_m"): ("crystal.pump_wavelength", float),
    ("crystal", "window_um"): ("crystal.window", lambda s: tuple(v * 1e-6 for v in _floats(s))),
    ("crystal", "window_m"): ("crystal.window", _floats),
    ("crystal", "pump_walkoff_phase"): ("crystal.pump_walkoff_phase", lambda s: s.lower() in ("1", "true", "yes", "on")),
    ("pump", "coupling_g"): ("pump.coupling_g", float),
    ("pump", "waist_um"): ("pump.waist", lambda s: float(s) * 1e-6),
    ("pump", "waist_m"): ("pump.waist", float),
    ("pump", "duration_fs"): ("pump.duration", lambda s: float(s) * 1e-15),
    ("pump", "duration_s"): ("pump.duration", float),
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


def dump_config(rc: RunConfig) -> str:
    """Render a RunConfig back to config-file text with every field explicit.

    parse_config(dump_config(parse_config(f))) round-trips exactly.
    """
    c, p, g, f, m = rc.crystal, rc.pump, rc.grid, rc.filter, rc.mc

    def fmt_seq(seq):
        return ", ".join(repr(float(v)) for v in seq)

    lines = [
        "[crystal]",
        f"sellmeier_o = {fmt_seq(c.sellmeier_ordinary)}",
        f"sellmeier_e = {fmt_seq(c.sellmeier_extraordinary)}",
        f"length_m = {c.length_lc!r}",
        f"tuning_angle_rad = {c.tuning_angle!r}",
        f"pump_wavelength_m = {c.pump_wavelength!r}",
        f"window_m = {fmt_seq(c.window)}",
        f"pump_walkoff_phase = {'true' if c.pump_walkoff_phase else 'false'}",
        "",
        "[pump]",
        f"coupling_g = {p.coupling_g!r}",
        f"waist_m = {p.waist!r}",
        f"duration_s = {p.duration!r}",
        "",
        "[grid]",
        f"n_q = {g.n_q}",
        f"n_omega = {g.n_omega}",
        f"omega_extent = {g.omega_extent!r}",
        f"q_extent = {'auto' if g.q_extent is None else repr(g.q_extent)}",
        f"mode = {g.mode}",
        "",
        "[filter]",
        f"q_max = {f.q_max!r}",
        f"omega_max = {f.omega_max!r}",
        f"omega_max_list = {fmt_seq(f.omega_max_list)}",
        "",
        "[mc]",
        f"n_norm = {m.n_norm}",
        f"n_purity = {m.n_purity}",
        f"seed = {m.seed}",
        f"sampler = {m.sampler}",
        f"batch = {m.batch}",
        "",
        "[output]",
        f"dir = {rc.output_dir}",
        "",
    ]
    return "\n".join(lines)


def config_snapshot(rc: RunConfig) -> dict:
    """JSON-ready dict of the resolved configuration."""
    snap = asdict(rc)
    return snap


def builtin_config_path(name: str) -> Path:
    """Filesystem path of a bundled config (bbo_collinear / bbo_noncollinear)."""
    res = resources.files("biphoton").joinpath("configs", f"{name}.cfg")
    with resources.as_file(res) as p:
        return Path(p)
