"""Flat sectioned key=value experiment configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, no
nesting.  A key is given at most once in its section, a repeated header
adding to the section it repeats.  A key that is present must hold a
value.  The typed accessors name the offending ``section.key`` on failure,
and a file may hold only the keys of :data:`KEYS`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidConfigError
from .packing import PackingConfig

#: Every key some command reads, by section.  A config file with any other
#: section or key is a config error, so a misspelled key cannot fall back to
#: its default unseen.
KEYS = {
    "run": ("seed", "out_dir"),
    "packing": ("target_porosity", "rock_radius_min", "rock_radius_max",
                "water_radius_min", "water_radius_max", "cylinder_radius",
                "cylinder_height", "rock_density", "water_density",
                "solid_fraction"),
    "thermal": ("start_temp", "stage_temps", "target_temp", "water_prestress",
                "freeze_volume_jump", "substep_dt_max"),
    "mechanics": ("platen_velocity", "target_strain", "calibrate_peak",
                  "calibrate_modulus", "calibration_budget", "load_particles"),
    "analysis": ("waveform", "energy_mode", "static_strength", "spectrum",
                 "spectrum_baseline_area", "t2_areas", "t2_baseline_area",
                 "points", "rdif_points"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise InvalidConfigError(f"{source}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise InvalidConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise InvalidConfigError(
                f"{source}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current:
            raise InvalidConfigError(
                f"{source}:{lineno}: [{name}] {key} is given twice")
        current[key] = value.strip()
    return sections


class Section:
    """Typed view over one config section."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def get_str(self, key: str, default: str | None = None) -> str | None:
        value = self.values.get(key, default)
        # an empty value would read as 'not set' and fall back unseen
        if value == "":
            raise InvalidConfigError(
                f"[{self.name}] {key} is empty: give a value or leave the key out")
        return value

    def get_float(self, key: str, default: float | None = None,
                  required: bool = False) -> float | None:
        raw = self.values.get(key)
        if raw is None:
            if required:
                raise InvalidConfigError(
                    f"[{self.name}] missing required key {key!r}")
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidConfigError(
                f"[{self.name}] {key} must be a finite number, got {raw!r}")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise InvalidConfigError(
                f"[{self.name}] {key} must be an integer, got {raw!r}") from None

    def get_float_list(self, key: str) -> list[float] | None:
        raw = self.values.get(key)
        if raw is None:
            return None
        try:
            values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            values = [math.nan]
        # a key that lists nothing would silently fall back to the default
        if not values or not all(map(math.isfinite, values)):
            raise InvalidConfigError(
                f"[{self.name}] {key} must be comma-separated finite numbers, "
                f"got {raw!r}")
        return values


@dataclass
class ExperimentConfig:
    """Parsed experiment file plus run-level seed and output directory."""

    sections: dict[str, dict[str, str]]
    source: str = "<config>"

    @classmethod
    def from_path(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise InvalidConfigError(f"config file not found: {path}")
        sections = parse_config_text(path.read_text(), str(path))
        for name, values in sections.items():
            if name not in KEYS:
                raise InvalidConfigError(f"{path}: no command reads [{name}]")
            for key in values:
                if key not in KEYS[name]:
                    raise InvalidConfigError(
                        f"{path}: no command reads [{name}] {key}")
        return cls(sections, str(path))

    def section(self, name: str, required: bool = True) -> Section:
        if name not in self.sections:
            if required:
                raise InvalidConfigError(
                    f"{self.source}: missing required section [{name}]")
            return Section(name, {})
        return Section(name, self.sections[name])

    @property
    def seed(self) -> int:
        seed = self.section("run", required=False).get_int("seed", 0)
        if seed < 0:
            raise InvalidConfigError(f"[run] seed must be >= 0, got {seed}")
        return seed

    @property
    def out_dir(self) -> str | None:
        return self.section("run", required=False).get_str("out_dir")

    def packing_config(self, seed: int) -> PackingConfig:
        s = self.section("packing")
        # keys the file leaves out take PackingConfig's defaults
        optional = {key: s.get_float(key)
                    for key in ("rock_density", "water_density", "solid_fraction")
                    if key in s.values}
        return PackingConfig(
            target_porosity=s.get_float("target_porosity", required=True),
            rock_radius_min=s.get_float("rock_radius_min", required=True),
            rock_radius_max=s.get_float("rock_radius_max", required=True),
            water_radius_min=s.get_float("water_radius_min", 0.8),
            water_radius_max=s.get_float("water_radius_max", 0.95),
            cylinder_radius=s.get_float("cylinder_radius", required=True),
            cylinder_height=s.get_float("cylinder_height", required=True),
            rng_seed=seed,
            **optional,
        )
