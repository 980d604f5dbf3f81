"""Flat sectioned key=value experiment configuration.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments, no
nesting.  A key is given at most once in its section, a repeated header
adding to the section it repeats.  A key that is present must hold a
value.  :meth:`ExperimentConfig.read` reads a section into its settings
type, parsing each key as the type's field annotates it; the type checks
every bound, and each error names the ``[section]``.  A file may hold only
the keys of :data:`KEYS`.
"""
from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .analysis import AnalysisConfig
from .errors import InvalidConfigError
from .frostheave import FreezeConfig
from .mechanics import LoadingConfig
from .packing import CylinderDomain, PackingConfig

#: The settings type of each section but [run]: its fields are the keys.
SECTIONS = {"packing": PackingConfig, "thermal": FreezeConfig,
            "mechanics": LoadingConfig, "analysis": AnalysisConfig}

#: Every key some command reads: each type's fields but the packing seed,
#: which is ``[run] seed``, and the keys no type holds.  Any other section or
#: key is a config error, so a misspelled key cannot fall back unseen.
KEYS = {"run": ("seed", "out_dir"),
        **{name: tuple(f.name for f in fields(cls) if f.name != "rng_seed")
           for name, cls in SECTIONS.items()}}
KEYS["mechanics"] += ("load_particles",)


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


# One parser per field type; ``where`` is the ``[section] key`` it reads

def _float(where: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InvalidConfigError(f"{where} must be a finite number, got {raw!r}")
    return value


def _int(where: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InvalidConfigError(
            f"{where} must be an integer, got {raw!r}") from None


def _str(where: str, raw: str) -> str:
    # an empty value would read as 'not set' and fall back unseen
    if raw == "":
        raise InvalidConfigError(
            f"{where} is empty: give a value or leave the key out")
    return raw


def _floats(where: str, raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        values = (math.nan,)
    # a key that lists nothing would silently fall back to the default
    if not values or not all(map(math.isfinite, values)):
        raise InvalidConfigError(
            f"{where} must be comma-separated finite numbers, got {raw!r}")
    return values


def _pairs(where: str, raw: str) -> tuple[tuple[float, float], ...]:
    try:
        pairs = tuple((float(r), float(v)) for r, v in
                      (item.split(":") for item in raw.split(",") if item))
    except ValueError:
        pairs = ()
    # a key that lists no pair, empty or not, is an error, not a skipped fit
    if not pairs:
        raise InvalidConfigError(f"{where} must look like '200:1.05,600:1.32'")
    if not all(math.isfinite(x) for pair in pairs for x in pair):
        raise InvalidConfigError(f"{where} must be finite numbers, got {raw!r}")
    return pairs


_PARSERS = {float: _float, int: _int, str: _str, tuple[float, ...]: _floats,
            tuple[tuple[float, float], ...]: _pairs}


def _unoptional(hint):
    """``T`` for a field annotated 'T | None'."""
    args = typing.get_args(hint)
    return args[0] if type(None) in args else hint


def _build(section: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, naming ``section`` in a config error."""
    try:
        return cls(*args, **kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"[{section}] {exc}") from None


@dataclass
class ExperimentConfig:
    """Parsed experiment file: its sections' raw values by key."""

    sections: dict[str, dict[str, str]]

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
        return cls(sections)

    def read(self, name: str, cls: type, **given):
        """``cls`` built from section ``name`` and the fields in ``given``:
        each other field is its key, or its default if the file leaves the
        key out."""
        # resolved at the first read, not at import
        hints = typing.get_type_hints(cls)
        settings = {f.name: self.value(name, f.name, _unoptional(hints[f.name]),
                                       f.default)
                    for f in fields(cls) if f.name not in given}
        return _build(name, cls, **settings, **given)

    def value(self, name: str, key: str, kind: type = str, default=None):
        """One key read as ``kind``, or ``default`` if the file leaves it
        out; a key whose default is ``MISSING`` is required."""
        raw = self.sections.get(name, {}).get(key)
        if raw is not None:
            return _PARSERS[kind](f"[{name}] {key}", raw)
        if default is MISSING:
            raise InvalidConfigError(f"[{name}] missing required key {key!r}")
        return default

    def cylinder(self) -> CylinderDomain:
        """The ``[packing]`` cylinder alone, for a specimen read from a file."""
        radius, height = (self.value("packing", key, float, MISSING)
                          for key in ("cylinder_radius", "cylinder_height"))
        return _build("packing", CylinderDomain, radius, height)
