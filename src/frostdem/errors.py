"""Exception hierarchy shared across the package, and the finiteness check
every configuration object runs."""

import math


class FrostDemError(Exception):
    """Base class for all package errors."""


class InvalidConfigError(FrostDemError):
    """A configuration value violates its documented constraints."""


def require_finite(**values: float) -> None:
    """Raise :class:`InvalidConfigError` naming the first value that is not a
    finite number.  Range checks written with ``<`` and ``<=`` let a NaN
    through, so each configuration object runs this before them."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")


class PackingInfeasibleError(FrostDemError):
    """Sphere placement could not satisfy the overlap tolerance."""


class StabilityError(FrostDemError):
    """An explicit time step exceeds its stability limit."""


class ConvergenceError(StabilityError):
    """An iteration hit its step cap before reaching its tolerance."""


class NoLoadPathError(StabilityError):
    """A loading curve has no positive modulus: nothing carries the load."""


class UndefinedStatisticError(FrostDemError):
    """A requested statistic is undefined for the given input (e.g. zero baseline)."""


class CurveWindowError(FrostDemError):
    """A stress-strain curve does not span the required strain window."""


class InputParseError(FrostDemError):
    """A data input file is malformed at a 1-based line of it."""

    def __init__(self, message, line, path):
        self.line = line
        self.path = path
        super().__init__(f"{path}:{line}: {message}")
