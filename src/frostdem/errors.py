"""Exception hierarchy shared across the package."""


class FrostDemError(Exception):
    """Base class for all package errors."""


class InvalidConfigError(FrostDemError):
    """A configuration value violates its documented constraints."""


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
    """A data input file is malformed.

    Carries the offending 1-based line number when known.
    """

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        if prefix:
            message = f"{prefix}: {message}"
        super().__init__(message)
