"""Exception types shared across the package, and the rule for numbers in configs."""

import math


class MatconcError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(MatconcError):
    """Operands have incompatible shapes."""


class DomainError(MatconcError):
    """Input lies outside the mathematical domain of the operation."""


class ParamMismatch(MatconcError):
    """A parameter set does not match what the chosen family requires."""


class GammaOutOfRange(MatconcError):
    """A tuning scalar lies outside its admissible open interval."""


class PreconditionFailed(MatconcError):
    """A documented precondition of the operation does not hold."""


class ConfigError(MatconcError):
    """A run configuration is malformed or inconsistent."""


class IncompatiblePair(ConfigError):
    """The requested bound/generator combination is not registered."""


class AssumptionViolated(UserWarning):
    """A distributional assumption looks violated; reported, not fatal."""


def config_number(raw, name: str, kind=float):
    """``raw`` as a finite float, or as an int for ``kind=int``; a ConfigError
    naming ``name`` otherwise.

    A boolean or a string is not a number, and an ``int`` field takes only
    integral values (``2`` or ``2.0``, not ``2.7``).
    """
    try:
        val = math.nan if isinstance(raw, (bool, str)) else float(raw)
    except (TypeError, ValueError, OverflowError):
        val = math.nan
    if not math.isfinite(val):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    if kind is not int:
        return val
    if val != math.floor(val):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    return int(raw)
