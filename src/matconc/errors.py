"""Exception types shared across the package, and the rules for numbers and keys in configs."""

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


def config_step_size(raw, name: str) -> float:
    """``raw`` as a step size: a positive float whose square is finite, as
    the steps that square it need; a ConfigError naming ``name`` otherwise."""
    try:
        g = config_number(raw, name)
    except ConfigError:
        g = math.nan
    if not g > 0.0:
        raise ConfigError(f"{name} must be a positive finite number, got {raw!r}")
    if not math.isfinite(g * g):
        raise ConfigError(f"{name} must be small enough to square, got {raw!r}")
    return g


def config_keys(obj: dict, allowed, where: str) -> None:
    """A ConfigError naming the first key of ``obj`` that is not in ``allowed``."""
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown key {extra[0]!r}; expected one of {sorted(allowed)}")
