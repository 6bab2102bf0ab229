"""Exception types shared across the package, and the three input checks that raise one.

Every failure caused by a model input is a DomainError: a configuration
error (ConfigError), a scenario whose cascade moments overflow the Gamma fit, an
SNR scale outside the double range.  ``_require_count`` checks an integer count,
``_require_finite`` a real input that must be finite and positive (or non-negative),
and ``_in_double_range`` a quantity computed from inputs that must stay finite;
each names what it checks.
"""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A subdivision budget ran out before the requested tolerance was met.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message: str, value: float, err_est: float):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class ConfigError(DomainError):
    """A scenario file or swept value, both model inputs, could not be parsed or validated.

    ``key`` and ``line`` locate the offending entry when known.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = [f"key {key!r}"] if key is not None else []
        where += [f"line {line}"] if line is not None else []
        super().__init__(message + (f" ({', '.join(where)})" if where else ""))
        self.key = key
        self.line = line


def _require_count(name: str, value, minimum: int = 1) -> int:
    """``value`` when it is an int (a bool is not) >= ``minimum``, else a DomainError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _require_finite(name: str, value: float, allow_zero: bool = False) -> float:
    """``value`` when it is finite and > 0 (>= 0 if ``allow_zero``), else a DomainError naming ``name``."""
    if math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0):
        return value
    raise DomainError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {value!r}")


def _in_double_range(name: str, compute, *args) -> float:
    """``compute(*args)`` if finite, else a DomainError naming ``name``; OverflowError and
    ZeroDivisionError count as an overflow."""
    try:
        value = compute(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows the double range")
    return value
