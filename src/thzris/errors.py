"""Exception types shared across the package, and the two input checks that raise one.

Every failure caused by a model input, including a scenario that has no
Gamma fit or whose SNR scale leaves the double range, is a DomainError.
``_require_count`` checks an integer count and ``_require_finite`` a real
input that must be finite and positive (or non-negative); each names the
input in its message.
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


class NegativeVarianceError(DomainError):
    """A fourth-moment recipe produced a non-positive cascade-power variance.

    Raised by the literal closed-form recipe, which understates the fourth
    moment for every element count.  The offending value is kept so the
    failure can be reported quantitatively.
    """

    def __init__(self, message: str, var_chi: float, num_elements: int, mode):
        super().__init__(message)
        self.var_chi = var_chi
        self.num_elements = num_elements
        self.mode = mode


class ConfigError(ValueError):
    """A scenario file could not be parsed or validated.

    ``key`` and ``line`` locate the offending entry when known.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
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
