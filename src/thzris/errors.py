"""Exception types shared across the package, the three input checks that raise one, and
the immutable record base every parameter and result class derives from.

Every failure caused by a model input is a DomainError: a configuration
error (ConfigError), a scenario whose cascade moments overflow the Gamma fit, an
SNR scale outside the double range.  ``_require_count`` checks an integer count,
``_require_finite`` a real input that must be finite and positive (or non-negative),
and ``_in_double_range`` a quantity computed from inputs that must stay finite;
each names what it checks.

``_Record`` gives each parameter and result class the immutability, equality, hash
and repr of a frozen dataclass without importing the dataclass module, whose
``inspect`` import slows the start of every process.
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


class _Record:
    """Immutable record.  A subclass ``__init__`` validates its arguments and passes them,
    and any values derived from them, to ``_Record.__init__`` by keyword; equality, hash
    and repr read the stored attributes in that order."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built, and so checked, by ``__init__`` again."""
        code = type(self).__init__.__code__
        kept = {name: getattr(self, name) for name in code.co_varnames[1 : code.co_argcount]}
        return type(self)(**{**kept, **changes})
