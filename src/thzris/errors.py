"""Exception types shared across the package.

Every failure caused by a model input, including a scenario that has no
Gamma fit or whose SNR scale leaves the double range, is a DomainError.
"""


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
