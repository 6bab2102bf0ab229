"""Moments of the cascaded Rayleigh-product channel and its Gamma fit.

The random core of the SNR is chi = (sum_m |f_m| |g_m|)^2 where the
per-element magnitudes are independent Rayleigh with unit mean square
(E|f|^2 = 1; all large-scale effects live in the deterministic path gain).
chi is approximated by a Gamma distribution matched to its first two
moments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, FitError, NegativeVarianceError

# Moments of one Rayleigh product |f||g|; E|f|^k = Gamma(1 + k/2) under the
# unit-mean-square normalization, so the k-th product moment is its square.
_M1 = math.pi / 4.0
_M2 = 1.0
_M3 = (3.0 * math.sqrt(math.pi) / 4.0) ** 2  # = 9 pi / 16
_M4 = 4.0


class FourthMomentMode(enum.Enum):
    """Recipe for E{S^4}, the fourth moment of the amplitude sum S.

    EXACT is the i.i.d. multinomial expansion and the default.
    GAUSSIAN_SURROGATE applies the Gaussian moment identity
    mu^4 + 6 mu^2 v + 3 v^2, the natural large-M shortcut.
    LITERAL is the closed-form recipe mu^4 + mu^2 v + v^2 sometimes quoted
    for this quantity; it understates E{S^4} and always produces a negative
    chi variance, so it is kept only as a reproducible diagnostic.
    """

    EXACT = "exact"
    GAUSSIAN_SURROGATE = "gaussian_surrogate"
    LITERAL = "literal"


@dataclass(frozen=True)
class CascadeMoments:
    """First two moments of S = sum |f||g| and of chi = S^2."""

    mean_s: float
    var_s: float
    mean_chi: float
    var_chi: float
    mode: FourthMomentMode


@dataclass(frozen=True)
class GammaFit:
    """Gamma(shape, scale) approximation of chi; shape*scale matches the
    mean and shape*scale^2 the variance of the generating moments."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"shape must be finite and > 0, got {self.shape!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"scale must be finite and > 0, got {self.scale!r}")


def _check_elements(num_elements: int) -> int:
    if isinstance(num_elements, bool) or not isinstance(num_elements, int):
        raise DomainError(f"element count must be an integer, got {num_elements!r}")
    if num_elements < 1:
        raise DomainError(f"element count must be >= 1, got {num_elements!r}")
    return num_elements


def fourth_moment(num_elements: int, mode: FourthMomentMode = FourthMomentMode.EXACT) -> float:
    """E{S^4} under the chosen recipe.  Never raises for LITERAL, so the
    defective value can be inspected directly."""
    m = float(_check_elements(num_elements))
    if mode is FourthMomentMode.EXACT:
        return (
            m * _M4
            + 4.0 * m * (m - 1.0) * _M3 * _M1
            + 3.0 * m * (m - 1.0) * _M2 * _M2
            + 6.0 * m * (m - 1.0) * (m - 2.0) * _M2 * _M1 * _M1
            + m * (m - 1.0) * (m - 2.0) * (m - 3.0) * _M1**4
        )
    mu = m * _M1
    v = m * (1.0 - math.pi**2 / 16.0)
    if mode is FourthMomentMode.GAUSSIAN_SURROGATE:
        return mu**4 + 6.0 * mu**2 * v + 3.0 * v**2
    if mode is FourthMomentMode.LITERAL:
        return mu**4 + mu**2 * v + v**2
    raise DomainError(f"unknown fourth-moment mode {mode!r}")


def cascade_moments(
    num_elements: int, mode: FourthMomentMode = FourthMomentMode.EXACT
) -> CascadeMoments:
    """Moments of S and chi for ``num_elements`` i.i.d. Rayleigh products.

    mean_s = M pi/4, var_s = M (1 - pi^2/16), mean_chi = mean_s^2 + var_s,
    and var_chi = E{S^4} - mean_chi^2 with E{S^4} from ``fourth_moment``.

    Raises NegativeVarianceError when the recipe yields var_chi <= 0, which
    happens for LITERAL at every element count.
    """
    m = float(_check_elements(num_elements))
    mean_s = m * _M1
    var_s = m * (1.0 - math.pi**2 / 16.0)
    mean_chi = mean_s * mean_s + var_s
    var_chi = fourth_moment(num_elements, mode) - mean_chi * mean_chi
    if var_chi <= 0.0:
        raise NegativeVarianceError(
            f"fourth-moment mode {mode.value!r} gives var_chi = {var_chi:.6g} <= 0 "
            f"for M = {num_elements}; no Gamma fit exists",
            var_chi=var_chi,
            num_elements=num_elements,
            mode=mode,
        )
    return CascadeMoments(mean_s=mean_s, var_s=var_s, mean_chi=mean_chi, var_chi=var_chi, mode=mode)


def fit_gamma(moments: CascadeMoments) -> GammaFit:
    """Moment-matched Gamma fit: shape = mean^2/var, scale = var/mean."""
    if not (math.isfinite(moments.mean_chi) and moments.mean_chi > 0.0):
        raise FitError(f"mean_chi must be finite and > 0, got {moments.mean_chi!r}")
    if not (math.isfinite(moments.var_chi) and moments.var_chi > 0.0):
        raise FitError(f"var_chi must be finite and > 0, got {moments.var_chi!r}")
    return GammaFit(
        shape=moments.mean_chi * moments.mean_chi / moments.var_chi,
        scale=moments.var_chi / moments.mean_chi,
    )
