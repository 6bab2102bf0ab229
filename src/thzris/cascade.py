"""Moments of the cascaded Rayleigh-product channel and its Gamma fit.

The random core of the SNR is chi = (sum_m |f_m| |g_m|)^2 where the
per-element magnitudes are independent Rayleigh with unit mean square
(E|f|^2 = 1; all large-scale effects live in the deterministic path gain).
chi is approximated by a Gamma distribution matched to its first two
moments.  Both moments come from the cumulants of one product |f||g|, so
no moment is found as a difference of larger ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NegativeVarianceError, _require_count, _require_finite

# Moments of one Rayleigh product |f||g|; E|f|^k = Gamma(1 + k/2) under the
# unit-mean-square normalization, so the k-th product moment is its square.
_M1 = math.pi / 4.0
_M2 = 1.0
_M3 = (3.0 * math.sqrt(math.pi) / 4.0) ** 2  # = 9 pi / 16
_M4 = 4.0
# Its cumulants: kappa_1 = M1 and kappa_2 = 1 - pi^2/16; kappa_3 and kappa_4
# (about 0.380 and 0.568) are positive.
_K2 = 1.0 - math.pi**2 / 16.0
_K3 = _M3 - 3.0 * _M2 * _M1 + 2.0 * _M1**3
_K4 = _M4 - 4.0 * _M3 * _M1 - 3.0 * _M2 * _M2 + 12.0 * _M2 * _M1 * _M1 - 6.0 * _M1**4


class FourthMomentMode(enum.Enum):
    """Recipe for E{S^4}, the fourth moment of the amplitude sum S.

    With mu = E S = M kappa_1 and v = Var S = M kappa_2, each recipe fixes
    Var chi = E{S^4} - (mu^2 + v)^2:

    EXACT, the i.i.d. multinomial expansion and the default:
        4 mu^2 v + 2 v^2 + 4 mu M kappa_3 + M kappa_4.
    GAUSSIAN_SURROGATE, the Gaussian identity mu^4 + 6 mu^2 v + 3 v^2 for
    E{S^4}, the natural large-M shortcut (kappa_3 = kappa_4 = 0):
        4 mu^2 v + 2 v^2.
    LITERAL, the recipe mu^4 + mu^2 v + v^2 sometimes quoted for E{S^4}:
        -mu^2 v, negative at every M, so it is kept only as a reproducible
        diagnostic.
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


@dataclass(frozen=True)
class GammaFit:
    """Gamma(shape, scale) approximation of chi; shape*scale matches the
    mean and shape*scale^2 the variance of the generating moments."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_finite("shape", self.shape)
        _require_finite("scale", self.scale)


def cascade_moments(
    num_elements: int, mode: FourthMomentMode = FourthMomentMode.EXACT
) -> CascadeMoments:
    """Moments of S and chi for ``num_elements`` i.i.d. Rayleigh products.

    mean_s = mu = M kappa_1, var_s = v = M kappa_2, mean_chi = mu^2 + v, and
    var_chi is the mode's formula (see ``FourthMomentMode``).  EXACT and
    GAUSSIAN_SURROGATE sum positive terms, so they keep full precision at
    any M.

    Raises NegativeVarianceError, a DomainError, when the recipe yields
    var_chi <= 0, which happens for LITERAL at every element count.
    """
    m = float(_require_count("element count", num_elements))
    mean_s = m * _M1
    var_s = m * _K2
    mean_chi = mean_s * mean_s + var_s
    gaussian = 4.0 * mean_s * mean_s * var_s + 2.0 * var_s * var_s
    if mode is FourthMomentMode.EXACT:
        var_chi = gaussian + m * (4.0 * mean_s * _K3 + _K4)
    elif mode is FourthMomentMode.GAUSSIAN_SURROGATE:
        var_chi = gaussian
    elif mode is FourthMomentMode.LITERAL:
        var_chi = -mean_s * mean_s * var_s
    else:
        raise DomainError(f"unknown fourth-moment mode {mode!r}")
    if var_chi <= 0.0:
        raise NegativeVarianceError(
            f"fourth-moment mode {mode.value!r} gives var_chi = {var_chi:.6g} <= 0 "
            f"for M = {num_elements}; no Gamma fit exists",
            var_chi=var_chi,
            num_elements=num_elements,
            mode=mode,
        )
    return CascadeMoments(mean_s=mean_s, var_s=var_s, mean_chi=mean_chi, var_chi=var_chi)


def fit_gamma(moments: CascadeMoments) -> GammaFit:
    """Moment-matched Gamma fit: shape = mean^2/var, scale = var/mean.

    Raises DomainError when either moment is not finite and positive.
    """
    mean_chi = _require_finite("mean_chi", moments.mean_chi)
    var_chi = _require_finite("var_chi", moments.var_chi)
    return GammaFit(shape=mean_chi * mean_chi / var_chi, scale=var_chi / mean_chi)
