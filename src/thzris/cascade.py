"""Moments of the cascaded Rayleigh-product channel and its Gamma fit.

The random core of the SNR is chi = (sum_m |f_m| |g_m|)^2 where the
per-element magnitudes are independent Rayleigh with unit mean square
(E|f|^2 = 1; all large-scale effects live in the deterministic path gain).
chi is approximated by a Gamma distribution matched to its first two
moments.  Both moments come from the cumulants of one product |f||g|, so
no moment is found as a difference of larger ones.  E{S^4} has one
recipe, the exact i.i.d. expansion; the Gaussian-surrogate and literal
recipes live only in the tests' oracle.
"""

from __future__ import annotations

import math

from .errors import _in_double_range, _Record, _require_count, _require_finite

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


class CascadeMoments(_Record):
    """First two moments of S = sum |f||g| and of chi = S^2."""

    def __init__(self, mean_s: float, var_s: float, mean_chi: float, var_chi: float):
        super().__init__(mean_s=mean_s, var_s=var_s, mean_chi=mean_chi, var_chi=var_chi)


class GammaFit(_Record):
    """Gamma(shape, scale) approximation of chi; shape*scale matches the
    mean and shape*scale^2 the variance of the generating moments."""

    def __init__(self, shape: float, scale: float):
        super().__init__(shape=_require_finite("shape", shape), scale=_require_finite("scale", scale))


def cascade_moments(num_elements: int) -> CascadeMoments:
    """Moments of S and chi for ``num_elements`` i.i.d. Rayleigh products.

    With mu = E S = M kappa_1 and v = Var S = M kappa_2, mean_chi = mu^2 + v
    and var_chi = E{S^4} - mean_chi^2 = 4 mu^2 v + 2 v^2 + M (4 mu kappa_3 +
    kappa_4), E{S^4} from the i.i.d. multinomial expansion.  Every term is
    positive, so var_chi keeps full precision at any M.

    Raises DomainError when M overflows a double.
    """
    bits = _require_count("element count", num_elements).bit_length()
    m = _in_double_range(f"element count of {bits} bits", float, num_elements)
    mean_s = m * _M1
    var_s = m * _K2
    mean_chi = mean_s * mean_s + var_s
    var_chi = (4.0 * mean_s * mean_s * var_s + 2.0 * var_s * var_s) + m * (4.0 * mean_s * _K3 + _K4)
    return CascadeMoments(mean_s=mean_s, var_s=var_s, mean_chi=mean_chi, var_chi=var_chi)


def fit_gamma(moments: CascadeMoments) -> GammaFit:
    """Moment-matched Gamma fit: shape = mean^2/var, scale = var/mean.

    Raises DomainError when either moment is not finite and positive.
    """
    mean_chi = _require_finite("mean_chi", moments.mean_chi)
    var_chi = _require_finite("var_chi", moments.var_chi)
    return GammaFit(shape=mean_chi * mean_chi / var_chi, scale=var_chi / mean_chi)
