"""SNR distribution and ergodic capacity of the active-RIS link.

The instantaneous SNR is

    gamma = rho_s * h_L^2 * beta^2 * x^2 * chi

with rho_s = P_s / (beta^2 sigma_r^2 + sigma_u^2) the active-noise power
scale, h_L the deterministic path gain, x the misalignment fraction and
chi the (Gamma-approximated) cascade power.  The conditional CDF carries
the beta^2 factor so it is exactly the CDF of that gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .cascade import FourthMomentMode, GammaFit, cascade_moments, fit_gamma
from .channel import AbsorptionSpec, LinkGeometry, MisalignmentParams, path_gain
from .errors import ConvergenceError, DomainError
from .numerics import QuadratureSpec, QuadResult, integrate_finite, integrate_semi_infinite, reg_lower_gamma

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ActiveRisParams:
    """Element count, per-element amplification and the power budget."""

    num_elements: int
    beta: float
    p_s_w: float
    sigma2_r_w: float
    sigma2_u_w: float

    def __post_init__(self):
        if isinstance(self.num_elements, bool) or not isinstance(self.num_elements, int):
            raise DomainError(f"num_elements must be an integer, got {self.num_elements!r}")
        if self.num_elements < 1:
            raise DomainError(f"num_elements must be >= 1, got {self.num_elements!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not (math.isfinite(self.p_s_w) and self.p_s_w > 0.0):
            raise DomainError(f"p_s_w must be finite and > 0, got {self.p_s_w!r}")
        if not (math.isfinite(self.sigma2_r_w) and self.sigma2_r_w >= 0.0):
            raise DomainError(f"sigma2_r_w must be finite and >= 0, got {self.sigma2_r_w!r}")
        if not (math.isfinite(self.sigma2_u_w) and self.sigma2_u_w > 0.0):
            raise DomainError(f"sigma2_u_w must be finite and > 0, got {self.sigma2_u_w!r}")
        if self.beta < 1.0:
            warnings.warn(
                f"amplification beta = {self.beta:.4g} is below 1; "
                "active operation expects beta >= 1",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LinkModel:
    """Everything the SNR law needs, with derived quantities precomputed.

    ``h_l`` and ``fit`` are recomputed from the constituents at
    construction; immutability keeps them consistent afterwards.
    """

    geometry: LinkGeometry
    absorption: AbsorptionSpec
    misalign: MisalignmentParams
    ris: ActiveRisParams
    fourth_moment_mode: FourthMomentMode = FourthMomentMode.EXACT
    h_l: float = field(init=False)
    fit: GammaFit = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h_l", path_gain(self.geometry, self.absorption))
        moments = cascade_moments(self.ris.num_elements, self.fourth_moment_mode)
        object.__setattr__(self, "fit", fit_gamma(moments))


def snr_scale(ris: ActiveRisParams) -> float:
    """Active-noise power scale rho_s = P_s / (beta^2 sigma_r^2 + sigma_u^2)."""
    return ris.p_s_w / (ris.beta**2 * ris.sigma2_r_w + ris.sigma2_u_w)


def _snr_coefficient(model: LinkModel) -> float:
    """Deterministic SNR factor rho_s * h_L^2 * beta^2 multiplying x^2 chi."""
    return snr_scale(model.ris) * model.h_l**2 * model.ris.beta**2


def snr_realization(model: LinkModel, x: float, chi: float) -> float:
    """Instantaneous SNR for a given misalignment value and cascade power."""
    if not (0.0 <= x <= model.misalign.phi):
        raise DomainError(f"x must lie in [0, phi], got {x!r}")
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi!r}")
    return _snr_coefficient(model) * x * x * chi


def snr_cdf_conditional(model: LinkModel, s: float, x: float) -> float:
    """CDF of the SNR conditioned on a misalignment value ``x``.

    x = 0 is the zero-probability degenerate point: the SNR is surely 0,
    so the conditional CDF is 0 at s = 0 and 1 for s > 0.
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"s must be finite and >= 0, got {s!r}")
    if not (0.0 <= x <= model.misalign.phi):
        raise DomainError(f"x must lie in [0, phi], got {x!r}")
    if s == 0.0:
        return 0.0
    coeff = _snr_coefficient(model)
    if x == 0.0 or coeff == 0.0:
        return 1.0
    arg = s / (coeff * x * x * model.fit.scale)
    if math.isinf(arg):
        return 1.0
    return reg_lower_gamma(model.fit.shape, arg)


def _snr_cdf(model: LinkModel, s: float, spec: QuadratureSpec | None) -> QuadResult:
    """Unconditional CDF with its quadrature error estimate.

    The mixture integral over the misalignment density is evaluated after
    the substitution u = (x/phi)^zeta, which absorbs the x^(zeta-1) weight
    and leaves int_0^1 F(s | phi u^(1/zeta)) du.
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"s must be finite and >= 0, got {s!r}")
    if s == 0.0:
        return QuadResult(0.0, 0.0)
    coeff = _snr_coefficient(model)
    if coeff == 0.0:
        return QuadResult(1.0, 0.0)

    phi = model.misalign.phi
    shape = model.fit.shape
    base = s / (coeff * phi * phi * model.fit.scale)
    # The Gamma argument grows as u -> 0, so the integrand is smallest at
    # u = 1; when even that value rounds to 1 the mixture is identically 1.
    if math.isinf(base) or reg_lower_gamma(shape, base) == 1.0:
        return QuadResult(1.0, 0.0)

    exponent = -2.0 / model.misalign.zeta

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 1.0
        arg = base * u**exponent
        if math.isinf(arg):
            return 1.0
        return reg_lower_gamma(shape, arg)

    value, err = integrate_finite(integrand, 0.0, 1.0, spec)
    return QuadResult(min(1.0, max(0.0, value)), err)


def snr_cdf(model: LinkModel, s: float, spec: QuadratureSpec | None = None) -> float:
    """Unconditional CDF of the SNR at ``s``."""
    return _snr_cdf(model, s, spec).value


@dataclass(frozen=True)
class CapacityResult:
    """Ergodic capacity in bits/s/Hz plus quadrature error estimates."""

    capacity_bits: float
    quad_err: float
    inner_quad_err: float

    def __post_init__(self):
        if not (math.isfinite(self.capacity_bits) and self.capacity_bits >= 0.0):
            raise DomainError(f"capacity must be finite and >= 0, got {self.capacity_bits!r}")


def capacity_from_snr_cdf(
    cdf,
    spec: QuadratureSpec | None = None,
    snr_scale_hint: float = 1.0,
) -> QuadResult:
    """Ergodic capacity (1/ln 2) * int_0^inf (1 - cdf(s)) / (1 + s) ds.

    The integration runs in the normalized variable s = snr_scale_hint *
    sigma so that the quadrature tolerances apply to an O(1) integral even
    when the SNR (and hence the capacity) is many orders of magnitude below
    the absolute tolerance.  The hint only conditions the computation; any
    positive value gives the same integral.
    """
    if not (math.isfinite(snr_scale_hint) and snr_scale_hint > 0.0):
        raise DomainError(f"snr_scale_hint must be finite and > 0, got {snr_scale_hint!r}")

    def integrand(sigma: float) -> float:
        s = snr_scale_hint * sigma
        return (1.0 - cdf(s)) / (1.0 + s)

    value, err = integrate_semi_infinite(integrand, spec)
    scale = snr_scale_hint / _LN2
    return QuadResult(max(0.0, value * scale), err * scale)


def ergodic_capacity(model: LinkModel, spec: QuadratureSpec | None = None) -> CapacityResult:
    """Ergodic capacity of the link under the fitted SNR law.

    The outer complementary-CDF integral uses the mean SNR at perfect
    alignment as its normalization scale; the inner mixture integrals run
    at tolerances tightened by 100x so their noise stays far below the
    outer tolerance.

    Raises ConvergenceError, carrying the value and its error estimate,
    when that estimate in bits exceeds ``max(abs_tol, rel_tol * C)``.
    """
    if spec is None:
        spec = QuadratureSpec()
    coeff = _snr_coefficient(model)
    if coeff == 0.0:
        return CapacityResult(0.0, 0.0, 0.0)

    inner_spec = QuadratureSpec(
        abs_tol=spec.abs_tol * 1e-2,
        rel_tol=spec.rel_tol * 1e-2,
        max_subdivisions=spec.max_subdivisions,
    )
    phi = model.misalign.phi
    scale_hint = coeff * phi * phi * model.fit.shape * model.fit.scale
    inner_err_max = 0.0

    def cdf(s: float) -> float:
        nonlocal inner_err_max
        value, err = _snr_cdf(model, s, inner_spec)
        if err > inner_err_max:
            inner_err_max = err
        return value

    value, err = capacity_from_snr_cdf(cdf, spec, snr_scale_hint=scale_hint)
    bound = max(spec.abs_tol, spec.rel_tol * value)
    if err > bound:
        raise ConvergenceError(
            f"capacity error estimate {err:.3g} bits exceeds "
            f"max(abs_tol, rel_tol * C) = {bound:.3g} bits",
            value,
            err,
        )
    return CapacityResult(value, err, inner_err_max)
