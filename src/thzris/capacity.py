"""SNR distribution and ergodic capacity of the active-RIS link.

The instantaneous SNR is

    gamma = rho_s * h_L^2 * beta^2 * x^2 * chi

with rho_s = P_s / (beta^2 sigma_r^2 + sigma_u^2) the active-noise power
scale, h_L the deterministic path gain, x the misalignment fraction and
chi the (Gamma-approximated) cascade power.  ``snr_cdf`` is the CDF of
that gamma: the fitted Gamma CDF of chi at s / (rho_s h_L^2 beta^2 x^2),
mixed over the misalignment law of x.

Both analytic integrals run in the log of a Gamma argument over its mean,
y = ln(s / mean SNR) for the capacity and w = ln(arg / k) for the mixture
inside it, on panels from one rule, ``_bulk_edges``.  The mixture is
integrated by parts: one incomplete gamma P(k, k e^y) per CDF point plus
the Gamma density in w against the misalignment weight, an elementary
integrand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

from .cascade import FourthMomentMode, GammaFit, cascade_moments, fit_gamma
from .channel import AbsorptionSpec, LinkGeometry, MisalignmentParams, path_gain
from .errors import ConvergenceError, DomainError, _require_count, _require_finite
from .numerics import (
    QuadratureSpec, QuadResult, _gamma_log_front, integrate_finite, integrate_semi_infinite, reg_lower_gamma
)

_LN2 = math.log(2.0)
# The mixture's GK15 sums reach their roundoff near this relative error.
_INNER_REL_TOL_FLOOR = 1e-13
# e**w - 1 - w = w**2 sum_n w**n / (n + 2)!; ten terms, highest power
# first, leave a relative truncation error below 1e-18 at |w| < 0.1.
_EXCESS_SERIES_W = 0.1
_EXCESS_SERIES = tuple(1.0 / math.factorial(n + 2) for n in reversed(range(10)))


@dataclass(frozen=True)
class ActiveRisParams:
    """Element count, per-element amplification and the power budget."""

    num_elements: int
    beta: float
    p_s_w: float
    sigma2_r_w: float
    sigma2_u_w: float

    def __post_init__(self):
        _require_count("num_elements", self.num_elements)
        _require_finite("beta", self.beta, allow_zero=True)
        _require_finite("p_s_w", self.p_s_w)
        _require_finite("sigma2_r_w", self.sigma2_r_w, allow_zero=True)
        _require_finite("sigma2_u_w", self.sigma2_u_w)
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
    construction; immutability keeps them consistent afterwards.  A
    scenario whose path gain or mean SNR leaves the double range raises
    DomainError here, naming that quantity.
    """

    geometry: LinkGeometry
    absorption: AbsorptionSpec
    misalign: MisalignmentParams
    ris: ActiveRisParams
    fourth_moment_mode: FourthMomentMode = FourthMomentMode.EXACT
    h_l: float = field(init=False)
    fit: GammaFit = field(init=False)

    def __post_init__(self):
        h_l = _in_double_range("path gain h_L", path_gain, self.geometry, self.absorption)
        object.__setattr__(self, "h_l", h_l)
        moments = cascade_moments(self.ris.num_elements, self.fourth_moment_mode)
        object.__setattr__(self, "fit", fit_gamma(moments))
        _in_double_range("mean SNR", _mean_snr, self)


def _in_double_range(name: str, compute, *args) -> float:
    """``compute(*args)``, or DomainError naming ``name`` when it overflows."""
    try:
        value = compute(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows the double range for this scenario")
    return value


def snr_scale(ris: ActiveRisParams) -> float:
    """Active-noise power scale rho_s = P_s / (beta^2 sigma_r^2 + sigma_u^2)."""
    return ris.p_s_w / (ris.beta**2 * ris.sigma2_r_w + ris.sigma2_u_w)


def _snr_coefficient(model: LinkModel) -> float:
    """Deterministic SNR factor rho_s * h_L^2 * beta^2 multiplying x^2 chi."""
    return snr_scale(model.ris) * model.h_l**2 * model.ris.beta**2


def _mean_snr(model: LinkModel) -> float:
    """SNR scale of both analytic integrals: the mean over chi at x = phi."""
    phi = model.misalign.phi
    return _snr_coefficient(model) * phi * phi * model.fit.shape * model.fit.scale


def _bulk_edges(shape: float) -> list[float]:
    """Panel edges in w = ln(arg / k) for integrals over the Gamma(k) law of arg.

    The decades below the Gamma bulk, the bulk at ln(1 + n/sqrt(k)) for
    n = 0, +-1, +-2, +-4, +-8 (above ln 0.1), and last the top, beyond
    which Q(k, k e^w) < 1e-300.
    """
    top = math.log((shape + 30.0 * math.sqrt(shape) + 800.0) / shape)
    width = 1.0 / math.sqrt(shape)
    points = {-120.0, -60.0, -30.0, -15.0, -5.0, -1.0, 0.0, top}
    for n in (1, 2, 4, 8):
        points.add(math.log1p(n * width))
        if n * width < 0.9:
            points.add(math.log1p(-n * width))
    return sorted(points)


def _exp_excess(w: float) -> float:
    """e**w - 1 - w, summed as a series below |w| = 0.1, where expm1(w) - w cancels."""
    if -_EXCESS_SERIES_W < w < _EXCESS_SERIES_W:
        series = 0.0
        for coeff in _EXCESS_SERIES:
            series = series * w + coeff
        return w * w * series
    return math.expm1(w) - w


def _mixture_cdf(model: LinkModel, edges: list[float], y: float, spec: QuadratureSpec | None) -> float:
    """SNR CDF at y = ln(s / mean SNR), on ``edges = _bulk_edges(k)``.

    In w = ln(arg / k) the misalignment weight is (zeta/2) e^((zeta/2)(y - w))
    on w >= y.  Integrated by parts against P(k, k e^w),
    F = P(k, k e^y) + int_y^top g(w) e^((zeta/2)(y - w)) dw, where
    g(w) = exp(k ln k - k - ln Gamma(k) - k (e^w - 1 - w)) is the Gamma
    density in w, its prefactor from ``numerics._gamma_log_front``, the one
    ``reg_lower_gamma`` uses: one incomplete gamma per point and an
    elementary integrand.  The boundary term (1 - P(k, k e^top)) e^((zeta/2)(y - top))
    is dropped; it is below 1e-300 at top = edges[-1].
    """
    shape, half_zeta, top = model.fit.shape, 0.5 * model.misalign.zeta, edges[-1]
    if y >= top:
        return 1.0
    lower = reg_lower_gamma(shape, shape * math.exp(y))
    # P is smallest at w = y; when it rounds to 1 there, so does F.
    if lower == 1.0:
        return 1.0
    front = _gamma_log_front(shape)

    def integrand(w: float) -> float:
        return math.exp(front - shape * _exp_excess(w) + half_zeta * (y - w))

    # The density's 4-8 sigma tails get a point at 6 sigma; a steep weight
    # (zeta > 2) gets points where it has fallen by e, e^8 and e^64.
    width = 1.0 / math.sqrt(shape)
    points = [*edges[:-1], math.log1p(6.0 * width)]
    if 6.0 * width < 0.9:
        points.append(math.log1p(-6.0 * width))
    points += [y + d / half_zeta for d in (1.0, 8.0, 64.0) if d < half_zeta]
    value, _ = integrate_finite(integrand, y, top, spec, [p for p in points if y < p < top])
    return min(1.0, lower + value)


def snr_cdf(model: LinkModel, s: float, spec: QuadratureSpec | None = None) -> float:
    """Unconditional CDF of the SNR at ``s``, the value only; see ``_mixture_cdf``."""
    if _require_finite("s", s, allow_zero=True) == 0.0:
        return 0.0
    mean_snr = _mean_snr(model)
    if mean_snr == 0.0:
        return 1.0
    # Two logs, since s / mean_snr can underflow to 0.
    y = math.log(s) - math.log(mean_snr)
    return _mixture_cdf(model, _bulk_edges(model.fit.shape), y, spec)


@dataclass(frozen=True)
class CapacityResult:
    """Ergodic capacity in bits/s/Hz plus its quadrature error estimate."""

    capacity_bits: float
    quad_err: float

    def __post_init__(self):
        _require_finite("capacity", self.capacity_bits, allow_zero=True)


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
    _require_finite("snr_scale_hint", snr_scale_hint)

    def integrand(sigma: float) -> float:
        s = snr_scale_hint * sigma
        return (1.0 - cdf(s)) / (1.0 + s)

    value, err = integrate_semi_infinite(integrand, spec)
    scale = snr_scale_hint / _LN2
    return QuadResult(max(0.0, value * scale), err * scale)


def _capacity_panels(edges: list[float], mean_snr: float) -> list[float]:
    """Starting panel edges of the capacity integral in y = ln(s / mean SNR).

    The mixture's ``edges = _bulk_edges(k)`` plus the 1/(1+s) knee at s = 1,
    from y = -120 or 60 below the knee if that is lower: the integral below
    the start is less than s there, at most e**-120 times the mean SNR and
    at most e**-60.
    """
    knee = -math.log(mean_snr)
    y_low = min(-120.0, knee - 60.0)
    points = {y_low, *edges, *(knee + off for off in (-10.0, -3.0, 0.0, 3.0, 10.0))}
    return sorted(p for p in points if y_low <= p <= edges[-1])


def ergodic_capacity(model: LinkModel, spec: QuadratureSpec | None = None) -> CapacityResult:
    """Ergodic capacity of the link under the fitted SNR law.

    Integrates (1 - F) s / (1 + s) over y = ln(s / mean SNR), with F from
    ``_mixture_cdf`` at the same y (one incomplete gamma and one integral
    of the Gamma density per point), so the tolerances act on the capacity
    itself at any SNR level.  The panels are refined until the error
    estimate is below rel_tol * C or the subdivision budget ends; the
    mixture integrals run 100x tighter (rel_tol at least 1e-13, their
    roundoff floor) so their noise stays far below that.

    Raises ConvergenceError, carrying the value and its error estimate,
    when that estimate in bits exceeds ``max(abs_tol, rel_tol * C)``.
    """
    if spec is None:
        spec = QuadratureSpec()
    mean_snr = _mean_snr(model)
    if mean_snr == 0.0:
        return CapacityResult(0.0, 0.0)

    inner_rel_tol = max(spec.rel_tol * 1e-2, _INNER_REL_TOL_FLOOR)
    inner_spec = replace(spec, abs_tol=spec.abs_tol * 1e-2, rel_tol=inner_rel_tol)
    # abs_tol is the smallest double, so only rel_tol * C stops refinement.
    refine_spec = replace(spec, abs_tol=math.ulp(0.0))
    bulk = _bulk_edges(model.fit.shape)
    cdf_failed = False

    def integrand(y: float) -> float:
        nonlocal cdf_failed
        try:
            cdf = _mixture_cdf(model, bulk, y, inner_spec)
        except ConvergenceError:
            cdf_failed = True
            raise
        s = mean_snr * math.exp(y)
        return (1.0 - cdf) * (s / (1.0 + s))

    edges = _capacity_panels(bulk, mean_snr)
    try:
        nats, nats_err = integrate_finite(integrand, edges[0], edges[-1], refine_spec, edges[1:-1])
    except ConvergenceError as exc:
        if cdf_failed:
            raise
        nats, nats_err = exc.value, exc.err_est
    value, err = max(0.0, nats) / _LN2, nats_err / _LN2
    bound = max(spec.abs_tol, spec.rel_tol * value)
    if err > bound:
        raise ConvergenceError(
            f"capacity error estimate {err:.3g} bits exceeds "
            f"max(abs_tol, rel_tol * C) = {bound:.3g} bits",
            value,
            err,
        )
    return CapacityResult(value, err)
