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
the Gamma density in w, all of whose special functions live in ``numerics``,
against the misalignment weight: an elementary integrand.
"""

from __future__ import annotations

import math

from .cascade import cascade_moments, fit_gamma
from .channel import AbsorptionSpec, LinkGeometry, MisalignmentParams, _path_gain
from .config import ActiveRisParams, QuadratureSpec
from .errors import ConvergenceError, _in_double_range, _Record, _require_finite
from .numerics import _exp_excess, _gamma_log_front, integrate_finite, integrate_semi_infinite, reg_lower_gamma

_LN2 = math.log(2.0)
# The mixture's GK15 sums reach their roundoff near this relative error.
_INNER_REL_TOL_FLOOR = 1e-13


class LinkModel(_Record):
    """Everything the SNR law needs, with derived quantities precomputed.

    ``fit`` is the Gamma fit of ``cascade_moments(M)``.  ``mean_snr`` is
    the mean SNR at x = phi, rho_s beta^2 h_L^2 phi^2 k theta, the scale
    of both analytic integrals.
    ``h_l``, ``fit`` and ``mean_snr`` are computed from the constituents
    at construction; immutability keeps them consistent afterwards.  A
    scenario whose path gain or mean SNR leaves the double range raises
    DomainError here, naming that quantity.
    """

    def __init__(
        self, geometry: LinkGeometry, absorption: AbsorptionSpec, misalign: MisalignmentParams, ris: ActiveRisParams
    ):
        h_l = _in_double_range("path gain h_L", _path_gain, geometry, absorption)
        fit = fit_gamma(cascade_moments(ris.num_elements))
        super().__init__(geometry=geometry, absorption=absorption, misalign=misalign, ris=ris, h_l=h_l, fit=fit)
        # _snr_coefficient reads h_l from the model, so mean_snr is stored after it.
        phi = misalign.phi
        mean_snr = _in_double_range("mean SNR", lambda: _snr_coefficient(self) * phi * phi * fit.shape * fit.scale)
        super().__init__(mean_snr=mean_snr)


def _snr_scale(ris: ActiveRisParams) -> float:
    """Active-noise power scale rho_s = P_s / (beta^2 sigma_r^2 + sigma_u^2)."""
    return ris.p_s_w / (ris.beta**2 * ris.sigma2_r_w + ris.sigma2_u_w)


def _snr_coefficient(model: LinkModel) -> float:
    """SNR factor rho_s beta^2 h_L^2 of x^2 chi; rho_s beta^2 saturates, so it is formed first."""
    return _snr_scale(model.ris) * model.ris.beta**2 * model.h_l**2


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


def _mixture_cdf(shape: float, zeta: float, edges: list[float], y: float, spec: QuadratureSpec | None) -> float:
    """SNR CDF at y = ln(s / mean SNR) for shape k and misalignment zeta, on ``edges = _bulk_edges(k)``.

    In w = ln(arg / k) the misalignment weight is (zeta/2) e^((zeta/2)(y - w))
    on w >= y.  Integrated by parts against P(k, k e^w),
    F = P(k, k e^y) + int_y^top g(w) e^((zeta/2)(y - w)) dw, where
    g(w) = exp(k ln k - k - ln Gamma(k) - k (e^w - 1 - w)) is the Gamma
    density in w, from ``_gamma_log_front`` and ``_exp_excess``, the pieces
    ``reg_lower_gamma`` uses: one incomplete gamma per point and an
    elementary integrand.  The boundary term (1 - P(k, k e^top)) e^((zeta/2)(y - top))
    is dropped; it is below 1e-300 at top = edges[-1].
    """
    half_zeta, top = 0.5 * zeta, edges[-1]
    if y >= top:
        return 1.0
    lower = reg_lower_gamma(shape, shape * math.exp(y))
    # P is smallest at w = y; when it rounds to 1 there, so does F.
    if lower == 1.0:
        return 1.0
    front = _gamma_log_front(shape)

    def integrand(w: float) -> float:
        return math.exp(front - shape * _exp_excess(w) + half_zeta * (y - w))

    # A steep weight (zeta > 2) gets points where it has fallen by e, e^8 and e^64, or GK15
    # misjudges its peak at w = y (M = 1, zeta = 1e4: C 5.4e-6 relative off, quad_err 1.5e-24
    # bits).  From zeta ~ 1e12 the nearest lie within integrate_finite's resolution of y and merge.
    points = [*edges[:-1], *(y + d / half_zeta for d in (1.0, 8.0, 64.0) if d < half_zeta)]
    value, _ = integrate_finite(integrand, y, top, spec, [p for p in points if y < p < top])
    return min(1.0, lower + value)


def snr_cdf(model: LinkModel, s: float, spec: QuadratureSpec | None = None) -> float:
    """Unconditional CDF of the SNR at ``s``, the value only; see ``_mixture_cdf``."""
    mean_snr, shape, zeta = model.mean_snr, model.fit.shape, model.misalign.zeta
    _require_finite("s", s, allow_zero=True)
    # Before s == 0: with no mean SNR, gamma = 0 surely and F(0) = P(gamma <= 0) = 1.
    if mean_snr == 0.0:
        return 1.0
    if s == 0.0:
        return 0.0
    # Two logs, since s / mean_snr can underflow to 0.
    return _mixture_cdf(shape, zeta, _bulk_edges(shape), math.log(s) - math.log(mean_snr), spec)


class CapacityResult(_Record):
    """Ergodic capacity in bits/s/Hz plus its quadrature error estimate."""

    def __init__(self, capacity_bits: float, quad_err: float):
        super().__init__(capacity_bits=capacity_bits, quad_err=quad_err)


def capacity_from_snr_cdf(
    cdf, spec: QuadratureSpec | None = None, *, snr_scale_hint: float
) -> tuple[float, float]:
    """(1/ln 2) * int_0^inf (1 - cdf(s)) / (1 + s) ds and its error estimate, in bits.

    The integral runs in sigma = s / snr_scale_hint, so the hint must be the
    SNR scale on which ``cdf`` rises, such as its median: far from it the
    quadrature misses the rise (hint 1 gives 0 bits at the default
    scenario, where C = 3.4e-13 bits).  ``spec``'s tolerances act on the
    sigma integral, so in bits they scale with hint / ln 2 (hint = mean SNR
    at P_s = 250 dBm passes with an error estimate of 1.45 bits).  Only
    ``ergodic_capacity`` keeps the contract in bits.
    """
    _require_finite("snr_scale_hint", snr_scale_hint)

    def integrand(sigma: float) -> float:
        s = snr_scale_hint * sigma
        return (1.0 - cdf(s)) / (1.0 + s)

    value, err = integrate_semi_infinite(integrand, spec)
    scale = snr_scale_hint / _LN2
    return max(0.0, value * scale), err * scale


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
    estimate is below rel_tol * C or ``spec.max_subdivisions`` bisections
    are spent; the mixture integrals run 100x tighter (rel_tol at least
    1e-13, their roundoff floor) on the default budget of 60, so their
    noise stays far below that.

    Raises ConvergenceError, carrying the value and its error estimate,
    when that estimate in bits exceeds ``max(abs_tol, rel_tol * C)``.
    """
    mean_snr, shape, zeta = model.mean_snr, model.fit.shape, model.misalign.zeta
    if spec is None:
        spec = QuadratureSpec()
    if mean_snr == 0.0:
        return CapacityResult(0.0, 0.0)

    inner_spec = QuadratureSpec(spec.abs_tol * 1e-2, max(spec.rel_tol * 1e-2, _INNER_REL_TOL_FLOOR))
    # abs_tol is the smallest double, so only rel_tol * C stops refinement.
    refine_spec = spec.replace(abs_tol=math.ulp(0.0))
    bulk = _bulk_edges(shape)
    cdf_failed = False

    def integrand(y: float) -> float:
        nonlocal cdf_failed
        try:
            cdf = _mixture_cdf(shape, zeta, bulk, y, inner_spec)
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
    value, err = nats / _LN2, nats_err / _LN2
    bound = max(spec.abs_tol, spec.rel_tol * value)
    if err > bound:
        raise ConvergenceError(
            f"capacity error estimate {err:.3g} bits exceeds "
            f"max(abs_tol, rel_tol * C) = {bound:.3g} bits",
            value,
            err,
        )
    return CapacityResult(value, err)
