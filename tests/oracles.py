"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the code paths under test: the error
function comes from an exact-rational Maclaurin series, reference integrals
from dense trapezoid sums, the incomplete gamma from mpmath (its gammainc,
or quadrature of the Gamma density where that does not converge), the
conditional SNR CDF from scipy's gammainc, the unconditional one in closed
form from mpmath, the cascade-power variance from the multinomial fourth
moment, E[ln chi] from a Frullani integral in scipy's quad, the Gamma-fit
capacity from Hamdi's identity in nested scipy quad, bounds on it from the
fitted law's moments, and high-precision products and series from mpmath.
"""

from fractions import Fraction
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.special

mp.mp.dps = 60


def erf_maclaurin(x: float, terms: int | None = None) -> float:
    """Maclaurin series for erf with exact rational arithmetic.

    The alternating sum is carried in Fraction (no cancellation loss even
    at |x| = 6 where intermediate terms reach ~1e15); the 2/sqrt(pi)
    prefactor is applied at 60 decimal digits.  With ``terms`` unset the
    series runs until the term magnitude drops below 1e-45.
    """
    fx = Fraction(x)
    total = Fraction(0)
    term = fx
    n = 0
    while True:
        total += term / (2 * n + 1)
        n += 1
        term = -term * fx * fx / n
        if terms is not None:
            if n >= terms:
                break
        elif abs(term) < Fraction(1, 10**45) or n >= 500:
            break
    high = mp.mpf(total.numerator) / mp.mpf(total.denominator) * 2 / mp.sqrt(mp.pi)
    return float(high)


def trapezoid_semi_infinite(f, nodes: int = 10_000_000) -> float:
    """Dense-trapezoid reference for integrals over [0, inf).

    Uses the same rational map s = t/(1-t) on a uniform grid; ``f`` must be
    vectorized and decay fast enough that f(s)/(1-t)^2 -> 0 as t -> 1.
    """
    t = np.linspace(0.0, 1.0, nodes + 1)[:-1]
    one_minus = 1.0 - t
    g = f(t / one_minus) / (one_minus * one_minus)
    return float((np.sum(g) - 0.5 * g[0]) / nodes)


def propagation_gain_highprec(g_a, g_b, f_hz, d_a_m, d_b_m) -> float:
    """Two-hop free-space amplitude gain evaluated at 50+ digits."""
    c = mp.mpf(299792458)
    value = (
        c**2 * mp.sqrt(mp.mpf(g_a) * mp.mpf(g_b))
        / ((4 * mp.pi * mp.mpf(f_hz)) ** 2 * mp.mpf(d_a_m) * mp.mpf(d_b_m))
    )
    return float(value)


def _series_power(s: list, p, n: int) -> list:
    """First ``n`` coefficients of s(z)**p for a power series with s[0] = 1.

    J. C. P. Miller's recurrence: f_m = (1/m) sum_i ((p + 1) i - m) s_i f_{m-i}.
    """
    f = [mp.mpf(1)]
    for m in range(1, n):
        f.append(sum(((p + 1) * i - m) * s[i] * f[m - i] for i in range(1, m + 1)) / m)
    return f


def temme_coefficients(rows: int, cols: int) -> list[list[float]]:
    """Coefficients d_{j,n} of Temme's expansion of P(k, x) (DLMF 8.12.12).

    The method of scipy's ``_precompute/gammainc_asy.py``, with the series
    kept in mpmath at 60 digits:

    - eta(sigma) = sigma * sqrt(s(sigma)), where sigma = x/k - 1 and
      s = 2 (sigma - log1p(sigma)) / sigma**2 = sum_m 2 (-sigma)**m / (m + 2);
    - Lagrange inversion gives sigma = sum_n alpha_n eta**n with
      alpha_n = [sigma**(n-1)] s**(-n/2) / n, and d_{0,n} = (n + 2) alpha_{n+2}
      for n >= 1, d_{0,0} = -1/3;
    - d_{j,n} = (-1)**j g_j d_{0,n} + (n + 2) d_{j-1,n+2}, with g_j the
      Stirling coefficients Gamma(a) ~ sqrt(2 pi) a**(a - 1/2) e**-a sum_j g_j a**-j,
      here from the exponential of the Bernoulli series of log Gamma.
    """
    width = cols + 2 * rows
    s = [2 * mp.mpf(-1) ** m / (m + 2) for m in range(width + 2)]
    alpha = [None] + [_series_power(s, mp.mpf(-n) / 2, n)[n - 1] / n for n in range(1, width + 2)]
    d = [[-mp.mpf(1) / 3] + [(n + 2) * alpha[n + 2] for n in range(1, width)]]

    log_stirling = [mp.mpf(0)] * rows
    for m in range(1, rows // 2 + 1):
        log_stirling[2 * m - 1] = mp.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    g = [mp.mpf(1)]
    for m in range(1, rows):
        g.append(sum(i * log_stirling[i] * g[m - i] for i in range(1, m + 1)) / m)

    for j in range(1, rows):
        d.append([(-1) ** j * g[j] * d[0][n] + (n + 2) * d[j - 1][n + 2] for n in range(width - 2 * j)])
    return [[float(value) for value in row[:cols]] for row in d]


def reg_lower_gamma_ref(k: float, x: float, dps: int = 40) -> float:
    """P(k, x) to ``dps`` digits: mpmath's gammainc, a few ms per point.

    At large shape near the bulk gammainc can raise NoConvergence (at
    k = 4e5, x/k = 1.1, for one); there the quadrature below is used.
    """
    try:
        with mp.workdps(dps):
            return float(mp.gammainc(k, 0, x, regularized=True))
    except mp.libmp.NoConvergence:
        return reg_lower_gamma_quad(k, x, dps)


def reg_lower_gamma_quad(k: float, x: float, dps: int = 40) -> float:
    """P(k, x) by mpmath quadrature of the Gamma(k, 1) density, for k > 1.

    The density is log-concave with its mode at k - 1, so the smaller tail
    is integrated: [x - w, x] below the mode (giving P), [x, x + w] above it
    (giving Q = 1 - P).  The width w doubles until the log-density at the
    far end is 120 below its value at x, and the interval is split into 16
    panels so tanh-sinh sees a smooth integrand on each.
    """
    with mp.workdps(dps):
        k_mp, x_mp = mp.mpf(k), mp.mpf(x)
        log_norm = mp.loggamma(k_mp)

        def log_density(t):
            return (k_mp - 1) * mp.log(t) - t - log_norm

        lower = x_mp < k_mp - 1
        sign = -1 if lower else 1
        floor = log_density(x_mp) - 120
        width = mp.mpf(1)
        while True:
            end = x_mp + sign * width
            if end <= 0:
                end = mp.mpf(0)
                break
            if log_density(end) < floor:
                break
            width *= 2
        points = mp.linspace(min(x_mp, end), max(x_mp, end), 17)
        tail = mp.quad(lambda t: mp.exp(log_density(t)) if t > 0 else mp.mpf(0), points)
        return float(tail if lower else 1 - tail)


def snr_cdf_given_x(shape: float, scale: float, coeff: float, s: float, x: float) -> float:
    """P(coeff * x^2 * chi <= s) for chi ~ Gamma(shape, scale), from scipy.

    At x = 0 the SNR is surely 0, so the probability is 1 for any s >= 0.
    """
    if x == 0.0:
        return 1.0
    return float(scipy.special.gammainc(shape, s / (coeff * x * x * scale)))


def snr_cdf_closed_form(mean_snr: float, shape: float, zeta: float, s: float, dps: int = 40) -> float:
    """Unconditional SNR CDF P(k, b) + b^(zeta/2) Gamma(k - zeta/2, b) / Gamma(k).

    b = s k / mean_snr, the Gamma argument at x = phi; it is formed in
    mpmath, so it does not underflow for tiny s.  This is the misalignment
    mixture int_0^1 P(k, b u^(-2/zeta)) du in closed form; the upper
    incomplete gamma comes from mpmath, which, unlike scipy's gammaincc,
    accepts k - zeta/2 <= 0 (M = 1 with zeta > 2/3).
    """
    with mp.workdps(dps):
        k, half = mp.mpf(shape), mp.mpf(zeta) / 2
        b = mp.mpf(s) * k / mp.mpf(mean_snr)
        lower = mp.gammainc(k, 0, b, regularized=True)
        return float(lower + b**half * mp.gammainc(k - half, b) / mp.gamma(k))


def cascade_chi_moments(m: int, recipe: str, dps: int = 50) -> tuple:
    """(E chi, Var chi) as mpmath numbers, for chi = S^2 and S a sum of m
    Rayleigh products.

    Var chi = E{S^4} - (E chi)^2, with E{S^4} from the i.i.d. multinomial
    expansion in the raw product moments E(|f||g|)^k = Gamma(1 + k/2)^2
    (recipe "exact", the package's), from the Gaussian identity
    mu^4 + 6 mu^2 v + 3 v^2 (recipe "gaussian_surrogate") or from the
    mu^4 + mu^2 v + v^2 sometimes quoted (recipe "literal", which gives
    -mu^2 v < 0).  The subtraction runs at ``dps`` digits, so its
    cancellation costs nothing.
    """
    with mp.workdps(dps):
        m = mp.mpf(m)
        m1, m2, m3, m4 = (mp.gamma(1 + mp.mpf(k) / 2) ** 2 for k in (1, 2, 3, 4))
        mu, v = m * m1, m * (m2 - m1**2)
        if recipe == "exact":
            fourth = (
                m * m4
                + 4 * m * (m - 1) * m3 * m1
                + 3 * m * (m - 1) * m2**2
                + 6 * m * (m - 1) * (m - 2) * m2 * m1**2
                + m * (m - 1) * (m - 2) * (m - 3) * m1**4
            )
        elif recipe == "gaussian_surrogate":
            fourth = mu**4 + 6 * mu**2 * v + 3 * v**2
        elif recipe == "literal":
            fourth = mu**4 + mu**2 * v + v**2
        else:
            raise ValueError(f"unknown recipe {recipe!r}")
        mean_chi = mu**2 + v
        return mean_chi, fourth - mean_chi**2


def e_ln_chi(m: int) -> float:
    """E[ln chi] for chi = S^2 and S a sum of m Rayleigh products, by Frullani.

    E[ln S] = int_0^inf (e^-t - E[e^(-t S)]) / t dt, and E[e^(-t S)] = L(t)^m
    with L(t) = int_0^inf 2r e^(-r^2) g(t r) dr the Laplace transform of one
    product |f||g|, where g(u) = 1 - u (sqrt(pi)/2) erfcx(u/2) is that of
    one Rayleigh magnitude.  Both integrals run in scipy's quad, the outer
    one split at t = 1 into a finite part and an infinite tail.  Absolute
    tolerances stand in for relative ones where L(t) is small and g loses
    digits to cancellation.  E[ln chi] = 2 E[ln S]; it is exactly
    -2 gamma_E at m = 1.
    """
    half_sqrt_pi = math.sqrt(math.pi) / 2.0

    def laplace(t: float) -> float:
        def integrand(r: float) -> float:
            u = t * r
            return 2.0 * r * math.exp(-r * r) * (1.0 - u * half_sqrt_pi * scipy.special.erfcx(u / 2.0))

        return scipy.integrate.quad(integrand, 0.0, math.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    def outer(t: float) -> float:
        return (math.exp(-t) - laplace(t) ** m) / t

    head = scipy.integrate.quad(outer, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    tail = scipy.integrate.quad(outer, 1.0, math.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return 2.0 * (head + tail)


def _quad_checked(f, lo: float, hi: float, points, epsrel: float, floor: float = 0.0) -> float:
    """scipy's quad of ``f`` on [lo, hi], relative tolerance only.

    A quad warning raises RuntimeError, unless the integral is below
    ``floor``: there the integrand values are subnormal, quad's own error
    estimate is at roundoff, and the warning says only that.
    """
    inside = sorted(p for p in points if lo < p < hi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        value, err = scipy.integrate.quad(f, lo, hi, points=inside, epsabs=0.0, epsrel=epsrel, limit=200)
    if caught and value >= floor:
        raise RuntimeError(f"quad on [{lo!r}, {hi!r}] = {value!r} +- {err!r}: {caught[0].message}")
    return value


def gamma_fit_capacity(mean_snr: float, shape: float, zeta: float) -> float:
    """Ergodic capacity in bits of gamma = mean_snr u G / k, for G ~ Gamma(k, 1)
    and u = (x / phi)^2 under the misalignment law, through the Gamma MGF.

    Hamdi's identity ln(1 + g) = int_0^inf (1 - e^(-t g)) e^(-t) / t dt
    (IEEE Trans. Commun. 58(5), 2010) averages in closed form over G: with
    tau = ln t, h(a) = E[ln(1 + a G)] = int -expm1(-k log1p(a e^tau)) exp(-e^tau) dtau.
    In w = ln u the misalignment weight is (zeta/2) e^(zeta w / 2) on
    w <= 0, so C = (1/ln 2) int (zeta/2) e^(zeta w / 2) h(U e^w) dw with
    U = mean_snr / k.  Both integrands are elementary and positive,
    and neither cancels at any SNR.  Nothing here touches the incomplete
    gamma, the Gamma CDF, the package's ``_bulk_edges`` or its quadrature.

    The inner integral runs from min(tau0, 0) - 45, with tau0 = -ln(k a),
    to tau = 7, where exp(-e^tau) underflows; its breakpoints are tau0,
    tau0 +- 5, 0 and 4.  The outer one runs from -min(1400/zeta, 2000) to 0,
    with breakpoints at -ln(mean_snr) + {0, +-5, +-20} and where the weight
    has fallen by e, e^8 and e^64.  An inner integral below the smallest
    normal double may end in quad's roundoff warning; any other warning
    raises.  Below k a = 1e-150 quad's inner integrand underflows, and an h
    of about 1e-306 can end in a roundoff or subdivision warning (M = 1e5 at
    zeta = 0.05 and 250 dBm); there h is the series E[a G - (a G)^2 / 2] =
    k a (1 - (k + 1) a / 2), whose next term lies far below an ulp.
    """
    k, half = shape, 0.5 * zeta
    unit = mean_snr / k

    def h(a: float) -> float:
        if k * a < 1e-150:
            return k * a * (1.0 - 0.5 * (k + 1.0) * a)
        tau0 = -math.log(k * a)

        def integrand(tau: float) -> float:
            return -math.expm1(-k * math.log1p(a * math.exp(tau))) * math.exp(-math.exp(tau))

        points = (tau0, tau0 - 5.0, tau0 + 5.0, 0.0, 4.0)
        return _quad_checked(integrand, min(tau0, 0.0) - 45.0, 7.0, points, 1e-13, sys.float_info.min)

    def outer(w: float) -> float:
        return half * math.exp(half * w) * h(unit * math.exp(w))

    centre = -math.log(mean_snr)
    points = [centre + d for d in (0.0, -5.0, 5.0, -20.0, 20.0)] + [-d / half for d in (1.0, 8.0, 64.0)]
    return _quad_checked(outer, -min(1400.0 / zeta, 2000.0), 0.0, points, 1e-12) / math.log(2.0)


def _fitted_moments(mean_snr: float, shape: float, zeta: float, count: int) -> list[float]:
    """E[gamma^n] for n = 1..count under the fitted law gamma = m u G / k:
    m^n prod_(j<n) (1 + j/k) zeta / (zeta + 2n), as products, not powers,
    so an overflow gives inf instead of raising."""
    moments, power = [], 1.0
    for n in range(1, count + 1):
        power *= mean_snr * (1.0 + (n - 1) / shape)
        moments.append(power * zeta / (zeta + 2.0 * n))
    return moments


def low_snr_series(mean_snr: float, shape: float, zeta: float) -> tuple[float, float]:
    """The two-term moment series E[gamma] - E[gamma^2] / 2 of C ln 2 under the
    fitted law, and its third term E[gamma^3] / 3.

    The Taylor partial sums of ln(1 + gamma) alternate around it for
    gamma >= 0, so C ln 2 lies within the third term of the series.
    """
    first, second, third = _fitted_moments(mean_snr, shape, zeta, 3)
    return first - second / 2.0, third / 3.0


def capacity_bracket(mean_snr: float, shape: float, zeta: float) -> tuple[float, float]:
    """Proven (lower, upper) bounds on C ln 2 under the fitted law, at any SNR.

    Upper: log1p(E[gamma]), by Jensen.  Lower: the larger of E[ln gamma],
    since ln(1 + gamma) > ln gamma, and E[gamma] - E[gamma^2] / 2, since
    ln(1 + gamma) >= gamma - gamma^2 / 2.  E[ln gamma] =
    ln m - 2/zeta + psi(k) - ln k, with E[ln u] = -2/zeta and E[ln G] = psi(k).
    """
    first, second = _fitted_moments(mean_snr, shape, zeta, 2)
    log_mean = math.log(mean_snr) - 2.0 / zeta + float(scipy.special.digamma(shape)) - math.log(shape)
    return max(log_mean, first - second / 2.0), math.log1p(first)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF."""
    ordered = np.sort(samples)
    n = len(ordered)
    values = cdf(ordered)
    upper = np.arange(1, n + 1) / n - values
    lower = values - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value at level ``alpha``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def format_temme_table(rows: int, cols: int) -> str:
    """``_TEMME_D`` of ``thzris.numerics`` as module source, four values a line."""
    lines = ["_TEMME_D = ("]
    for row in temme_coefficients(rows, cols):
        lines.append("    (")
        for start in range(0, cols, 4):
            lines.append("        " + " ".join(f"{value!r}," for value in row[start : start + 4]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 3:
        sys.exit("usage: python tests/oracles.py ROWS COLS")
    print(format_temme_table(int(sys.argv[1]), int(sys.argv[2])))
