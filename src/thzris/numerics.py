"""Special functions and adaptive quadrature used by every model module.

Scalar, dependency-free implementations.  Accuracy targets here are far
tighter than the model-versus-simulation tolerances applied elsewhere, so
quadrature noise never masquerades as model error.

``reg_lower_gamma`` has three branches: Temme's uniform asymptotic
expansion for shape k >= 200 and |x/k - 1| < 0.4, where its cost does not
grow with k; the ascending series for the rest of x < k + 1; and the
continued fraction for the rest of x >= k + 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError

_EPS = math.ulp(1.0)
_ONE_BELOW = 1.0 - _EPS
_ONE_ABOVE = 1.0 + _EPS
_MAX_SPECIAL_ITER = 600

# Where the log prefactor k ln x - x - ln Gamma(k) is below these, the
# result is exact without the loop: the series' e**log_front underflows to
# 0.0, and the continued fraction's h is below 1 and e**-38 < 2**-54, so
# 1 - e**log_front * h rounds to 1.0.
_LOG_FRONT_ZERO = -746.0
_LOG_FRONT_ONE = -38.0

# Temme's expansion runs for k >= _TEMME_MIN_SHAPE and |x/k - 1| <
# _TEMME_MAX_SIGMA, where the series would need about 8.6 sqrt(k) terms.
_TEMME_MIN_SHAPE = 200.0
_TEMME_MAX_SIGMA = 0.4
# Row j of the expansion carries k**-j; rows where that is below this
# scale are dropped.
_TEMME_ROW_CUT = 1e-17
# Below this |sigma|, phi = sigma - log1p(sigma) cancels, so it is summed
# as sigma**2 * sum_n (-sigma)**n / (n + 2) instead; sixteen terms, highest
# power first, leave a relative truncation error of about 1e-17.
_PHI_SERIES_SIGMA = 0.1
_PHI_SERIES = tuple((-1.0) ** n / (n + 2) for n in reversed(range(16)))
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# d_{j,n} of DLMF 8.12.12: R = e**-y / sqrt(2 pi k) * sum_j k**-j sum_n
# d_{j,n} eta**n.  Eight rows suffice: k**-8 < _TEMME_ROW_CUT for every
# k >= _TEMME_MIN_SHAPE.  Generated by tests/oracles.py::temme_coefficients,
# which a test checks this table against.
_TEMME_D = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
        0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
        -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
        0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
        -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
        -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
        1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
        -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
        1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06,
        6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10,
        -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847,
        6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06,
        -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
        -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09,
        3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237,
        -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05,
        5.7876949497350525e-06, 4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
    ),
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for the adaptive integrators.

    Convergence is declared when the accumulated error estimate drops below
    ``max(abs_tol, rel_tol * |value|)``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions!r}"
            )


class QuadResult(NamedTuple):
    value: float
    err_est: float


def erf(x: float) -> float:
    """Error function, with strict domain checking on top of the libm routine."""
    if not math.isfinite(x):
        raise DomainError(f"erf requires a finite argument, got {x!r}")
    return math.erf(x)


def reg_lower_gamma(k: float, x: float) -> float:
    """Regularized lower incomplete gamma P(k, x), the CDF of Gamma(k, 1).

    Three branches, each in the region where it converges fast:

    - Temme's uniform asymptotic expansion (DLMF 8.12) for k >= 200 and
      |x/k - 1| < 0.4, at a cost that does not grow with k;
    - otherwise the ascending series for x < k + 1;
    - otherwise the Lentz continued fraction for the complementary
      function, which returns 1.0 at once where the result rounds to it.
    """
    if not (math.isfinite(k) and math.isfinite(x)):
        raise DomainError(f"reg_lower_gamma requires finite arguments, got ({k!r}, {x!r})")
    if k <= 0.0:
        raise DomainError(f"shape must be > 0, got {k!r}")
    if x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if k >= _TEMME_MIN_SHAPE:
        sigma = (x - k) / k
        if -_TEMME_MAX_SIGMA < sigma < _TEMME_MAX_SIGMA:
            return _temme_lower_gamma(k, sigma)

    log_front = k * math.log(x) - x - math.lgamma(k)

    if x < k + 1.0:
        if log_front < _LOG_FRONT_ZERO:
            return 0.0
        term = 1.0 / k
        total = term
        denom = k
        for _ in range(_MAX_SPECIAL_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if term < total * _EPS:
                return total * math.exp(log_front)
        raise ConvergenceError(
            f"incomplete-gamma series stalled at (k={k!r}, x={x!r})",
            value=total * math.exp(log_front),
            err_est=term * math.exp(log_front),
        )

    if log_front < _LOG_FRONT_ONE:
        return 1.0
    # Continued fraction for Q(k, x); x >= k + 1 guarantees b0 > 0.
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SPECIAL_ITER):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if _ONE_BELOW < delta < _ONE_ABOVE:
            return 1.0 - math.exp(log_front) * h
    raise ConvergenceError(
        f"incomplete-gamma continued fraction stalled at (k={k!r}, x={x!r})",
        value=1.0 - math.exp(log_front) * h,
        err_est=abs(delta - 1.0),
    )


def _temme_lower_gamma(k: float, sigma: float) -> float:
    """P(k, k (1 + sigma)) from Temme's expansion, DLMF 8.12.3 and 8.12.10.

    With phi = sigma - log1p(sigma), y = k phi and eta = sign(sigma)
    sqrt(2 phi), Q = erfc(sign(sigma) sqrt(y)) / 2 + R, where R is the
    series of _TEMME_D scaled by e**-y / sqrt(2 pi k).
    """
    if -_PHI_SERIES_SIGMA < sigma < _PHI_SERIES_SIGMA:
        series = 0.0
        for coeff in _PHI_SERIES:
            series = series * sigma + coeff
        phi = sigma * sigma * series
    else:
        phi = sigma - math.log1p(sigma)
    eta = math.sqrt(2.0 * phi)
    if sigma < 0.0:
        eta = -eta
    total = 0.0
    scale = 1.0
    for row in _TEMME_D:
        if scale < _TEMME_ROW_CUT:
            break
        poly = 0.0
        for coeff in reversed(row):
            poly = poly * eta + coeff
        total += scale * poly
        scale /= k
    y = k * phi
    remainder = math.exp(-y) / (_SQRT_2PI * math.sqrt(k)) * total
    half_erfc = 0.5 * math.erfc(math.sqrt(y))
    if sigma < 0.0:
        return half_erfc - remainder
    return 1.0 - (half_erfc + remainder)


# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK dqk15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (0.1294849661688697, 0.2797053914892766, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694


def _eval(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise DomainError(f"integrand returned non-finite value {y!r} at x={x!r}")
    return y


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel.  Returns (integral, error estimate).

    The error estimate follows QUADPACK: the raw Kronrod-minus-Gauss gap is
    sharpened through the integrand's mean deviation and floored at the
    roundoff level of the absolute integral, so it stays a conservative
    bound for smooth panels without collapsing to zero.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = _eval(f, center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    values = [(fc, fc)]
    for i in range(7):
        dx = half * _XGK[i]
        f1 = _eval(f, center - dx)
        f2 = _eval(f, center + dx)
        values.append((f1, f2))
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)

    mean = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - mean)
    for i in range(7):
        f1, f2 = values[i + 1]
        resasc += _WGK[i] * (abs(f1 - mean) + abs(f2 - mean))

    value = resk * half
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, max(err, 50.0 * _EPS * resabs)


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Globally adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    The worst panel (by error estimate) is bisected until the summed
    estimate meets the tolerance.  Kronrod nodes are interior, so ``f`` is
    never evaluated at the endpoints; integrable endpoint singularities are
    handled by subdivision alone.

    Raises ConvergenceError (carrying the best estimate) if the subdivision
    budget runs out first.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise DomainError(f"integration limits must satisfy a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return QuadResult(0.0, 0.0)

    value, err = _gk15(f, a, b)
    # Heap entries: (-err, tiebreak, a, b, value, err); all entries are live.
    heap = [(-err, 0, a, b, value, err)]
    counter = 1
    total_value = value
    total_err = err

    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        _, _, pa, pb, pvalue, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            # Panel already at floating-point resolution; park it.
            heapq.heappush(heap, (0.0, counter, pa, pb, pvalue, perr))
            counter += 1
            continue
        lval, lerr = _gk15(f, pa, mid)
        rval, rerr = _gk15(f, mid, pb)
        total_value += lval + rval - pvalue
        total_err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, counter + 1, mid, pb, rval, rerr))
        counter += 2

    # Re-sum from the live panels; incremental updates drift over many splits.
    total_value = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap)
    if total_err > max(spec.abs_tol, spec.rel_tol * abs(total_value)):
        raise ConvergenceError(
            f"quadrature on [{a!r}, {b!r}] did not reach tolerance within "
            f"{spec.max_subdivisions} subdivisions (err_est={total_err:.3e})",
            value=total_value,
            err_est=total_err,
        )
    return QuadResult(total_value, total_err)


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Integrate ``f`` over [0, inf) via the rational map s = t/(1-t).

    The Jacobian 1/(1-t)^2 turns the problem into a finite one on [0, 1);
    no truncation point is needed because the map compresses the tail.
    Requires the integrand to decay fast enough that f(s)/(1-t)^2 stays
    bounded, which holds for anything decaying faster than 1/s^2.
    """

    def mapped(t: float) -> float:
        if t >= 1.0:
            return 0.0
        one_minus = 1.0 - t
        return f(t / one_minus) / (one_minus * one_minus)

    return integrate_finite(mapped, 0.0, 1.0, spec)
