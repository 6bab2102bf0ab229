import math
import sys

import pytest
import scipy.special
from hypothesis import example, given, strategies as st

from thzris import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    erf,
    integrate_finite,
    integrate_semi_infinite,
    reg_lower_gamma,
)
from thzris import numerics

from oracles import erf_maclaurin, reg_lower_gamma_ref, temme_coefficients, trapezoid_semi_infinite

# Fit shapes of the M = 64, default (M = 100), 256, 1024, 1e4 and 1e5
# scenarios, the Temme threshold 200 and the shapes on either side of it:
# from 20 to 199 the series and continued fraction run, on the Stirling
# prefactor, to the same bound, and 4e5 is near the top of the range.
TEMME_SHAPES = (
    20.0,
    25.627915659342094,
    40.11675141976838,
    102.9038957387912,
    199.0,
    200.0,
    412.0131227575207,
    4024.731300263284,
    40248.510887372424,
    4e5,
)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_known_value(self):
        # frozen from the exact-rational Maclaurin oracle at 30 terms
        assert erf(0.3) == pytest.approx(0.3286267594591274, abs=1e-12)
        assert erf_maclaurin(0.3, terms=30) == pytest.approx(0.3286267594591274, abs=1e-15)

    def test_matches_series_oracle_on_band(self):
        for i in range(-24, 25):
            x = i * 0.25
            assert erf(x) == pytest.approx(erf_maclaurin(x), abs=1e-12)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    def test_odd_symmetry(self, x):
        assert erf(-x) == -erf(x)

    def test_bounded(self):
        assert abs(erf(50.0)) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            erf(bad)


class TestRegLowerGamma:
    def test_exponential_special_case(self):
        assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_zero_argument(self):
        for k in (0.3, 1.0, 3.3, 100.0):
            assert reg_lower_gamma(k, 0.0) == 0.0

    def test_erf_identity_at_half(self):
        # P(1/2, x) = erf(sqrt(x))
        for i in range(1, 201):
            x = 0.05 * i
            assert reg_lower_gamma(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-10)

    def test_matches_scipy(self):
        for k in (0.3, 0.5, 1.0, 3.3, 40.0, 100.0, 412.0):
            for frac in (0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0):
                x = k * frac
                assert reg_lower_gamma(k, x) == pytest.approx(
                    scipy.special.gammainc(k, x), abs=1e-12
                )

    @pytest.mark.parametrize("k", [0.3, 1.0, 3.3, 100.0])
    def test_valid_cdf_on_grid(self, k):
        grid = [k * 10.0**e for e in (-3, -2, -1, -0.5, 0, 0.3, 0.5, 1, 1.5, 2)]
        previous = 0.0
        for x in grid:
            value = reg_lower_gamma(k, x)
            assert 0.0 <= value <= 1.0
            assert value >= previous - 1e-12
            previous = value
        assert reg_lower_gamma(k, k * 1e3) == pytest.approx(1.0, abs=1e-12)

    @given(
        k=st.floats(min_value=0.05, max_value=1e6),
        ratio=st.floats(min_value=0.5, max_value=1.5),
        bump=st.floats(min_value=0.0, max_value=0.5),
    )
    # Steps across each seam: the Temme region |x/k - 1| < 0.4 for k >= 200,
    # its phi series below |x/k - 1| = 0.1, the Stirling prefactor from
    # x = k/2 for k >= 10, and series/continued fraction at x = k + 1.
    @example(k=200.0, ratio=0.6 - 1e-9, bump=2e-9)
    @example(k=1e6, ratio=0.6 - 1e-9, bump=2e-9)
    @example(k=200.0, ratio=0.9 - 1e-9, bump=2e-9)
    @example(k=4e5, ratio=0.9 - 1e-9, bump=2e-9)
    @example(k=200.0, ratio=1.1 - 1e-9, bump=2e-9)
    @example(k=4e5, ratio=1.1 - 1e-9, bump=2e-9)
    @example(k=200.0, ratio=1.4 - 1e-9, bump=2e-9)
    @example(k=1e6, ratio=1.4 - 1e-9, bump=2e-9)
    @example(k=10.0, ratio=0.5 - 1e-9, bump=2e-9)
    @example(k=40.1, ratio=0.5 - 1e-9, bump=2e-9)
    @example(k=1e6, ratio=0.5 - 1e-9, bump=2e-9)
    @example(k=19.5, ratio=20.5 / 19.5 - 1e-9, bump=2e-9)
    @example(k=199.0, ratio=200.0 / 199.0 - 1e-9, bump=2e-9)
    def test_monotone_and_bounded(self, k, ratio, bump):
        x = k * ratio
        low = reg_lower_gamma(k, x)
        high = reg_lower_gamma(k, x + k * bump)
        assert 0.0 <= low <= 1.0
        # 1e-12 slack covers the seams between the branches
        assert high >= low - 1e-12

    @pytest.mark.parametrize("k", TEMME_SHAPES)
    def test_temme_branch_matches_quadrature(self, k):
        # 40-digit mpmath, by quadrature of the Gamma density where gammainc
        # does not converge; scipy's gammainc is 3.8e-6 relative off at
        # k = 9.1e5, x/k = 0.995.
        step = 1.0 / math.sqrt(k)
        ratios = (0.5999, 0.6001, 0.8999, 0.9001, 1.0 - step, 1.0, 1.0 + step, 1.0999, 1.1001, 1.3999, 1.4001)
        for ratio in ratios:
            x = k * ratio
            assert abs(reg_lower_gamma(k, x) - reg_lower_gamma_ref(k, x)) <= 1e-15, ratio

    def test_temme_table_matches_generator(self):
        table = numerics._TEMME_D
        rows, cols = len(table), len(table[0])
        # Every row is read at the smallest shape, and no further one would be.
        assert numerics._TEMME_MIN_SHAPE ** -(rows - 1) >= numerics._TEMME_ROW_CUT
        assert numerics._TEMME_MIN_SHAPE ** -rows < numerics._TEMME_ROW_CUT
        regenerate = f"regenerate the table with `python tests/oracles.py {rows} {cols}`"
        reference = temme_coefficients(rows, cols)
        for row, expected_row in zip(table, reference, strict=True):
            for value, expected in zip(row, expected_row, strict=True):
                assert value == pytest.approx(expected, rel=1e-15, abs=0), regenerate

    @pytest.mark.parametrize("k", [40.11675141976838, 102.9038957387912, 412.0131227575207, 4024.731300263284])
    def test_lower_tail_relative_accuracy(self, k):
        # Fit shapes of M = 100, 256, 1024 and 1e4, below the Temme region:
        # the series' prefactor must keep P to a relative k ulps, which the
        # direct k ln x - x - ln Gamma(k) misses by up to 7x.
        for ratio in (0.5, 0.52, 0.55, 0.58, 0.5999):
            x = k * ratio
            expected = reg_lower_gamma_ref(k, x)
            if expected < sys.float_info.min:
                continue  # P(4024.7, 2012.4) = 3e-340 has no relative accuracy to keep
            assert abs(reg_lower_gamma(k, x) / expected - 1.0) <= k * 2.2e-16, ratio

    @pytest.mark.parametrize("k", [0.3, 1.0, 3.3, 40.0, 199.0, 200.0, 4024.731300263284, 4e5, 1e6])
    def test_rounds_to_one_exactly_in_upper_tail(self, k):
        # Where Q(k, x) < 2**-54, 1 - Q rounds to 1.0; where Q > 2**-52 it
        # does not.  The continued fraction must keep both.
        above = below = 0
        for i in range(400):
            x = (k + 1.0) * 1.01**i
            q = scipy.special.gammaincc(k, x)
            if q < 2.0**-54:
                assert reg_lower_gamma(k, x) == 1.0, x
                below += 1
            elif q > 2.0**-52:
                assert reg_lower_gamma(k, x) < 1.0, x
                above += 1
        assert above and below

    @pytest.mark.parametrize("k", [0.3, 3.3, 40.0, 199.0, 200.0, 4024.731300263284, 4e5])
    def test_lower_tail_is_zero_only_where_it_underflows(self, k):
        # The series returns 0.0 where e**log_front underflows; where
        # P(k, x) is a normal double the result must not be 0.0.
        for i in range(1000):
            x = k * 0.98**i
            if scipy.special.gammainc(k, x) >= sys.float_info.min:
                assert reg_lower_gamma(k, x) > 0.0, x

    @pytest.mark.parametrize("k", [0.3, 1.0, 40.0, 1e10, 1e300])
    def test_one_at_the_top_of_the_double_range(self, k):
        # From x - k = 2**1022 the continued fraction's 1/b is subnormal and
        # its ratio test may not settle; P is 1.0 there all the same.
        for i in range(1, 65):
            x = 2.0 ** (1022.0 + i / 65.0)
            assert reg_lower_gamma(k, x) == 1.0, x

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(-2.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, -0.1)
        with pytest.raises(DomainError):
            reg_lower_gamma(math.nan, 1.0)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-8
        assert spec.max_subdivisions == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-10},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


CLOSED_FORM_FINITE = [
    (lambda x: 1.0, 0.0, 1.0, 1.0),
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: math.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
]

CLOSED_FORM_SEMI_INFINITE = [
    (lambda s: math.exp(-s), 1.0),
    (lambda s: 1.0 / (1.0 + s) ** 2, 1.0),
    # frozen from the 1e7-node dense-trapezoid oracle; equals pi/4
    (lambda s: 1.0 / ((1.0 + s) * (1.0 + s * s)), math.pi / 4.0),
]


class TestIntegrateFinite:
    @pytest.mark.parametrize("f,a,b,expected", CLOSED_FORM_FINITE)
    def test_closed_forms(self, f, a, b, expected):
        value, err = integrate_finite(f, a, b)
        spec = QuadratureSpec()
        assert value == pytest.approx(expected, abs=max(spec.abs_tol, spec.rel_tol * abs(expected)))
        assert abs(value - expected) <= err + 1e-15

    def test_empty_interval(self):
        assert integrate_finite(lambda x: 1.0, 2.0, 2.0) == (0.0, 0.0)

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, 1.0, 0.0)

    def test_non_finite_limits_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, 0.0, math.inf)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: math.nan, 0.0, 1.0)

    def test_budget_exhaustion_carries_best_estimate(self):
        # the endpoint singularity needs many subdivisions; three are not enough
        singular = lambda x: 1.0 / math.sqrt(x)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_finite(singular, 0.0, 1.0, QuadratureSpec(max_subdivisions=3))
        assert math.isfinite(excinfo.value.value)
        assert excinfo.value.err_est > 0.0
        assert abs(excinfo.value.value - 2.0) < 0.1

    def test_breakpoints_start_the_panels(self):
        # A kink on a panel edge is no kink to the rule: the starting panels
        # are exact for |x - 0.3| and the budget is never touched.
        kink = lambda x: abs(x - 0.3)
        value, err = integrate_finite(kink, 0.0, 1.0, QuadratureSpec(max_subdivisions=1), (0.3, 0.3))
        assert value == pytest.approx(0.29, rel=1e-15, abs=0)
        assert err < 1e-14
        with pytest.raises(ConvergenceError):
            integrate_finite(kink, 0.0, 1.0, QuadratureSpec(abs_tol=1e-14, max_subdivisions=1))

    @pytest.mark.parametrize("points", [(0.0,), (0.5, 1.0), (-0.5,), (math.nan,)])
    def test_breakpoints_outside_the_interval_rejected(self, points):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: 1.0, 0.0, 1.0, None, points)

    def test_resolves_narrow_peak(self):
        peak = lambda x: math.exp(-((x - 0.3) * 20.0) ** 2)
        value, _ = integrate_finite(peak, 0.0, 1.0)
        assert value == pytest.approx(math.sqrt(math.pi) / 20.0, rel=1e-8)

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        span=st.floats(min_value=0.01, max_value=5.0),
        c0=st.floats(min_value=-5.0, max_value=5.0),
        c1=st.floats(min_value=-5.0, max_value=5.0),
        c2=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_quadratics_exact(self, a, span, c0, c1, c2):
        b = a + span
        value, err = integrate_finite(lambda x: c0 + c1 * x + c2 * x * x, a, b)
        exact = c0 * (b - a) + c1 * (b * b - a * a) / 2.0 + c2 * (b**3 - a**3) / 3.0
        assert value == pytest.approx(exact, abs=max(1e-10, 1e-12 * abs(exact)))


class TestIntegrateSemiInfinite:
    @pytest.mark.parametrize("f,expected", CLOSED_FORM_SEMI_INFINITE)
    def test_closed_forms(self, f, expected):
        value, err = integrate_semi_infinite(f)
        spec = QuadratureSpec()
        assert value == pytest.approx(expected, abs=max(spec.abs_tol, spec.rel_tol * abs(expected)))
        assert abs(value - expected) <= err + 1e-15

    def test_rational_example_against_trapezoid_oracle(self):
        reference = trapezoid_semi_infinite(lambda s: 1.0 / ((1.0 + s) * (1.0 + s * s)))
        assert reference == pytest.approx(math.pi / 4.0, abs=2e-14)
        value, _ = integrate_semi_infinite(lambda s: 1.0 / ((1.0 + s) * (1.0 + s * s)))
        assert value == pytest.approx(reference, abs=1e-9)
