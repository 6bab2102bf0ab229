import functools
import importlib.util
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import Phase, event, given, settings, strategies as st

from thzris import (
    AbsorptionSpec,
    ActiveRisParams,
    ConvergenceError,
    DomainError,
    LinkGeometry,
    LinkModel,
    McConfig,
    MisalignmentParams,
    QuadratureSpec,
    SPEED_OF_LIGHT,
    apply_sweep_value,
    build_model,
    cascade_moments,
    default_scenario,
    ergodic_capacity,
    estimate_ergodic_rate,
    fit_gamma,
    integrate_finite,
    integrate_semi_infinite,
    misalignment_pdf,
    snr_cdf,
    snr_samples,
)
import thzris.capacity
from thzris.capacity import _snr_coefficient, _snr_scale, capacity_from_snr_cdf
from thzris.channel import _path_gain

from oracles import capacity_bracket, gamma_fit_capacity, low_snr_series, snr_cdf_closed_form, snr_cdf_given_x

LN2 = math.log(2.0)
# The whole-domain laws report a failing example as drawn: each shrink step
# reruns ergodic_capacity, so shrinking took minutes before the report.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

# Closed-form capacities of perfbench/reference/make_reference.py, where
# scipy and mpmath agree to 6.1e-11 or better, for every benchmark scenario:
# the default with at most one parameter changed, named ``param=value``.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "capacities.json").read_text()
)["scenarios"]
REFERENCE_CASES = sorted(REFERENCE)

# (M, zeta, spec) of the low-SNR moment-series check; spec None means the
# scenario's own.  The tight specs ask for rel_tol 1e-10 and 1e-12 at the
# smallest shape and the flattest misalignment weight; the second converges
# only because the mixture integrals' rel_tol stops at their 1e-13 floor.
MOMENT_SERIES_CASES = [
    pytest.param(m, zeta, None, id=f"{m}-{zeta}")
    for zeta in (0.05, 0.6, 3.0, 50.0)
    for m in (1, 16, 1024, 100_000, 1_000_000)
] + [
    pytest.param(
        1, 0.05, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=400),
        id="1-0.05-tight",
    ),
    pytest.param(
        1, 0.05, QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=400),
        id="1-0.05-tighter",
    ),
] + [
    # Far beyond the contract's zeta <= 50 the misalignment weight is a
    # spike of width 2/zeta at w = y, and F tends to the aligned Gamma law.
    pytest.param(m, zeta, None, id=f"{m}-{zeta:g}")
    for zeta in (1e4, 1e6, 1e10, 1e15, 1e100)
    for m in (1, 100, 100_000)
]


# (M, P_s in dBm, zeta) of the high-SNR asymptote check; the default
# element count keeps its original ids.
HIGH_SNR_CASES = [
    pytest.param(m, p_s_dbm, zeta, id=f"{p_s_dbm}-{zeta}" if m == 100 else f"M{m}-{p_s_dbm}-{zeta}")
    for m, p_s_dbm, zeta in [
        (100, 300.0, 3.0), (100, 300.0, 50.0), (100, 700.0, 3.0),
        (1, 700.0, 50.0), (100_000, 300.0, 3.0), (100_000, 300.0, 50.0),
    ]
]

# Scenarios of the small-budget check, as (param, value) changes to the
# default: the low- and high-SNR ends, the flattest and the steepest
# misalignment weights, and one element.
SMALL_BUDGET_SCENARIOS = {
    "default": (),
    "zeta=0.05": (("zeta", 0.05),),
    "M=1,zeta=50": (("M", 1), ("zeta", 50.0)),
    "P_s_dBm=250": (("P_s_dBm", 250.0),),
    "M=1,P_s_dBm=150": (("M", 1), ("P_s_dBm", 150.0)),
    "M=1,zeta=1e4": (("M", 1), ("zeta", 1e4)),
    "P_s_dBm=300,M=1e5": (("P_s_dBm", 300.0), ("M", 1e5)),
}


# (M, zeta, P_s in dBm) of the regime-corner check against the Gamma-fit
# oracle: the element-count and misalignment extremes at low, middle and
# high SNR, and two middle element counts at the default zeta.
REGIME_CORNERS = [
    pytest.param(m, zeta, p_s_dbm, id=f"M={m:g},zeta={zeta:g},P_s_dBm={p_s_dbm:g}")
    for m, zetas in ((1, (0.05, 50.0)), (100_000, (0.05, 50.0)), (16, (0.6,)), (1024, (0.6,)))
    for zeta in zetas
    for p_s_dbm in (30.0, 150.0, 300.0)
]


# capacity_bits.hex() of the default scenario at (M, zeta) far past the
# contract, where the misalignment weight's breakpoints crowd w = y within
# a few ulps; frozen from the integrator that still called f on its limits.
CROWDED_BREAKPOINT_CAPACITIES = {
    (1, 1e13): "0x1.118b51ed5c26bp-52",
    (1, 1e15): "0x1.118b51ed5c624p-52",
    (1, 1e16): "0x1.118b51ed5c62dp-52",
    (100_000, 1e13): "0x1.88def6b9c9a35p-20",
    (100_000, 1e15): "0x1.88def6b9c9f8dp-20",
    (100_000, 1e16): "0x1.88def6b9c9f9ap-20",
}


@functools.cache
def small_budget_case(name):
    """(model, scenario spec, capacity at the default budget) of one scenario."""
    cfg = default_scenario()
    for param, value in SMALL_BUDGET_SCENARIOS[name]:
        cfg = apply_sweep_value(cfg, param, value)
    model = build_model(cfg)
    return model, cfg.quad, ergodic_capacity(model, cfg.quad)


# The benchmark's reference script, for its closed-form capacity oracle.
_MAKE_REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "make_reference.py"
_spec = importlib.util.spec_from_file_location("make_reference", _MAKE_REFERENCE_PATH)
MAKE_REFERENCE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(MAKE_REFERENCE)


def scenario_config(name):
    cfg = default_scenario()
    if name == "default":
        return cfg
    param, value = name.split("=")
    return apply_sweep_value(cfg, param, float(value))


def fitted_law(mean_snr, shape, zeta):
    """A stand-in for a ``LinkModel`` that holds only the mean SNR, the fit's
    shape k and the misalignment zeta, all that ``ergodic_capacity`` and
    ``snr_cdf`` may read of a scenario."""
    return SimpleNamespace(
        mean_snr=mean_snr, fit=SimpleNamespace(shape=shape), misalign=SimpleNamespace(zeta=zeta)
    )


# The (mean SNR, k, zeta) box of the whole-domain laws: k runs from M = 1
# (1/3) to beyond M = 1e5 (about 4e4), zeta over the contract's range.
LAW_DOMAIN = {"mean_snr": (1e-13, 1e13), "shape": (1.0 / 3.0, 1e5), "zeta": (0.05, 50.0)}


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def law_pairs(draw):
    """Two points of ``LAW_DOMAIN`` that differ in one input by a factor of
    1.02 to 100, the smaller first, and the name of that input."""
    name = draw(st.sampled_from(sorted(LAW_DOMAIN)))
    factor = draw(log_uniform(1.02, 100.0))
    point = {
        key: draw(log_uniform(lo, hi / factor if key == name else hi)) for key, (lo, hi) in LAW_DOMAIN.items()
    }
    return name, point, {**point, name: point[name] * factor}


def capacity_or_miss(law, spec):
    """``ergodic_capacity`` of a stand-in; None after checking that a
    ConvergenceError is a missed contract."""
    try:
        return ergodic_capacity(law, spec)
    except ConvergenceError as exc:
        event("ConvergenceError")
        assert exc.err_est > max(spec.abs_tol, spec.rel_tol * exc.value)
        return None


def ris_params(**overrides):
    params = dict(num_elements=100, beta=2.0, p_s_w=1.0, sigma2_r_w=0.01, sigma2_u_w=0.01)
    params.update(overrides)
    return ActiveRisParams(**params)


def unit_gain_model(**ris_overrides):
    """Model with h_L = 1 and phi = 1 so the SNR scale is easy to read."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geometry = LinkGeometry(
            g_a=1.0, g_b=1.0, f_hz=SPEED_OF_LIGHT / (4.0 * math.pi), d_a_m=1.0, d_b_m=1.0
        )
        return LinkModel(
            geometry=geometry,
            absorption=AbsorptionSpec(kappa=0.0),
            misalign=MisalignmentParams(phi=1.0, zeta=2.0),
            ris=ris_params(**ris_overrides),
        )


class TestActiveRisParams:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ris_params(num_elements=0)
        with pytest.raises(DomainError):
            ris_params(beta=-0.5)
        with pytest.raises(DomainError):
            ris_params(p_s_w=0.0)
        with pytest.raises(DomainError):
            ris_params(sigma2_r_w=-1e-3)
        with pytest.raises(DomainError):
            ris_params(sigma2_u_w=0.0)

    def test_passive_ris_noise_allowed(self):
        assert ris_params(sigma2_r_w=0.0).sigma2_r_w == 0.0

    def test_sub_unity_amplification_warns(self):
        with pytest.warns(UserWarning):
            ris_params(beta=0.5)

    def test_warning_names_the_constructing_line(self):
        with pytest.warns(UserWarning, match="below 1") as record:
            ActiveRisParams(num_elements=4, beta=0.5, p_s_w=1.0, sigma2_r_w=0.01, sigma2_u_w=0.01)
        assert record[0].filename == __file__


class TestSnrScale:
    def test_unit_case(self):
        assert _snr_scale(ris_params(beta=1.0, sigma2_r_w=0.0, sigma2_u_w=1.0)) == 1.0

    def test_substitution(self):
        assert _snr_scale(ris_params(beta=2.0)) == pytest.approx(20.0, rel=1e-14, abs=0)

    def test_large_amplification_limit(self):
        # rho_s * beta^2 -> P_s / sigma_r^2
        ris = ris_params(beta=1e6)
        assert _snr_scale(ris) * ris.beta**2 == pytest.approx(1.0 / 0.01, rel=1e-9)

    @given(
        p_s=st.floats(min_value=1e-3, max_value=1e3),
        beta=st.floats(min_value=0.0, max_value=1e3),
        s_r=st.floats(min_value=0.0, max_value=10.0),
        s_u=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_formula_property(self, p_s, beta, s_r, s_u):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ris = ris_params(beta=beta, p_s_w=p_s, sigma2_r_w=s_r, sigma2_u_w=s_u)
        assert _snr_scale(ris) == pytest.approx(p_s / (beta**2 * s_r + s_u), rel=1e-12, abs=0)


class TestLinkModel:
    def test_derived_fields_consistent(self, default_model, default_cfg):
        assert default_model.h_l == _path_gain(default_cfg.geometry, default_cfg.absorption)
        fit = fit_gamma(cascade_moments(default_cfg.ris.num_elements))
        assert default_model.fit == fit
        phi = default_cfg.misalign.phi
        assert default_model.mean_snr == _snr_coefficient(default_model) * phi * phi * fit.shape * fit.scale
        with pytest.raises(TypeError):
            LinkModel(default_cfg.geometry, default_cfg.absorption, default_cfg.misalign,
                      default_cfg.ris, mean_snr=1.0)


class TestSnrRealization:
    """gamma = _snr_coefficient(model) * x^2 * chi, as capacity and Monte-Carlo use it."""

    def test_zero_cascade(self):
        assert _snr_coefficient(unit_gain_model(beta=0.0)) == 0.0

    def test_all_unit_factors(self):
        model = unit_gain_model(beta=1.0)
        rho = _snr_scale(model.ris)
        assert _snr_coefficient(model) == pytest.approx(rho, rel=1e-12)

    def test_beta_quadruples_without_ris_noise(self):
        low = unit_gain_model(beta=1.0, sigma2_r_w=0.0)
        high = unit_gain_model(beta=2.0, sigma2_r_w=0.0)
        assert _snr_coefficient(high) == pytest.approx(4.0 * _snr_coefficient(low), rel=1e-12)

    @pytest.mark.parametrize("beta", [1e150, 1e153, 1.3e154, 1.34e154])
    def test_capacity_flat_in_saturated_beta(self, default_cfg, beta):
        # rho_s * beta^2 saturates at P_s / sigma_r^2 long before beta^2
        # overflows, while rho_s * h_L^2 alone would be subnormal here.
        def capacity(b):
            model = build_model(apply_sweep_value(default_cfg, "beta", b))
            return ergodic_capacity(model, default_cfg.quad).capacity_bits

        rel_tol = default_cfg.quad.rel_tol
        assert capacity(beta) == pytest.approx(capacity(1e9), rel=rel_tol, abs=0)


class TestUnconditionalCdf:
    def test_zero(self, default_model, default_cfg):
        assert snr_cdf(default_model, 0.0) == 0.0
        # F is about (s / mean SNR)^(zeta/2) at the smallest s.  At 300 dBm
        # s / mean SNR underflows to 0, yet F is 3.2e-102 at zeta = 0.6 and
        # 3.5e-9, well above abs_tol, at zeta = 0.05.
        high = apply_sweep_value(default_cfg, "P_s_dBm", 300.0)
        for cfg in (default_cfg, high, apply_sweep_value(high, "zeta", 0.05)):
            model, zeta = build_model(cfg), cfg.misalign.zeta
            for s in (5e-324, 1e-300):
                expected = snr_cdf_closed_form(model.mean_snr, model.fit.shape, zeta, s)
                assert snr_cdf(model, s) == pytest.approx(expected, rel=1e-8, abs=0)

    def test_substitution_matches_direct_integral_for_unit_zeta(self, default_cfg):
        cfg = default_cfg.replace(misalign=MisalignmentParams(phi=0.3, zeta=1.0))
        model = LinkModel(
            geometry=cfg.geometry, absorption=cfg.absorption,
            misalign=cfg.misalign, ris=cfg.ris,
        )
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=200)
        coeff = _snr_coefficient(model)
        fit = model.fit
        for s in (0.03 * model.mean_snr, model.mean_snr, 30.0 * model.mean_snr):
            direct, _ = integrate_finite(
                lambda x: misalignment_pdf(model.misalign, x)
                * snr_cdf_given_x(fit.shape, fit.scale, coeff, s, x),
                0.0,
                model.misalign.phi,
                spec,
            )
            assert snr_cdf(model, s, spec) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("zeta", [0.05, 0.6, 3.0, 50.0])
    def test_matches_closed_form(self, default_cfg, zeta):
        # F against its closed form at b = s k / (mean SNR) from 1e-60 k,
        # deep in the lower tail where the misalignment weight sets F, up
        # to 31.6 k, for shapes from 1/3 (M = 1) to about 40,250 (M = 1e5);
        # from M = 1024 (k about 412) the incomplete gamma runs Temme's
        # expansion near b = k.
        spec = default_cfg.quad
        for m in (1, 16, 100, 1024, 10_000, 100_000):
            model = build_model(apply_sweep_value(apply_sweep_value(default_cfg, "zeta", zeta), "M", m))
            k = model.fit.shape
            unit = model.mean_snr / k
            for b in k * np.logspace(-60.0, 1.5, 42):
                s = float(b * unit)
                expected = snr_cdf_closed_form(model.mean_snr, k, zeta, s)
                value = snr_cdf(model, s, spec)
                assert abs(value - expected) <= max(spec.abs_tol, spec.rel_tol * expected), (m, b / k)

    def test_valid_cdf_on_log_grid(self, default_model):
        grid = default_model.mean_snr * np.logspace(-6.0, 3.0, 64)
        previous = snr_cdf(default_model, 0.0)
        assert previous == 0.0
        for s in grid:
            value = snr_cdf(default_model, float(s))
            assert 0.0 <= value <= 1.0
            assert value >= previous - 1e-9
            previous = value
        assert previous == pytest.approx(1.0, abs=1e-6)

    def test_median_of_simulated_snr(self, default_model):
        gammas = snr_samples(default_model, McConfig(trials=1_000_000, seed=2024))
        median = float(np.median(gammas))
        assert 0.49 <= snr_cdf(default_model, median) <= 0.51


class TestErgodicCapacity:
    def test_no_reflection_gives_zero(self, default_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ris = ris_params(beta=0.0)
        model = LinkModel(
            geometry=default_cfg.geometry, absorption=default_cfg.absorption,
            misalign=default_cfg.misalign, ris=ris,
        )
        result = ergodic_capacity(model)
        assert result.capacity_bits == 0.0
        assert result.quad_err == 0.0
        for s in (0.0, 5e-324, 1.0, 1e300):
            assert snr_cdf(model, s) == 1.0

    @pytest.mark.parametrize("gamma0", [1e-6, 0.5, 3.0])
    def test_degenerate_snr_test_double(self, gamma0):
        step_cdf = lambda s: 0.0 if s < gamma0 else 1.0
        spec = QuadratureSpec(max_subdivisions=200)
        value, err = capacity_from_snr_cdf(step_cdf, spec, snr_scale_hint=gamma0)
        assert value == pytest.approx(math.log2(1.0 + gamma0), rel=1e-7, abs=0)

    def test_default_scenario_matches_simulation(self, default_model, default_cfg):
        result = ergodic_capacity(default_model, default_cfg.quad)
        estimate = estimate_ergodic_rate(default_model, McConfig(trials=200_000, seed=11))
        assert abs(result.capacity_bits - estimate.mean) <= max(
            0.05 * estimate.mean, 4.0 * estimate.std_error
        )

    def test_monotone_in_transmit_power(self, default_cfg):
        capacities = []
        for p_s in (0.5, 1.0, 2.0):
            cfg = default_cfg.replace(ris=default_cfg.ris.replace(p_s_w=p_s))
            model = LinkModel(cfg.geometry, cfg.absorption, cfg.misalign, cfg.ris)
            capacities.append(ergodic_capacity(model, cfg.quad).capacity_bits)
        assert capacities[0] <= capacities[1] <= capacities[2]

    def test_monotone_in_element_count(self, default_cfg):
        capacities = []
        for m in (25, 100, 400):
            cfg = default_cfg.replace(ris=default_cfg.ris.replace(num_elements=m))
            model = LinkModel(cfg.geometry, cfg.absorption, cfg.misalign, cfg.ris)
            capacities.append(ergodic_capacity(model, cfg.quad).capacity_bits)
        assert capacities[0] <= capacities[1] <= capacities[2]

    def test_monotone_in_peak_capture(self, default_cfg):
        capacities = []
        for phi in (0.04, 0.108, 0.3):
            cfg = default_cfg.replace(misalign=default_cfg.misalign.replace(phi=phi))
            model = LinkModel(cfg.geometry, cfg.absorption, cfg.misalign, cfg.ris)
            capacities.append(ergodic_capacity(model, cfg.quad).capacity_bits)
        assert capacities[0] <= capacities[1] <= capacities[2]

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_matches_reference(self, name):
        cfg = scenario_config(name)
        result = ergodic_capacity(build_model(cfg), cfg.quad)
        reference = REFERENCE[name]
        expected = reference["capacity_bits"]
        assert result.capacity_bits == pytest.approx(expected, rel=1e-8, abs=0)
        # The error bar must cover the gap, up to the reference's own error:
        # its scipy quadrature estimate and its distance from mpmath.
        reference_err = abs(expected - reference["mpmath_capacity_bits"]) + reference["scipy_err_bits"]
        assert abs(result.capacity_bits - expected) <= result.quad_err + reference_err

    def test_million_elements_converge(self, default_cfg):
        cfg = apply_sweep_value(default_cfg, "M", 1e6)
        result = ergodic_capacity(build_model(cfg), cfg.quad)
        assert result.capacity_bits > 0.0

    def test_missed_contract_raises(self, default_cfg):
        # At 300 dBm and M = 1e5 the mixture integrals converge within one
        # bisection, but the capacity integral is 1.6e-5 bits off after it.
        cfg = apply_sweep_value(apply_sweep_value(default_cfg, "P_s_dBm", 300.0), "M", 1e5)
        spec = cfg.quad.replace(max_subdivisions=1)
        with pytest.raises(ConvergenceError, match=r"exceeds max\(abs_tol, rel_tol \* C\)") as excinfo:
            ergodic_capacity(build_model(cfg), spec)
        exc = excinfo.value
        assert exc.err_est > max(spec.abs_tol, spec.rel_tol * exc.value)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", sorted(SMALL_BUDGET_SCENARIOS))
    def test_budget_bounds_only_the_capacity_integral(self, name, budget):
        # max_subdivisions bounds the capacity integral and not the CDF
        # integrals inside it, so a small budget either meets the contract
        # or raises the capacity's own error, whose value is in bits.
        model, spec, full = small_budget_case(name)
        spec = spec.replace(max_subdivisions=budget)
        try:
            result = ergodic_capacity(model, spec)
        except ConvergenceError as exc:
            assert "exceeds max(abs_tol, rel_tol * C)" in str(exc)
            assert abs(exc.value - full.capacity_bits) <= exc.err_est
        else:
            assert result.quad_err <= max(spec.abs_tol, spec.rel_tol * result.capacity_bits)
            assert abs(result.capacity_bits - full.capacity_bits) <= result.quad_err + full.quad_err

    def test_cdf_failure_is_not_taken_as_capacity(self, default_model, monkeypatch):
        # A failed CDF integral carries a CDF value, not a capacity in bits;
        # taken as the capacity integral's estimate, it would pass the
        # contract as 0.5 / ln 2 bits.
        failure = ConvergenceError("CDF budget spent", value=0.5, err_est=1e-12)

        def failing_cdf(*args):
            raise failure

        monkeypatch.setattr(thzris.capacity, "_mixture_cdf", failing_cdf)
        with pytest.raises(ConvergenceError) as excinfo:
            ergodic_capacity(default_model)
        assert excinfo.value is failure

    @pytest.mark.parametrize("m, zeta", sorted(CROWDED_BREAKPOINT_CAPACITIES))
    def test_integrand_never_called_on_a_limit(self, default_cfg, monkeypatch, m, zeta):
        # Breakpoints within the rule's resolution of y are merged, so no
        # abscissa of any CDF or capacity integral lies on or outside [a, b].
        outside = []
        integrate = thzris.capacity.integrate_finite

        def recording(f, a, b, spec=None, points=()):
            def recorded(x):
                if not a < x < b:
                    outside.append((a, x, b))
                return f(x)

            return integrate(recorded, a, b, spec, points)

        monkeypatch.setattr(thzris.capacity, "integrate_finite", recording)
        cfg = apply_sweep_value(apply_sweep_value(default_cfg, "M", m), "zeta", zeta)
        result = ergodic_capacity(build_model(cfg), cfg.quad)
        assert outside == []
        assert result.capacity_bits.hex() == CROWDED_BREAKPOINT_CAPACITIES[m, zeta]

    @pytest.mark.parametrize("m, p_s_dbm, zeta", HIGH_SNR_CASES)
    def test_high_snr_matches_log_moment_asymptote(self, default_cfg, m, p_s_dbm, zeta):
        # C ln 2 -> E[ln gamma] + E[1/gamma] as the SNR grows.  With m the mean
        # SNR, gamma = (m / k) u G for u = (x / phi)^2 and G ~ Gamma(k, 1), so
        # E[ln gamma] = ln(m / k) + psi(k) - 2/zeta and,
        # for zeta > 2 and k > 1, E[1/gamma] = zeta / ((zeta - 2)(k - 1) m / k);
        # elsewhere E[1/gamma] is infinite and the correction is of the
        # remainder's order.  The remainder is O(gamma^-min(k, 2, zeta/2)),
        # below 1e-17 bits here.  At 700 dBm the 1/(1+s) knee lies below
        # y = -120.
        cfg = apply_sweep_value(default_cfg, "M", m)
        cfg = apply_sweep_value(apply_sweep_value(cfg, "P_s_dBm", p_s_dbm), "zeta", zeta)
        model = build_model(cfg)
        result = ergodic_capacity(model, cfg.quad)
        k = model.fit.shape
        scale = model.mean_snr / k
        asymptote = math.log(scale) + scipy.special.digamma(k) - 2.0 / zeta
        if zeta > 2.0 and k > 1.0:
            asymptote += zeta / ((zeta - 2.0) * (k - 1.0) * scale)
        assert scale ** -min(k, 2.0, zeta / 2.0) < 1e-17
        assert abs(result.capacity_bits - asymptote / LN2) <= result.quad_err + 1e-9

    @pytest.mark.parametrize("p_s_dbm", [150.0, 300.0])
    def test_matches_closed_form_between_the_expansions(self, default_cfg, p_s_dbm):
        # At M = 1 and zeta = 0.05 neither the low-SNR series nor the
        # high-SNR asymptote holds at these powers: the asymptote's remainder
        # decays only as gamma^-0.025.  The oracle is the closed-form CDF of
        # perfbench/reference/make_reference.py, integrated with scipy.
        cfg = apply_sweep_value(default_cfg, "M", 1)
        cfg = apply_sweep_value(apply_sweep_value(cfg, "P_s_dBm", p_s_dbm), "zeta", 0.05)
        result = ergodic_capacity(build_model(cfg), cfg.quad)
        oracle, oracle_err = MAKE_REFERENCE.capacity_scipy(MAKE_REFERENCE.model_constants(cfg))
        assert abs(result.capacity_bits - oracle) <= result.quad_err + oracle_err

    @pytest.mark.parametrize("m, zeta, spec", MOMENT_SERIES_CASES)
    def test_low_snr_matches_moment_series(self, default_cfg, m, zeta, spec):
        # C ln 2 = sum_n (-1)^(n+1) E[gamma^n] / n, with
        # E[gamma^n] = (mean SNR)^n zeta / (zeta + 2n) prod_(j<n) (1 + j/k);
        # two terms, where the third is below the tolerance.
        cfg = apply_sweep_value(apply_sweep_value(default_cfg, "M", m), "zeta", zeta)
        spec = spec or cfg.quad
        model = build_model(cfg)
        result = ergodic_capacity(model, spec)
        series, third = low_snr_series(model.mean_snr, model.fit.shape, zeta)
        assert third <= spec.rel_tol * series
        assert abs(result.capacity_bits * LN2 - series) <= result.quad_err * LN2 + third + 1e-15 * series

    def test_ccdf_route_matches_density_route(self, default_model):
        """(1/ln2) int (1-F)/(1+s) ds must equal the expectation of
        log2(1+gamma) against the fitted mixture density."""
        result = ergodic_capacity(default_model)

        fit = default_model.fit
        shape, log_gamma_shape = fit.shape, math.lgamma(fit.shape)
        big_c = default_model.mean_snr / shape
        power = 2.0 / default_model.misalign.zeta
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=200)

        def gamma_pdf(w: float) -> float:
            return math.exp((shape - 1.0) * math.log(w) - w - log_gamma_shape)

        def mean_log1p_over_scale(c: float) -> float:
            # E[log1p(c W)] / c for W ~ Gamma(shape, 1)
            value, _ = integrate_semi_infinite(
                lambda w: (math.log1p(c * w) / c) * gamma_pdf(w) if w > 0.0 else 0.0,
                spec,
            )
            return value

        outer, _ = integrate_finite(
            lambda u: u**power * mean_log1p_over_scale(big_c * u**power) if u > 0.0 else 0.0,
            0.0,
            1.0,
            spec,
        )
        density_route = big_c * outer / LN2
        assert result.capacity_bits == pytest.approx(density_route, rel=1e-6, abs=0)


class TestGammaFitOracle:
    """``oracles.gamma_fit_capacity`` reaches the capacity through the Gamma
    MGF, with no incomplete gamma, so it checks the regime corners that the
    40-digit references do not cover.  A quad warning inside it raises,
    except scipy's roundoff warning on an inner integral below the smallest
    normal double."""

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_matches_mpmath_reference(self, name):
        params = REFERENCE[name]["params"]
        mean_snr = params["coeff"] * params["phi"] ** 2 * params["shape"] * params["scale"]
        oracle = gamma_fit_capacity(mean_snr, params["shape"], params["zeta"])
        assert oracle == pytest.approx(REFERENCE[name]["mpmath_capacity_bits"], rel=1e-14, abs=0)

    @pytest.mark.parametrize("m, zeta, p_s_dbm", REGIME_CORNERS)
    def test_regime_corner(self, default_cfg, m, zeta, p_s_dbm):
        cfg = default_cfg
        for param, value in (("M", m), ("zeta", zeta), ("P_s_dBm", p_s_dbm)):
            cfg = apply_sweep_value(cfg, param, value)
        model = build_model(cfg)
        result = ergodic_capacity(model, cfg.quad)
        oracle = gamma_fit_capacity(model.mean_snr, model.fit.shape, zeta)
        capacity = result.capacity_bits
        assert abs(capacity - oracle) <= result.quad_err + 1e-14 * capacity

    @pytest.mark.parametrize(
        "m, zeta, p_s_dbm",
        [(1e5, 0.05, 250.0), (1e5, 0.6, 150.0), (1e8, 0.05, 200.0), (1, 0.05, 30.0), (16, 0.6, 150.0)],
    )
    def test_inner_integral_below_normal_range(self, default_cfg, m, zeta, p_s_dbm):
        # The first three points need the oracle's series for h(a) at k a < 1e-150, where
        # quad's inner integral ended in a warning; the last two run quad and are controls.
        cfg = default_cfg
        for param, value in (("M", m), ("zeta", zeta), ("P_s_dBm", p_s_dbm)):
            cfg = apply_sweep_value(cfg, param, value)
        model = build_model(cfg)
        capacity = ergodic_capacity(model, cfg.quad).capacity_bits
        oracle = gamma_fit_capacity(model.mean_snr, model.fit.shape, zeta)
        assert capacity == pytest.approx(oracle, rel=cfg.quad.rel_tol, abs=0)


class TestFittedLawInputs:
    """Under the Gamma fit the capacity and the CDF read a scenario only
    through (mean SNR, k, zeta), so laws proven in those three numbers can
    be drawn over the whole domain, with no slow oracle."""

    @pytest.mark.parametrize(
        "changes",
        [(), (("M", 1), ("P_s_dBm", 250.0)), (("M", 1e5), ("zeta", 0.05))],
        ids=["default", "M=1,P_s_dBm=250", "M=1e5,zeta=0.05"],
    )
    def test_stand_in_matches_model(self, default_cfg, changes):
        cfg = default_cfg
        for param, value in changes:
            cfg = apply_sweep_value(cfg, param, value)
        model = build_model(cfg)
        law = fitted_law(model.mean_snr, model.fit.shape, model.misalign.zeta)
        real, stand_in = ergodic_capacity(model, cfg.quad), ergodic_capacity(law, cfg.quad)
        assert stand_in.capacity_bits.hex() == real.capacity_bits.hex()
        assert stand_in.quad_err == real.quad_err
        for ratio in (1e-6, 0.1, 1.0, 10.0):
            s = ratio * model.mean_snr
            assert snr_cdf(law, s, cfg.quad) == snr_cdf(model, s, cfg.quad)

    @settings(max_examples=30, derandomize=True, deadline=None, phases=NO_SHRINK)
    @given(
        mean_snr=log_uniform(*LAW_DOMAIN["mean_snr"]),
        shape=log_uniform(*LAW_DOMAIN["shape"]),
        zeta=log_uniform(*LAW_DOMAIN["zeta"]),
    )
    def test_capacity_within_proven_bracket(self, mean_snr, shape, zeta):
        # max(E ln gamma, E gamma - E gamma^2 / 2) <= C ln 2 <= log1p(E gamma):
        # 1e-16 of C wide at low SNR, a sanity check at mid SNR.
        spec = QuadratureSpec()
        result = capacity_or_miss(fitted_law(mean_snr, shape, zeta), spec)
        if result is not None:
            lower, upper = capacity_bracket(mean_snr, shape, zeta)
            nats, err = result.capacity_bits * LN2, result.quad_err * LN2
            assert lower - err <= nats <= upper + err

    @settings(max_examples=15, derandomize=True, deadline=None, phases=NO_SHRINK)
    @given(pair=law_pairs())
    def test_capacity_nondecreasing_in_each_input(self, pair):
        # C grows with the mean SNR; with zeta, since u = (x / phi)^2 then grows
        # stochastically; and with k, since G / k at a smaller shape is larger
        # in convex order and ln(1 + gamma) is concave.
        name, low, high = pair
        event(f"larger {name}")
        spec = QuadratureSpec()
        first = capacity_or_miss(fitted_law(**low), spec)
        second = capacity_or_miss(fitted_law(**high), spec)
        if first is not None and second is not None:
            assert first.capacity_bits <= second.capacity_bits + first.quad_err + second.quad_err
