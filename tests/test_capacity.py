import importlib.util
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

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
    capacity_from_snr_cdf,
    cascade_moments,
    default_scenario,
    ergodic_capacity,
    estimate_ergodic_rate,
    fit_gamma,
    integrate_finite,
    integrate_semi_infinite,
    misalignment_pdf,
    path_gain,
    snr_cdf,
    snr_samples,
    snr_scale,
)
from thzris.capacity import _snr_coefficient

from oracles import snr_cdf_closed_form, snr_cdf_given_x

LN2 = math.log(2.0)

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


class TestSnrScale:
    def test_unit_case(self):
        assert snr_scale(ris_params(beta=1.0, sigma2_r_w=0.0, sigma2_u_w=1.0)) == 1.0

    def test_substitution(self):
        assert snr_scale(ris_params(beta=2.0)) == pytest.approx(20.0, rel=1e-14, abs=0)

    def test_large_amplification_limit(self):
        # rho_s * beta^2 -> P_s / sigma_r^2
        ris = ris_params(beta=1e6)
        assert snr_scale(ris) * ris.beta**2 == pytest.approx(1.0 / 0.01, rel=1e-9)

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
        assert snr_scale(ris) == pytest.approx(p_s / (beta**2 * s_r + s_u), rel=1e-12, abs=0)


class TestLinkModel:
    def test_derived_fields_consistent(self, default_model, default_cfg):
        assert default_model.h_l == path_gain(default_cfg.geometry, default_cfg.absorption)
        fit = fit_gamma(cascade_moments(default_cfg.ris.num_elements))
        assert default_model.fit == fit


class TestSnrRealization:
    """gamma = _snr_coefficient(model) * x^2 * chi, as capacity and Monte-Carlo use it."""

    def test_zero_cascade(self):
        assert _snr_coefficient(unit_gain_model(beta=0.0)) == 0.0

    def test_all_unit_factors(self):
        model = unit_gain_model(beta=1.0)
        rho = snr_scale(model.ris)
        assert _snr_coefficient(model) == pytest.approx(rho, rel=1e-12)

    def test_beta_quadruples_without_ris_noise(self):
        low = unit_gain_model(beta=1.0, sigma2_r_w=0.0)
        high = unit_gain_model(beta=2.0, sigma2_r_w=0.0)
        assert _snr_coefficient(high) == pytest.approx(4.0 * _snr_coefficient(low), rel=1e-12)


class TestUnconditionalCdf:
    def test_zero(self, default_model, default_cfg):
        assert snr_cdf(default_model, 0.0) == 0.0
        # F is about (s / mean SNR)^(zeta/2) at the smallest s.  At 300 dBm
        # s / mean SNR underflows to 0, yet F is 3.2e-102 at zeta = 0.6 and
        # 3.5e-9, well above abs_tol, at zeta = 0.05.
        high = apply_sweep_value(default_cfg, "P_s_dBm", 300.0)
        for cfg in (default_cfg, high, apply_sweep_value(high, "zeta", 0.05)):
            model, zeta = build_model(cfg), cfg.misalign.zeta
            unit = _snr_coefficient(model) * model.misalign.phi**2 * model.fit.scale
            for s in (5e-324, 1e-300):
                expected = snr_cdf_closed_form(model.fit.shape, zeta, s, unit)
                assert snr_cdf(model, s) == pytest.approx(expected, rel=1e-8, abs=0)

    def test_substitution_matches_direct_integral_for_unit_zeta(self, default_cfg):
        cfg = replace(default_cfg, misalign=MisalignmentParams(phi=0.3, zeta=1.0))
        model = LinkModel(
            geometry=cfg.geometry, absorption=cfg.absorption,
            misalign=cfg.misalign, ris=cfg.ris,
        )
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=200)
        coeff = _snr_coefficient(model)
        fit = model.fit
        scale_snr = coeff * model.misalign.phi**2 * fit.shape * fit.scale
        for s in (0.03 * scale_snr, scale_snr, 30.0 * scale_snr):
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
        # F against its closed form at b = s / (c phi^2 theta) from 1e-60 k,
        # deep in the lower tail where the misalignment weight sets F, up
        # to 31.6 k, for shapes from 1/3 (M = 1) to the default's.
        spec = default_cfg.quad
        for m in (1, 16, 100):
            model = build_model(apply_sweep_value(apply_sweep_value(default_cfg, "zeta", zeta), "M", m))
            k = model.fit.shape
            unit = _snr_coefficient(model) * model.misalign.phi**2 * model.fit.scale
            for b in k * np.logspace(-60.0, 1.5, 42):
                s = float(b * unit)
                expected = snr_cdf_closed_form(k, zeta, s, unit)
                value = snr_cdf(model, s, spec)
                assert abs(value - expected) <= max(spec.abs_tol, spec.rel_tol * expected), (m, b / k)

    def test_valid_cdf_on_log_grid(self, default_model):
        fit = default_model.fit
        scale_snr = (
            _snr_coefficient(default_model) * default_model.misalign.phi**2
            * fit.shape * fit.scale
        )
        grid = scale_snr * np.logspace(-6.0, 3.0, 64)
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
            cfg = replace(default_cfg, ris=replace(default_cfg.ris, p_s_w=p_s))
            model = LinkModel(cfg.geometry, cfg.absorption, cfg.misalign, cfg.ris)
            capacities.append(ergodic_capacity(model, cfg.quad).capacity_bits)
        assert capacities[0] <= capacities[1] <= capacities[2]

    def test_monotone_in_element_count(self, default_cfg):
        capacities = []
        for m in (25, 100, 400):
            cfg = replace(default_cfg, ris=replace(default_cfg.ris, num_elements=m))
            model = LinkModel(cfg.geometry, cfg.absorption, cfg.misalign, cfg.ris)
            capacities.append(ergodic_capacity(model, cfg.quad).capacity_bits)
        assert capacities[0] <= capacities[1] <= capacities[2]

    def test_monotone_in_peak_capture(self, default_cfg):
        capacities = []
        for phi in (0.04, 0.108, 0.3):
            cfg = replace(default_cfg, misalign=replace(default_cfg.misalign, phi=phi))
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
        spec = replace(cfg.quad, max_subdivisions=1)
        with pytest.raises(ConvergenceError, match=r"exceeds max\(abs_tol, rel_tol \* C\)") as excinfo:
            ergodic_capacity(build_model(cfg), spec)
        exc = excinfo.value
        assert exc.err_est > max(spec.abs_tol, spec.rel_tol * exc.value)

    @pytest.mark.parametrize("m, p_s_dbm, zeta", HIGH_SNR_CASES)
    def test_high_snr_matches_log_moment_asymptote(self, default_cfg, m, p_s_dbm, zeta):
        # C ln 2 -> E[ln gamma] + E[1/gamma] as the SNR grows, with
        # E[ln chi] = psi(k) + ln theta, E[ln x^2] = 2 ln phi - 2/zeta and,
        # for zeta > 2 and k > 1, E[1/gamma] = zeta / ((zeta - 2)(k - 1) c theta phi^2);
        # elsewhere E[1/gamma] is infinite and the correction is of the
        # remainder's order.  The remainder is O(gamma^-min(k, 2, zeta/2)),
        # below 1e-17 bits here.  At 700 dBm the 1/(1+s) knee lies below
        # y = -120.
        cfg = apply_sweep_value(default_cfg, "M", m)
        cfg = apply_sweep_value(apply_sweep_value(cfg, "P_s_dBm", p_s_dbm), "zeta", zeta)
        model = build_model(cfg)
        result = ergodic_capacity(model, cfg.quad)
        k = model.fit.shape
        scale = _snr_coefficient(model) * model.fit.scale * model.misalign.phi**2
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
        # E[gamma^n] = (c theta phi^2)^n zeta / (zeta + 2n) Gamma(k+n) / Gamma(k);
        # two terms, where the third is below the tolerance.
        cfg = apply_sweep_value(apply_sweep_value(default_cfg, "M", m), "zeta", zeta)
        spec = spec or cfg.quad
        model = build_model(cfg)
        result = ergodic_capacity(model, spec)
        k = model.fit.shape
        scale = _snr_coefficient(model) * model.fit.scale * model.misalign.phi**2
        rising = (k, k * (k + 1.0), k * (k + 1.0) * (k + 2.0))
        moments = [scale**n * zeta / (zeta + 2.0 * n) * rising[n - 1] for n in (1, 2, 3)]
        series = moments[0] - moments[1] / 2.0
        third = moments[2] / 3.0
        assert third <= spec.rel_tol * series
        assert abs(result.capacity_bits * LN2 - series) <= result.quad_err * LN2 + third + 1e-15 * series

    def test_ccdf_route_matches_density_route(self, default_model):
        """(1/ln2) int (1-F)/(1+s) ds must equal the expectation of
        log2(1+gamma) against the fitted mixture density."""
        result = ergodic_capacity(default_model)

        fit = default_model.fit
        shape, log_gamma_shape = fit.shape, math.lgamma(fit.shape)
        coeff = _snr_coefficient(default_model)
        big_c = coeff * default_model.misalign.phi**2 * fit.scale
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
