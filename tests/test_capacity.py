import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
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
    chi_cdf,
    ergodic_capacity,
    estimate_ergodic_rate,
    fit_gamma,
    integrate_finite,
    integrate_semi_infinite,
    misalignment_pdf,
    path_gain,
    snr_cdf,
    snr_cdf_conditional,
    snr_realization,
    snr_samples,
    snr_scale,
)
from thzris.capacity import _snr_coefficient

LN2 = math.log(2.0)


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
        assert snr_scale(ris_params(beta=2.0)) == pytest.approx(20.0, rel=1e-14)

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
        assert snr_scale(ris) == pytest.approx(p_s / (beta**2 * s_r + s_u), rel=1e-12)


class TestLinkModel:
    def test_derived_fields_consistent(self, default_model, default_cfg):
        assert default_model.h_l == path_gain(default_cfg.geometry, default_cfg.absorption)
        fit = fit_gamma(cascade_moments(default_cfg.ris.num_elements))
        assert default_model.fit == fit


class TestSnrRealization:
    def test_zero_cascade(self, default_model):
        assert snr_realization(default_model, 0.05, 0.0) == 0.0

    def test_all_unit_factors(self):
        model = unit_gain_model(beta=1.0)
        rho = snr_scale(model.ris)
        assert snr_realization(model, 1.0, 1.0) == pytest.approx(rho, rel=1e-12)

    def test_beta_quadruples_without_ris_noise(self):
        low = unit_gain_model(beta=1.0, sigma2_r_w=0.0)
        high = unit_gain_model(beta=2.0, sigma2_r_w=0.0)
        x, chi = 0.7, 2.3
        assert snr_realization(high, x, chi) == pytest.approx(
            4.0 * snr_realization(low, x, chi), rel=1e-12
        )

    def test_domain(self, default_model):
        with pytest.raises(DomainError):
            snr_realization(default_model, -0.01, 1.0)
        with pytest.raises(DomainError):
            snr_realization(default_model, default_model.misalign.phi * 1.01, 1.0)
        with pytest.raises(DomainError):
            snr_realization(default_model, 0.05, -1.0)


class TestConditionalCdf:
    def test_zero_snr(self, default_model):
        assert snr_cdf_conditional(default_model, 0.0, 0.05) == 0.0

    def test_upper_limit(self, default_model):
        phi = default_model.misalign.phi
        fit = default_model.fit
        s = 1e6 * _snr_coefficient(default_model) * phi**2 * fit.shape * fit.scale
        assert snr_cdf_conditional(default_model, s, phi) == pytest.approx(1.0, abs=1e-12)

    def test_matches_cascade_cdf(self, default_model):
        # F(s|x) must be the cascade CDF evaluated at s / (coeff x^2)
        coeff = _snr_coefficient(default_model)
        for x in (0.01, 0.05, default_model.misalign.phi):
            for s in (1e-16, 1e-13, 1e-11):
                expected = chi_cdf(default_model.fit, s / (coeff * x * x))
                assert snr_cdf_conditional(default_model, s, x) == pytest.approx(
                    expected, rel=1e-12, abs=0
                )

    def test_degenerate_alignment(self, default_model):
        assert snr_cdf_conditional(default_model, 0.0, 0.0) == 0.0
        assert snr_cdf_conditional(default_model, 1e-20, 0.0) == 1.0

    def test_domain(self, default_model):
        with pytest.raises(DomainError):
            snr_cdf_conditional(default_model, -1.0, 0.05)
        with pytest.raises(DomainError):
            snr_cdf_conditional(default_model, 1.0, default_model.misalign.phi * 1.01)


class TestUnconditionalCdf:
    def test_zero(self, default_model):
        assert snr_cdf(default_model, 0.0) == 0.0

    def test_substitution_matches_direct_integral_for_unit_zeta(self, default_cfg):
        cfg = replace(default_cfg, misalign=MisalignmentParams(phi=0.3, zeta=1.0))
        model = LinkModel(
            geometry=cfg.geometry, absorption=cfg.absorption,
            misalign=cfg.misalign, ris=cfg.ris,
        )
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=200)
        coeff = _snr_coefficient(model)
        scale_snr = coeff * model.misalign.phi**2 * model.fit.shape * model.fit.scale
        for s in (0.03 * scale_snr, scale_snr, 30.0 * scale_snr):
            direct, _ = integrate_finite(
                lambda x: misalignment_pdf(model.misalign, x)
                * snr_cdf_conditional(model, s, x),
                0.0,
                model.misalign.phi,
                spec,
            )
            assert snr_cdf(model, s, spec) == pytest.approx(direct, abs=1e-9)

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
        assert value == pytest.approx(math.log2(1.0 + gamma0), rel=1e-7)

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

    def test_missed_contract_raises(self, default_cfg):
        # At 300 dBm the outer integral converges in variables normalized by
        # the mean SNR, and its error estimate in bits exceeds the value.
        cfg = apply_sweep_value(default_cfg, "P_s_dBm", 300.0)
        with pytest.raises(ConvergenceError) as excinfo:
            ergodic_capacity(build_model(cfg), cfg.quad)
        exc = excinfo.value
        assert exc.err_est > max(cfg.quad.abs_tol, cfg.quad.rel_tol * exc.value)

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
