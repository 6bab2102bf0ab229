import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thzris import (
    CascadeMoments,
    DomainError,
    GammaFit,
    McConfig,
    cascade_moments,
    cascade_samples,
    fit_gamma,
    reg_lower_gamma,
)

from oracles import cascade_chi_moments

# Var chi as E{S^4} - mean_chi^2 in doubles lost digits from M = 100 and
# came out <= 0 from M = 3e16; the cumulant form must hold at all of these.
ORACLE_ELEMENT_COUNTS = [1, 16, 100, 10**4, 10**6, 10**8, 10**12, 3 * 10**16, 10**20]


class TestCascadeMoments:
    def test_single_element(self):
        m = cascade_moments(1)
        assert m.mean_s == pytest.approx(math.pi / 4.0, rel=1e-15, abs=0)
        assert m.var_s == pytest.approx(1.0 - math.pi**2 / 16.0, rel=1e-15, abs=0)
        assert m.mean_chi == pytest.approx(1.0, rel=1e-15, abs=0)
        assert m.var_chi == pytest.approx(3.0, rel=1e-14, abs=0)

    def test_second_moment_formula_m100(self):
        # mean_chi = (M pi/4)^2 + M (1 - pi^2/16), evaluated directly
        m = cascade_moments(100)
        expected = (100.0 * math.pi / 4.0) ** 2 + 100.0 * (1.0 - math.pi**2 / 16.0)
        assert m.mean_chi == pytest.approx(expected, rel=1e-14)
        assert m.mean_chi == pytest.approx(6206.8177, rel=1e-7)

    def test_gaussian_surrogate_formula(self):
        # The oracle's surrogate E{S^4} = var_chi + mean_chi^2 is the Gaussian
        # identity in the package's mu and v.
        m = cascade_moments(16)
        mu, v = m.mean_s, m.var_s
        mean_chi, var_chi = cascade_chi_moments(16, "gaussian_surrogate")
        assert float(var_chi + mean_chi**2) == pytest.approx(
            mu**4 + 6.0 * mu**2 * v + 3.0 * v**2, rel=1e-14
        )

    @pytest.mark.parametrize("m", ORACLE_ELEMENT_COUNTS, ids=lambda m: f"{m}-exact")
    def test_var_chi_matches_oracle(self, m):
        _, var_chi = cascade_chi_moments(m, "exact")
        assert cascade_moments(m).var_chi == pytest.approx(float(var_chi), rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", ORACLE_ELEMENT_COUNTS)
    def test_fit_shape_matches_oracle(self, m):
        mean_chi, var_chi = cascade_chi_moments(m, "exact")
        expected = float(mean_chi**2 / var_chi)
        assert fit_gamma(cascade_moments(m)).shape == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", sorted([10, *ORACLE_ELEMENT_COUNTS]))
    def test_literal_mode_diagnostic_fires(self, m):
        # The literal recipe's variance is -mu^2 v, negative at every M, so it
        # has no Gamma fit.
        _, var_chi = cascade_chi_moments(m, "literal")
        moments = cascade_moments(m)
        assert var_chi < 0
        assert -moments.mean_s**2 * moments.var_s == pytest.approx(float(var_chi), rel=1e-15, abs=0)

    def test_surrogate_close_to_exact_at_large_m(self):
        _, surrogate = cascade_chi_moments(100, "gaussian_surrogate")
        exact = cascade_moments(100).var_chi
        assert abs(float(surrogate) - exact) / exact < 0.02

    def test_rejects_bad_element_count(self):
        with pytest.raises(DomainError):
            cascade_moments(0)
        with pytest.raises(DomainError):
            cascade_moments(-4)
        with pytest.raises(DomainError):
            cascade_moments(2.5)

    @pytest.mark.parametrize("m", [1, 16])
    def test_exact_moments_match_simulation(self, m):
        # light cross-check; the 1e7-draw version lives in the acceptance suite
        chi = cascade_samples(m, McConfig(trials=1_000_000, seed=4321))
        s = np.sqrt(chi)
        moments = cascade_moments(m)
        n = len(s)
        se_mean_s = s.std(ddof=1) / math.sqrt(n)
        assert abs(s.mean() - moments.mean_s) <= 4.0 * se_mean_s
        se_mean_chi = chi.std(ddof=1) / math.sqrt(n)
        assert abs(chi.mean() - moments.mean_chi) <= 4.0 * se_mean_chi
        var_chi = chi.var(ddof=1)
        central4 = np.mean((chi - chi.mean()) ** 4)
        se_var_chi = math.sqrt(max(central4 - var_chi**2, 0.0) / n)
        assert abs(var_chi - moments.var_chi) <= 4.0 * se_var_chi


class TestGammaFit:
    def test_formula_substitution(self):
        fit = fit_gamma(
            CascadeMoments(mean_s=1.0, var_s=1.0, mean_chi=1.0, var_chi=3.0)
        )
        assert fit.shape == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)
        assert fit.scale == pytest.approx(3.0, rel=1e-15, abs=0)

    def test_round_trip(self):
        shape, scale = 2.5, 0.8
        fit = fit_gamma(
            CascadeMoments(mean_s=1.0, var_s=1.0, mean_chi=shape * scale,
                           var_chi=shape * scale**2)
        )
        assert fit.shape == pytest.approx(shape, rel=1e-14, abs=0)
        assert fit.scale == pytest.approx(scale, rel=1e-14, abs=0)

    def test_preserves_moments_for_m64(self):
        moments = cascade_moments(64)
        fit = fit_gamma(moments)
        assert fit.shape * fit.scale == pytest.approx(moments.mean_chi, rel=1e-13)
        assert fit.shape * fit.scale**2 == pytest.approx(moments.var_chi, rel=1e-13)

    @given(
        mean=st.floats(min_value=1e-6, max_value=1e6),
        var=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_round_trip_property(self, mean, var):
        fit = fit_gamma(
            CascadeMoments(mean_s=1.0, var_s=1.0, mean_chi=mean, var_chi=var)
        )
        assert fit.shape * fit.scale == pytest.approx(mean, rel=1e-12, abs=0)
        assert fit.shape * fit.scale**2 == pytest.approx(var, rel=1e-12, abs=0)

    def test_rejects_nonpositive_variance(self):
        bad = CascadeMoments(mean_s=1.0, var_s=1.0, mean_chi=1.0, var_chi=-0.25)
        with pytest.raises(DomainError):
            fit_gamma(bad)

    def test_gamma_fit_invariants(self):
        with pytest.raises(DomainError):
            GammaFit(shape=0.0, scale=1.0)
        with pytest.raises(DomainError):
            GammaFit(shape=1.0, scale=-1.0)


class TestChiCdf:
    """The fitted cascade power has CDF reg_lower_gamma(shape, s / scale)."""

    def test_matches_empirical_percentiles_m100(self):
        chi = cascade_samples(100, McConfig(trials=1_000_000, seed=777))
        fit = fit_gamma(cascade_moments(100))
        for level in (0.10, 0.50, 0.90):
            quantile = float(np.quantile(chi, level))
            assert reg_lower_gamma(fit.shape, quantile / fit.scale) == pytest.approx(level, abs=0.01)
