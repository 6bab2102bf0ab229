import math

import numpy as np
import pytest

from thzris import (
    SPEED_OF_LIGHT,
    AbsorptionSpec,
    DomainError,
    LinkGeometry,
    MisalignmentParams,
    QuadratureSpec,
    absorption_gain,
    integrate_finite,
    load_absorption_table,
    misalignment_from_physical,
    misalignment_pdf,
    path_gain,
    propagation_gain,
)

from oracles import erf_maclaurin, ks_critical, ks_statistic, propagation_gain_highprec


def geometry(**overrides):
    params = dict(g_a=1000.0, g_b=1000.0, f_hz=0.3e12, d_a_m=15.0, d_b_m=15.0)
    params.update(overrides)
    return LinkGeometry(**params)


class TestLinkGeometry:
    @pytest.mark.parametrize("field", ["g_a", "g_b", "f_hz", "d_a_m", "d_b_m"])
    def test_positivity(self, field):
        with pytest.raises(DomainError):
            geometry(**{field: 0.0})
        with pytest.raises(DomainError):
            geometry(**{field: -1.0})

    def test_out_of_band_frequency_warns_but_builds(self):
        with pytest.warns(UserWarning):
            geom = geometry(f_hz=60e9)
        assert geom.f_hz == 60e9

    def test_in_band_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geometry(f_hz=1e12)


class TestPropagationGain:
    def test_unity_configuration(self):
        # all factors cancel when f = c / (4 pi) and gains/distances are 1
        with pytest.warns(UserWarning):
            geom = geometry(g_a=1.0, g_b=1.0, f_hz=SPEED_OF_LIGHT / (4.0 * math.pi),
                            d_a_m=1.0, d_b_m=1.0)
        assert propagation_gain(geom) == pytest.approx(1.0, rel=1e-12)

    def test_default_scenario_value(self):
        # frozen from the 50-digit oracle
        value = propagation_gain(geometry())
        assert value == pytest.approx(2.8105845220461484e-08, rel=1e-13, abs=0)
        assert value == pytest.approx(
            propagation_gain_highprec(1000.0, 1000.0, 0.3e12, 15.0, 15.0), rel=1e-14, abs=0
        )

    def test_inverse_distance(self):
        assert propagation_gain(geometry(d_a_m=30.0)) == pytest.approx(
            propagation_gain(geometry()) / 2.0, rel=1e-14
        )

    def test_monotone_in_frequency_and_distance(self):
        base = geometry()
        for field in ("f_hz", "d_a_m", "d_b_m"):
            values = [getattr(base, field) * s for s in (1.0, 2.0, 5.0)]
            gains = [propagation_gain(geometry(**{field: v})) for v in values]
            assert gains[0] > gains[1] > gains[2]


class TestAbsorption:
    def test_no_absorption(self):
        assert absorption_gain(AbsorptionSpec(kappa=0.0), 0.3e12, 15.0, 15.0) == 1.0

    def test_closed_form(self):
        assert absorption_gain(AbsorptionSpec(kappa=0.1), 0.3e12, 12.0, 8.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_half_factor(self):
        # same total exponent as above, checks the /2
        assert absorption_gain(AbsorptionSpec(kappa=0.2), 0.3e12, 5.0, 5.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            AbsorptionSpec()
        with pytest.raises(DomainError):
            AbsorptionSpec(kappa=0.1, table=((1e12, 0.1), (2e12, 0.2)))
        with pytest.raises(DomainError):
            AbsorptionSpec(kappa=-0.1)
        with pytest.raises(DomainError):
            AbsorptionSpec(table=((2e12, 0.1), (1e12, 0.2)))
        with pytest.raises(DomainError):
            AbsorptionSpec(table=((1e12, 0.1),))

    def test_table_interpolation(self):
        spec = AbsorptionSpec(table=((1e12, 0.1), (2e12, 0.3)))
        assert spec.kappa_at(1e12) == pytest.approx(0.1)
        assert spec.kappa_at(2e12) == pytest.approx(0.3)
        assert spec.kappa_at(1.5e12) == pytest.approx(0.2)

    def test_table_no_extrapolation(self):
        spec = AbsorptionSpec(table=((1e12, 0.1), (2e12, 0.3)))
        with pytest.raises(DomainError):
            spec.kappa_at(0.5e12)
        with pytest.raises(DomainError):
            spec.kappa_at(2.5e12)

    def test_load_table(self, tmp_path):
        path = tmp_path / "kappa.csv"
        path.write_text("frequency_hz,kappa_per_m\n1.0e12,0.1\n2.0e12,0.3\n")
        spec = load_absorption_table(path)
        assert spec.kappa_at(1.5e12) == pytest.approx(0.2)

    def test_load_table_requires_header(self, tmp_path):
        path = tmp_path / "kappa.csv"
        path.write_text("1.0e12,0.1\n2.0e12,0.3\n")
        with pytest.raises(DomainError):
            load_absorption_table(path)


class TestPathGain:
    def test_reduces_to_propagation_without_absorption(self):
        geom = geometry()
        assert path_gain(geom, AbsorptionSpec(kappa=0.0)) == propagation_gain(geom)

    def test_is_product_of_factors(self):
        geom = geometry()
        spec = AbsorptionSpec(kappa=0.05)
        expected = propagation_gain(geom) * absorption_gain(spec, geom.f_hz, 15.0, 15.0)
        assert path_gain(geom, spec) == pytest.approx(expected, rel=1e-15)

    def test_never_exceeds_propagation(self):
        geom = geometry()
        for kappa in (0.0, 0.01, 0.1, 1.0):
            assert path_gain(geom, AbsorptionSpec(kappa=kappa)) <= propagation_gain(geom)

    def test_monotone_in_kappa(self):
        geom = geometry()
        gains = [path_gain(geom, AbsorptionSpec(kappa=k)) for k in (0.0, 0.05, 0.2)]
        assert gains[0] > gains[1] > gains[2]


class TestMisalignmentParams:
    def test_invariants(self):
        with pytest.raises(DomainError):
            MisalignmentParams(phi=0.0, zeta=1.0)
        with pytest.raises(DomainError):
            MisalignmentParams(phi=1.5, zeta=1.0)
        with pytest.raises(DomainError):
            MisalignmentParams(phi=0.5, zeta=0.0)

    def test_from_physical_known_value(self):
        # r/u chosen so the normalized offset is exactly 0.3
        p = misalignment_from_physical(r_m=0.3, u_m=math.sqrt(math.pi / 2.0), v=1.0, sigma2=0.25)
        assert p.phi == pytest.approx(erf_maclaurin(0.3) ** 2, abs=1e-13)
        assert p.phi == pytest.approx(0.10799554703260718, abs=1e-13)
        assert p.zeta == pytest.approx(1.0)

    def test_beamwidth_variance_ratio(self):
        p = misalignment_from_physical(r_m=1.0, u_m=1.0, v=2.0, sigma2=1.0)
        assert p.zeta == pytest.approx(1.0)

    def test_perfect_capture_limit(self):
        p = misalignment_from_physical(r_m=1e4, u_m=1.0, v=1.0, sigma2=1.0)
        assert p.phi == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", ["r_m", "u_m", "v", "sigma2"])
    def test_rejects_nonpositive(self, bad):
        params = dict(r_m=1.0, u_m=1.0, v=1.0, sigma2=1.0)
        params[bad] = 0.0
        with pytest.raises(DomainError):
            misalignment_from_physical(**params)


class TestMisalignmentDistribution:
    def test_uniform_case(self):
        p = MisalignmentParams(phi=0.4, zeta=1.0)
        for x in (0.01, 0.2, 0.4):
            assert misalignment_pdf(p, x) == pytest.approx(2.5)

    def test_outside_support(self):
        p = MisalignmentParams(phi=0.4, zeta=0.6)
        assert misalignment_pdf(p, 0.5) == 0.0
        assert misalignment_pdf(p, -0.1) == 0.0

    def test_at_zero(self):
        assert misalignment_pdf(MisalignmentParams(phi=0.4, zeta=2.0), 0.0) == 0.0
        assert misalignment_pdf(MisalignmentParams(phi=0.4, zeta=1.0), 0.0) == pytest.approx(2.5)
        with pytest.raises(DomainError):
            misalignment_pdf(MisalignmentParams(phi=0.4, zeta=0.6), 0.0)

    @pytest.mark.parametrize("phi,zeta", [(0.108, 0.6), (0.5, 2.0)])
    def test_normalization(self, phi, zeta):
        p = MisalignmentParams(phi=phi, zeta=zeta)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=200)
        value, _ = integrate_finite(lambda x: misalignment_pdf(p, x), 0.0, phi, spec)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_closed_form(self):
        # E[x] = zeta phi / (zeta + 1), from integrating x * pdf
        p = MisalignmentParams(phi=0.10799554703260718, zeta=0.6)
        rng = np.random.default_rng(1234)
        samples = p.phi * rng.random(1_000_000) ** (1.0 / p.zeta)
        expected = p.zeta * p.phi / (p.zeta + 1.0)
        tolerance = 4.0 * samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - expected) <= tolerance

    @pytest.mark.parametrize("phi,zeta", [(0.108, 0.6), (0.5, 2.0)])
    def test_samples_pass_ks(self, phi, zeta):
        p = MisalignmentParams(phi=phi, zeta=zeta)
        rng = np.random.default_rng(99)
        samples = p.phi * rng.random(100_000) ** (1.0 / p.zeta)
        statistic = ks_statistic(samples, lambda x: (x / phi) ** zeta)
        assert statistic < ks_critical(len(samples), alpha=0.01)
