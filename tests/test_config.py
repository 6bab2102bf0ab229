import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from thzris import (
    ConfigError,
    DomainError,
    FourthMomentMode,
    apply_sweep_value,
    build_model,
    default_scenario,
    dump_config,
    parse_config,
    parse_config_text,
)
from thzris.config import DEFAULT_PHI, KNOWN_KEYS, db_to_linear, dbm_to_watts


class TestConversions:
    def test_db_to_linear(self):
        assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-14)
        assert db_to_linear(0.0) == 1.0

    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-14)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="4000.0 dB overflows"):
            db_to_linear(4000.0)
        with pytest.raises(DomainError, match="3300.0 dBm overflows"):
            dbm_to_watts(3300.0)


class TestDefaults:
    def test_default_scenario_values(self):
        cfg = default_scenario()
        assert cfg.geometry.g_a == pytest.approx(1000.0)
        assert cfg.geometry.f_hz == 0.3e12
        assert cfg.absorption.kappa == 0.05
        assert cfg.misalign.phi == pytest.approx(DEFAULT_PHI)
        assert cfg.misalign.zeta == 0.6
        assert cfg.ris.num_elements == 100
        assert cfg.ris.beta == 2.0
        assert cfg.ris.p_s_w == pytest.approx(1.0)
        assert cfg.fourth_moment_mode is FourthMomentMode.EXACT

    def test_default_phi_is_erf_squared(self):
        assert DEFAULT_PHI == pytest.approx(math.erf(0.3) ** 2, abs=1e-15)


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert parse_config(path) == default_scenario()

    def test_power_in_dbm(self):
        cfg = parse_config_text("ris.P_s_dBm = 30\n")
        assert cfg.ris.p_s_w == pytest.approx(1.0, rel=1e-14)

    def test_gain_in_dbi(self):
        cfg = parse_config_text("geometry.G_a_dBi = 20\n")
        assert cfg.geometry.g_a == pytest.approx(100.0, rel=1e-14)

    def test_linear_gain_key(self):
        cfg = parse_config_text("geometry.G_a = 250\n")
        assert cfg.geometry.g_a == 250.0

    def test_inline_comments_and_spacing(self):
        cfg = parse_config_text("ris.M=64   # smaller panel\n")
        assert cfg.ris.num_elements == 64

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("\nris.amplifiers = 3\n")
        assert excinfo.value.key == "ris.amplifiers"
        assert excinfo.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("ris.M = 4\nris.M = 8\n")
        assert excinfo.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("just some words\n")
        assert excinfo.value.line == 1

    def test_bad_number(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("ris.beta = fast\n")
        assert excinfo.value.key == "ris.beta"

    def test_non_integer_element_count(self):
        with pytest.raises(ConfigError):
            parse_config_text("ris.M = 2.5\n")

    @pytest.mark.parametrize("key, value", [
        ("ris.M", "nan"), ("ris.M", "inf"), ("mc.trials", "1e400"),
    ])
    def test_non_finite_integer_key(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(f"\n{key} = {value}\n")
        assert excinfo.value.key == key
        assert excinfo.value.line == 2

    def test_whole_float_spelling_of_integer(self):
        cfg = parse_config_text("mc.trials = 1e6\nris.M = 64.0\n")
        assert cfg.mc.trials == 1_000_000
        assert cfg.ris.num_elements == 64

    def test_misalignment_group_exclusivity(self):
        text = (
            "misalign.phi = 0.1\n"
            "misalign.r_m = 0.3\nmisalign.u_m = 1.0\n"
            "misalign.v = 1.0\nmisalign.sigma2 = 0.25\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert "not both" in str(excinfo.value)
        assert excinfo.value.key == "misalign.r_m"

    def test_incomplete_physical_group(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("misalign.r_m = 0.3\n")
        assert "misalign.u_m" in str(excinfo.value)

    def test_physical_group_resolves(self):
        text = (
            "misalign.r_m = 0.3\n"
            f"misalign.u_m = {math.sqrt(math.pi / 2.0)!r}\n"
            "misalign.v = 1.0\nmisalign.sigma2 = 0.25\n"
        )
        cfg = parse_config_text(text)
        assert cfg.misalign.phi == pytest.approx(DEFAULT_PHI, rel=1e-12)
        assert cfg.misalign.zeta == pytest.approx(1.0)

    def test_overflowing_decibel_names_key_and_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("ris.M = 16\nris.P_s_dBm = 3300\n")
        assert excinfo.value.key == "ris.P_s_dBm" and excinfo.value.line == 2

    def test_exclusive_power_keys(self):
        with pytest.raises(ConfigError):
            parse_config_text("ris.P_s_W = 1\nris.P_s_dBm = 30\n")

    def test_invariant_violation_reported(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("geometry.d_a_m = -3\n")
        assert "geometry" in str(excinfo.value)

    def test_mode_parsing(self):
        cfg = parse_config_text("stats.fourth_moment_mode = gaussian_surrogate\n")
        assert cfg.fourth_moment_mode is FourthMomentMode.GAUSSIAN_SURROGATE
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("stats.fourth_moment_mode = guesswork\n")
        assert "exact" in str(excinfo.value)

    def test_absorption_table(self, tmp_path):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\n")
        cfg = parse_config(cfg_file)
        assert cfg.absorption.kappa_at(0.3e12) == pytest.approx(0.05, rel=1e-12)
        assert cfg.absorption_table_path == str(table)

    def test_absorption_table_conflicts_with_scalar(self, tmp_path):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\nabsorption.kappa_per_m = 0.1\n")
        with pytest.raises(ConfigError):
            parse_config(cfg_file)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")


class TestDumpRoundTrip:
    def test_default_round_trips(self, tmp_path):
        default = default_scenario()
        for seed in (default.mc.seed, 2**53 + 1, 2**64 - 1):
            cfg = replace(default, mc=replace(default.mc, seed=seed))
            path = tmp_path / "dumped.cfg"
            path.write_text(dump_config(cfg))
            assert parse_config(path) == cfg

    def test_custom_round_trips(self, tmp_path):
        for seed in (99, 2**53 + 1, 2**64 - 1):
            text = (
                "geometry.G_a_dBi = 25\ngeometry.f_Hz = 1.1e12\n"
                "ris.M = 37\nris.beta = 3.7\nris.P_s_dBm = 27\n"
                f"misalign.zeta = 1.3\nmc.trials = 12345\nmc.seed = {seed}\n"
                "quad.rel_tol = 1e-9\n"
            )
            cfg = parse_config_text(text)
            assert cfg.mc.seed == seed
            path = tmp_path / "dumped.cfg"
            path.write_text(dump_config(cfg))
            assert parse_config(path) == cfg

    def test_table_config_round_trips(self, tmp_path):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\n")
        cfg = parse_config(cfg_file)
        dumped = tmp_path / "dumped.cfg"
        dumped.write_text(dump_config(cfg))
        assert parse_config(dumped) == cfg


class TestSweepValues:
    def test_each_parameter_applies(self):
        cfg = default_scenario()
        assert apply_sweep_value(cfg, "M", 64).ris.num_elements == 64
        assert apply_sweep_value(cfg, "beta", 3.0).ris.beta == 3.0
        assert apply_sweep_value(cfg, "P_s_dBm", 20.0).ris.p_s_w == pytest.approx(0.1)
        assert apply_sweep_value(cfg, "f_Hz", 1e12).geometry.f_hz == 1e12
        assert apply_sweep_value(cfg, "d_a", 20.0).geometry.d_a_m == 20.0
        assert apply_sweep_value(cfg, "d_b", 25.0).geometry.d_b_m == 25.0
        assert apply_sweep_value(cfg, "kappa", 0.2).absorption.kappa == 0.2
        assert apply_sweep_value(cfg, "phi", 0.3).misalign.phi == 0.3
        assert apply_sweep_value(cfg, "zeta", 2.0).misalign.zeta == 2.0

    def test_invalid_values_rejected(self):
        cfg = default_scenario()
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "M", 2.5)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "M", 0)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "phi", 1.5)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "unknown", 1.0)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "P_s_dBm", 3300.0)


class TestBuildModel:
    def test_model_reflects_config(self):
        cfg = default_scenario()
        model = build_model(cfg)
        assert model.geometry == cfg.geometry
        assert model.ris == cfg.ris
        assert model.fourth_moment_mode is cfg.fourth_moment_mode


def test_every_key_has_a_readme_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert KNOWN_KEYS - set(re.findall(r"`([^`]+)`", table)) == set()
