import math
import re
import warnings
from pathlib import Path

import pytest

from thzris import (
    AbsorptionSpec,
    ConfigError,
    DomainError,
    McConfig,
    QuadratureSpec,
    apply_sweep_value,
    build_model,
    cascade_moments,
    cascade_samples,
    default_scenario,
    dump_config,
    estimate_ergodic_rate,
    load_absorption_table,
    parse_config,
    parse_config_text,
)
from thzris.config import _KEYS, DEFAULT_PHI, KNOWN_KEYS, SWEEP_PARAMS, db_to_linear, dbm_to_watts


class TestConversions:
    def test_db_to_linear(self):
        assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-14)
        assert db_to_linear(0.0) == 1.0

    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-14, abs=0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14, abs=0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="4000.0 dB overflows"):
            db_to_linear(4000.0)
        with pytest.raises(DomainError, match="3300.0 dBm overflows"):
            dbm_to_watts(3300.0)
        with pytest.raises(DomainError, match="nan dB is not a number"):
            db_to_linear(math.nan)
        with pytest.raises(DomainError, match="nan dBm is not a number"):
            dbm_to_watts(math.nan)

    @pytest.mark.parametrize("value", [-math.inf, -4000.0])
    def test_underflow_is_domain_error(self, value):
        for convert, unit in ((db_to_linear, "dB"), (dbm_to_watts, "dBm")):
            with pytest.raises(DomainError) as excinfo:
                convert(value)
            assert str(excinfo.value) == f"{value!r} {unit} underflows to zero"


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

    def test_default_phi_is_erf_squared(self):
        assert DEFAULT_PHI == pytest.approx(math.erf(0.3) ** 2, abs=1e-15)


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert parse_config(path) == default_scenario()

    def test_power_in_dbm(self):
        cfg = parse_config_text("ris.P_s_dBm = 30\n")
        assert cfg.ris.p_s_w == pytest.approx(1.0, rel=1e-14, abs=0)

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

    def test_non_numeric_element_count(self):
        with pytest.raises(ConfigError, match="expected an integer") as excinfo:
            parse_config_text("ris.M = abc\n")
        assert excinfo.value.key == "ris.M"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_beyond_conversion_limit(self, sign):
        # int() refuses integer text beyond 4,300 digits; the message says
        # so and names the entry without echoing the digits.
        digits = "1" + "0" * 4999
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(f"mc.seed = 1\nris.M = {sign}{digits}\n")
        message = str(excinfo.value)
        assert "integer of 5000 digits is longer than the interpreter converts" in message
        assert excinfo.value.key == "ris.M" and excinfo.value.line == 2
        assert len(message) < 200

    def test_underscore_grouped_integer_beyond_conversion_limit(self):
        # Underscore groups do not count as digits, and the text is not echoed.
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("ris.M = 1" + "_000" * 1500 + "\n")
        message = str(excinfo.value)
        assert "integer of 4501 digits is longer than the interpreter converts" in message
        assert len(message) < 200

    def test_misplaced_underscores_are_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer, got '1__0'"):
            parse_config_text("ris.M = 1__0\n")

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
        assert cfg.misalign.phi == pytest.approx(DEFAULT_PHI, rel=1e-12, abs=0)
        assert cfg.misalign.zeta == pytest.approx(1.0)

    def test_overflowing_decibel_names_key_and_line(self):
        for value, message in (("3300", "3300.0 dBm overflows the double range"), ("nan", "nan dBm is not a number")):
            with pytest.raises(ConfigError, match=message) as excinfo:
                parse_config_text(f"ris.M = 16\nris.P_s_dBm = {value}\n")
            assert excinfo.value.key == "ris.P_s_dBm" and excinfo.value.line == 2

    @pytest.mark.parametrize("line, message", [
        ("ris.P_s_dBm = -inf", "-inf dBm"),
        ("geometry.G_a_dBi = -4000", "-4000.0 dB"),
        ("geometry.G_b_dBi = -inf", "-inf dB"),
    ], ids=["P_s_dBm", "G_a_dBi", "G_b_dBi"])
    def test_underflowing_decibel_names_key_and_line(self, line, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(f"ris.M = 16\n{line}\n")
        key = line.split()[0]
        assert str(excinfo.value) == f"{message} underflows to zero (key {key!r}, line 2)"
        assert excinfo.value.key == key and excinfo.value.line == 2

    @pytest.mark.parametrize("first, second", [
        ("geometry.G_a = 1000", "geometry.G_a_dBi = 30"),
        ("geometry.G_b = 1000", "geometry.G_b_dBi = 30"),
        ("ris.P_s_W = 1", "ris.P_s_dBm = 30"),
        ("absorption.kappa_per_m = 0.1", "absorption.table_csv = kappa.csv"),
    ], ids=["G_a", "G_b", "P_s", "kappa"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_spellings_of_one_field_are_mutually_exclusive(self, tmp_path, first, second, reverse):
        # Whichever comes first in the file, the error names the second key of
        # the pair (the dB spelling or the table) at its own line.
        (tmp_path / "kappa.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        lines = [second, first] if reverse else [first, second]
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("ris.M = 16\n" + "".join(line + "\n" for line in lines), tmp_path)
        linear, other = first.split()[0], second.split()[0]
        line = 2 if reverse else 3
        assert str(excinfo.value) == (
            f"{linear!r} and {other!r} are mutually exclusive (key {other!r}, line {line})"
        )
        assert excinfo.value.key == other and excinfo.value.line == line

    def test_invariant_violation_reported(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("geometry.d_a_m = -3\n")
        assert "geometry" in str(excinfo.value)

    def test_mode_parsing(self):
        # The model always fits the exact recipe; the removed mode key is
        # unknown whatever its value.
        for mode in ("exact", "gaussian_surrogate", "literal"):
            with pytest.raises(ConfigError, match="unknown key 'stats.fourth_moment_mode'") as excinfo:
                parse_config_text(f"ris.M = 16\nstats.fourth_moment_mode = {mode}\n")
            assert excinfo.value.line == 2

    def test_absorption_table(self, tmp_path):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\n")
        cfg = parse_config(cfg_file)
        assert cfg.absorption.kappa_at(0.3e12) == pytest.approx(0.05, rel=1e-12, abs=0)
        assert cfg.absorption.source == str(table)

    def test_relative_config_path_finds_its_table(self, tmp_path, monkeypatch):
        # The file's directory is then the empty string, so the table resolves against the working directory.
        (tmp_path / "kappa.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        (tmp_path / "scenario.cfg").write_text("absorption.table_csv = kappa.csv\n")
        monkeypatch.chdir(tmp_path)
        cfg = parse_config("scenario.cfg")
        assert cfg.absorption.source == str(tmp_path / "kappa.csv")
        assert cfg.absorption.kappa_at(0.3e12) == pytest.approx(0.05, rel=1e-12, abs=0)

    def test_path_may_be_str_or_pathlike(self, tmp_path):
        (tmp_path / "kappa.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\n")
        cfg, text = parse_config(cfg_file), cfg_file.read_text()
        assert parse_config(str(cfg_file)) == cfg
        assert parse_config_text(text, tmp_path) == parse_config_text(text, str(tmp_path)) == cfg

    def test_file_descriptor_is_not_a_path(self):
        # open() would read descriptor 0 (stdin) and close it.
        with pytest.raises(TypeError):
            parse_config(0)

    @pytest.mark.parametrize("table", [
        None,
        "",
        "frequency_hz,kappa_per_m\n0.2e12,0.02,7\n",
        "frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,lots\n",
    ], ids=["missing", "empty", "three-columns", "non-numeric"])
    def test_bad_absorption_table_names_key_and_line(self, tmp_path, table):
        if table is not None:
            (tmp_path / "kappa.csv").write_text(table)
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("ris.M = 16\nabsorption.table_csv = kappa.csv\n")
        with pytest.raises(ConfigError, match="cannot load absorption table") as excinfo:
            parse_config(cfg_file)
        assert excinfo.value.key == "absorption.table_csv"
        assert excinfo.value.line == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        text = "ris.M = 16\nris.P_s_dBm = 20\n"
        cfg_file.write_text(text, encoding="utf-8")
        plain = parse_config(cfg_file)
        cfg_file.write_text("\ufeff" + text, encoding="utf-8")
        assert parse_config(cfg_file) == plain
        assert plain.ris.num_elements == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_missing_file_is_named_as_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=r"cannot read config file: .* '\./absent\.cfg'$"):
            parse_config("./absent.cfg")


class TestDumpRoundTrip:
    def test_default_round_trips(self, tmp_path):
        default = default_scenario()
        for seed in (default.mc.seed, 2**53 + 1, 2**64 - 1):
            cfg = default.replace(mc=default.mc.replace(seed=seed))
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

    def test_decibel_keys_dump_as_linear_keys(self):
        decibel = parse_config_text("geometry.G_a_dBi = 25\ngeometry.G_b_dBi = 27.5\nris.P_s_dBm = 20\n")
        linear = parse_config_text(
            f"geometry.G_a = {decibel.geometry.g_a!r}\ngeometry.G_b = {decibel.geometry.g_b!r}\n"
            f"ris.P_s_W = {decibel.ris.p_s_w!r}\n"
        )
        dumped = dump_config(decibel)
        assert dumped == dump_config(linear)
        # One line per field, each named by its linear key.
        keys = [line.split(" = ")[0] for line in dumped.splitlines()]
        assert len(keys) == len({(section, field) for _, section, field, _ in _KEYS})
        assert keys == [key for key, *_ in _KEYS if not key.endswith(("_dBi", "_dBm"))]

    def test_table_config_round_trips(self, tmp_path):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("absorption.table_csv = kappa.csv\n")
        cfg = parse_config(cfg_file)
        dumped = tmp_path / "dumped.cfg"
        dumped.write_text(dump_config(cfg))
        assert parse_config(dumped) == cfg

    def test_relative_table_path_dumps_to_the_same_table(self, tmp_path, monkeypatch):
        # The dump lands next to the scenario file; its table path must not be
        # read relative to that directory a second time, and dumping the dump
        # gives the same bytes.
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "t.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        (tmp_path / "a" / "s.cfg").write_text("absorption.table_csv = t.csv\n")
        monkeypatch.chdir(tmp_path)
        cfg = parse_config("a/s.cfg")
        Path("a/d.cfg").write_text(dump_config(cfg))
        assert parse_config("a/d.cfg") == cfg
        assert dump_config(parse_config("a/d.cfg")) == Path("a/d.cfg").read_text()
        assert cfg.absorption.source == str(tmp_path / "a" / "t.csv")

    def test_table_without_source_path_is_not_dumped(self):
        table = AbsorptionSpec(table=((0.2e12, 0.02), (0.4e12, 0.08)))
        cfg = default_scenario().replace(absorption=table)
        with pytest.raises(ConfigError, match="without its source path"):
            dump_config(cfg)

    @pytest.fixture
    def tables(self, tmp_path):
        """A scenario read with table a.csv (kappa 0.03 at 0.3 THz), and table b.csv (0.589 there)."""
        (tmp_path / "a.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.04\n")
        (tmp_path / "b.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.5\n0.4e12,0.678\n")
        (tmp_path / "s.cfg").write_text("absorption.table_csv = a.csv\n")
        return parse_config(tmp_path / "s.cfg"), load_absorption_table(tmp_path / "b.csv")

    def test_replaced_table_dumps_its_own_path(self, tables, tmp_path):
        cfg, other = tables
        cfg = cfg.replace(absorption=other)
        text = dump_config(cfg)
        assert f"absorption.table_csv = {tmp_path / 'b.csv'}\n" in text
        again = parse_config_text(text)
        assert again == cfg
        assert again.absorption.kappa_at(0.3e12) == cfg.absorption.kappa_at(0.3e12) == pytest.approx(0.589)

    def test_table_replaced_by_kappa_round_trips(self, tables):
        cfg = tables[0].replace(absorption=AbsorptionSpec(kappa=0.2))
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_kappa_replaced_by_table_round_trips(self, tables):
        cfg = default_scenario().replace(absorption=tables[1])
        assert parse_config_text(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("source", [
        "/data/x#y/t.csv", "/data/t.csv\n", "/data/a\rb/t.csv", "/data/a\u2028b/t.csv", "/data/t.csv ", " /data/t.csv",
        "/data/\udcff/t.csv",
    ], ids=["hash", "newline", "carriage-return", "line-separator", "trailing-space", "leading-space", "not-utf8"])
    def test_table_path_the_format_cannot_spell_is_not_dumped(self, source):
        # Written as is, each path would read back cut at '#', split, stripped or not at all.
        table = AbsorptionSpec(table=((0.2e12, 0.02), (0.4e12, 0.08)), source=source)
        with pytest.raises(ConfigError, match="cannot dump table path") as excinfo:
            dump_config(default_scenario().replace(absorption=table))
        assert str(excinfo.value).endswith("(key 'absorption.table_csv')") and "\n" not in str(excinfo.value)


# Each sweep parameter: the file key it sets and a valid value for it.
SWEEP_FILE_KEYS = {
    "M": ("ris.M", 64),
    "beta": ("ris.beta", 3.0),
    "P_s_dBm": ("ris.P_s_dBm", 20.0),
    "f_Hz": ("geometry.f_Hz", 1e12),
    "d_a": ("geometry.d_a_m", 20.0),
    "d_b": ("geometry.d_b_m", 25.0),
    "kappa": ("absorption.kappa_per_m", 0.2),
    "phi": ("misalign.phi", 0.3),
    "zeta": ("misalign.zeta", 2.0),
}


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
        with pytest.raises(DomainError, match="ris.M"):
            apply_sweep_value(cfg, "M", 2.5)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "M", 0)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "phi", 1.5)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "unknown", 1.0)
        with pytest.raises(DomainError):
            apply_sweep_value(cfg, "P_s_dBm", 3300.0)

    @pytest.mark.parametrize("param", SWEEP_PARAMS)
    def test_sweep_value_equals_file_key(self, param):
        key, value = SWEEP_FILE_KEYS[param]
        swept = apply_sweep_value(default_scenario(), param, value)
        assert swept == parse_config_text(f"{key} = {value!r}\n")

    @pytest.fixture
    def table_config(self, tmp_path):
        (tmp_path / "kappa.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        (tmp_path / "scenario.cfg").write_text("absorption.table_csv = kappa.csv\n")
        return parse_config(tmp_path / "scenario.cfg")

    def test_kappa_replaces_table_and_path(self, table_config):
        swept = apply_sweep_value(table_config, "kappa", 0.2)
        assert swept.absorption == AbsorptionSpec(kappa=0.2)
        assert swept.absorption.source is None

    def test_other_parameter_keeps_table_and_path(self, table_config):
        swept = apply_sweep_value(table_config, "f_Hz", 0.35e12)
        assert swept.geometry.f_hz == 0.35e12
        assert swept.absorption == table_config.absorption
        assert swept.absorption.source == table_config.absorption.source

    def test_section_not_swept_does_not_warn_again(self):
        with pytest.warns(UserWarning, match="beta = 0.5"):
            cfg = parse_config_text("ris.beta = 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert apply_sweep_value(cfg, "zeta", 2.0).ris == cfg.ris


def test_config_error_is_domain_error():
    assert issubclass(ConfigError, DomainError)


class TestBuildModel:
    def test_model_reflects_config(self):
        cfg = default_scenario()
        model = build_model(cfg)
        assert model.geometry == cfg.geometry
        assert model.ris == cfg.ris


# Every integer count, with the name its DomainError gives it.
COUNTS = [
    pytest.param("max_subdivisions", lambda v: QuadratureSpec(max_subdivisions=v), id="max_subdivisions"),
    pytest.param("trials", lambda v: McConfig(trials=v), id="trials"),
    pytest.param("seed", lambda v: McConfig(seed=v), id="seed"),
    pytest.param("batch", lambda v: McConfig(batch=v), id="batch"),
    pytest.param("num_elements", lambda v: default_scenario().ris.replace(num_elements=v), id="num_elements"),
    pytest.param("element count", cascade_moments, id="cascade_moments"),
    pytest.param("element count", lambda v: cascade_samples(v, McConfig(trials=10)), id="cascade_samples"),
    pytest.param(
        "workers",
        lambda v: estimate_ergodic_rate(build_model(default_scenario()), McConfig(trials=10), workers=v),
        id="workers",
    ),
]


@pytest.mark.parametrize("name, build", COUNTS)
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_counts_must_be_integers(name, build, value):
    # A float or bool count would otherwise pass the range checks and fail
    # later with a bare TypeError (range(), SeedSequence, numpy shapes) or
    # run with a fractional worker count.
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        build(value)


def test_every_key_has_a_readme_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert KNOWN_KEYS - set(re.findall(r"`([^`]+)`", table)) == set()
