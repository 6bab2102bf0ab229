import csv
import io
import subprocess
import sys

import pytest

import thzris.montecarlo
from thzris import McEstimate, default_scenario, dump_config, parse_config_text
from thzris.cli import (
    CSV_HEADER,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)

HEADER_LINE = "param,value,capacity_bits,quad_err,mc_mean,mc_stderr,rel_gap,error"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestSchema:
    def test_header_exact(self, capsys):
        code, out, _ = run_cli(capsys, "capacity")
        assert code == EXIT_OK
        assert out.splitlines()[0] == HEADER_LINE
        assert HEADER_LINE.split(",") == CSV_HEADER

    def test_full_precision_floats(self, capsys):
        code, out, _ = run_cli(capsys, "capacity")
        row = parse_csv(out)[0]
        # 17 significant digits round-trip the double exactly
        assert float(row["capacity_bits"]) == pytest.approx(3.3984015635349576e-13, rel=1e-15)
        assert row["param"] == "" and row["mc_mean"] == "" and row["error"] == ""


class TestCapacityCommand:
    @pytest.mark.filterwarnings("ignore:amplification beta")
    def test_zero_amplification(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("ris.beta = 0\n")
        code, out, _ = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(parse_csv(out)[0]["capacity_bits"]) == 0.0

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("quad.max_subdivisions = 1\nquad.rel_tol = 1e-15\nquad.abs_tol = 1e-30\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    def test_missed_contract_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("ris.P_s_dBm = 300\nris.M = 100000\nquad.max_subdivisions = 1\n")
        code, out, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "exceeds max(abs_tol, rel_tol * C)" in err

    def test_out_file_uses_newline_endings(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, _, _ = run_cli(capsys, "capacity", "--out", str(target))
        assert code == EXIT_OK
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == HEADER_LINE

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "row.csv"
        code, out, err = run_cli(capsys, "capacity", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"thzris: cannot write {target}: ")
        assert len(err.splitlines()) == 1


class TestMcCommand:
    def test_outputs_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--trials", "20000", "--seed", "5")
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["mc_mean"]) > 0.0
        assert float(row["mc_stderr"]) > 0.0
        assert row["capacity_bits"] == ""

    def test_concurrency_levels_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "w1.csv"
        out4 = tmp_path / "w4.csv"
        assert run_cli(capsys, "mc", "--trials", "50000", "--seed", "9",
                       "--workers", "1", "--out", str(out1))[0] == EXIT_OK
        assert run_cli(capsys, "mc", "--trials", "50000", "--seed", "9",
                       "--workers", "4", "--out", str(out4))[0] == EXIT_OK
        assert out1.read_bytes() == out4.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, capsys, workers):
        code, out, err = run_cli(capsys, "mc", "--trials", "100", "--workers", workers)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--workers" in err


class TestValidateCommand:
    def test_default_scenario_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--trials", "100000", "--seed", "21")
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["rel_gap"]) < 0.05
        assert row["error"] == ""

    @pytest.mark.filterwarnings("ignore:amplification beta")
    def test_zero_amplification_trivially_passes(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("ris.beta = 0\nmc.trials = 1000\n")
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["capacity_bits"]) == 0.0
        assert float(row["mc_mean"]) == 0.0
        assert float(row["rel_gap"]) == 0.0

    def test_failure_exit_code(self, capsys, monkeypatch):
        # bias the simulation so the gap rule must fire
        monkeypatch.setattr(
            thzris.montecarlo, "estimate_ergodic_rate",
            lambda model, cfg, workers=1: McEstimate(mean=1.0, std_error=1e-12, n=cfg.trials),
        )
        code, out, _ = run_cli(capsys, "validate", "--trials", "100")
        assert code == EXIT_VALIDATION
        row = parse_csv(out)[0]
        assert "validation failed" in row["error"]


class TestSweepCommand:
    def test_rows_in_grid_order_and_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "M", "--values", "16,64,100")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [row["value"] for row in rows] == ["16", "64", "100"]
        capacities = [float(row["capacity_bits"]) for row in rows]
        assert capacities[0] <= capacities[1] <= capacities[2]

    def test_single_point_matches_capacity_command(self, capsys):
        code, sweep_out, _ = run_cli(capsys, "sweep", "--param", "M", "--values", "100")
        assert code == EXIT_OK
        code, cap_out, _ = run_cli(capsys, "capacity")
        assert code == EXIT_OK
        assert parse_csv(sweep_out)[0]["capacity_bits"] == parse_csv(cap_out)[0]["capacity_bits"]

    def test_log_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta",
                               "--range", "1", "100", "3", "--log")
        assert code == EXIT_OK
        values = [float(row["value"]) for row in parse_csv(out)]
        assert values == pytest.approx([1.0, 10.0, 100.0])

    def test_beta_log_sweep_saturates(self, capsys):
        # the capacity column must flatten toward the amplification limit
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta",
                               "--range", "1", "1000", "7", "--log")
        assert code == EXIT_OK
        capacities = [float(row["capacity_bits"]) for row in parse_csv(out)]
        assert all(b >= a for a, b in zip(capacities, capacities[1:]))
        # relative growth over the last decade is tiny once beta^2 sigma_r^2
        # dominates the user noise
        assert (capacities[-1] - capacities[-2]) / capacities[-1] < 1e-4

    def test_with_mc_fills_simulation_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta", "--values", "2",
                               "--with-mc", "--trials", "20000")
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["mc_mean"]) > 0.0
        assert float(row["rel_gap"]) < 0.05

    def test_worker_count_preserves_output(self, tmp_path, capsys):
        args = ("sweep", "--param", "M", "--values", "4,16,64")
        out1 = tmp_path / "w1.csv"
        out3 = tmp_path / "w3.csv"
        assert run_cli(capsys, *args, "--workers", "1", "--out", str(out1))[0] == EXIT_OK
        assert run_cli(capsys, *args, "--workers", "3", "--out", str(out3))[0] == EXIT_OK
        assert out1.read_bytes() == out3.read_bytes()

    def test_invalid_grid_value_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--param", "M", "--values", "16,0")
        assert code == EXIT_USAGE
        assert "invalid value" in err

    def test_point_failure_recorded_and_exit_partial(self, tmp_path, capsys):
        table = tmp_path / "kappa.csv"
        table.write_text("frequency_hz,kappa_per_m\n0.25e12,0.02\n0.35e12,0.08\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("absorption.table_csv = kappa.csv\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--param", "f_Hz",
                               "--values", "0.3e12,0.5e12")
        assert code == EXIT_PARTIAL
        rows = parse_csv(out)
        assert rows[0]["error"] == "" and float(rows[0]["capacity_bits"]) > 0.0
        assert rows[1]["capacity_bits"] == "" and "extrapolation" in rows[1]["error"]

    @pytest.mark.parametrize("grid", [
        ("--values", "nan"), ("--values", "inf"),
        ("--range", "1", "10", "nan"), ("--range", "1", "10", "inf"),
    ], ids=["values-nan", "values-inf", "range-nan", "range-inf"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", *grid)
        assert code == EXIT_USAGE
        assert out == ""
        assert "must be" in err

    def test_empty_value_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--values", ",")
        assert code == EXIT_USAGE
        assert out == ""
        assert "at least one value" in err

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--param", "M")
        assert code == EXIT_USAGE

    def test_unknown_param_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--param", "bogus", "--values", "1")
        assert code == EXIT_USAGE


class TestScenarioWithoutModel:
    """Scenarios that cannot make a model end with an exit code, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("capacity", "--config", "{cfg}"),
        ("sweep", "--param", "P_s_dBm", "--values", "3300"),
    ], ids=["config", "sweep"])
    @pytest.mark.parametrize("line", ["ris.P_s_dBm = 3300", "geometry.G_a_dBi = 4000"])
    def test_overflowing_decibel_is_usage_error(self, tmp_path, capsys, line, argv):
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *(arg.format(cfg=cfg) for arg in argv))
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and "overflows the double range" in err
        if argv[0] == "capacity":
            assert f"(key {line.split()[0]!r}, line 1)" in err

    @pytest.mark.filterwarnings("ignore:carrier frequency")
    @pytest.mark.parametrize("command,expected", [
        (("capacity",), EXIT_NUMERIC),
        (("sweep", "--param", "kappa", "--values", "0.05"), EXIT_PARTIAL),
    ], ids=["capacity", "sweep"])
    @pytest.mark.parametrize("line,quantity", [
        ("ris.beta = 1e200", "mean SNR"),
        ("geometry.d_a_m = 1e-300", "mean SNR"),
        ("geometry.f_Hz = 1e-300", "path gain h_L"),
        ("geometry.G_a = 1e308", "path gain h_L"),
        ("stats.fourth_moment_mode = literal", "var_chi"),
        ("ris.M = 1e300", "mean_chi"),
    ], ids=["beta", "d_a_m", "f_Hz", "G_a", "literal", "M"])
    def test_documented_exit_code(self, tmp_path, capsys, line, quantity, command, expected):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == expected
        assert "Traceback" not in err
        if expected == EXIT_NUMERIC:
            assert out == "" and err.startswith("thzris: numeric failure: ")
            assert quantity in err and len(err.splitlines()) == 1
        else:
            assert quantity in parse_csv(out)[0]["error"]

    def test_literal_mode_sweep_writes_error_rows(self, tmp_path, capsys):
        cfg = tmp_path / "literal.cfg"
        cfg.write_text("stats.fourth_moment_mode = literal\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--param", "M",
                               "--values", "16,64")
        assert code == EXIT_PARTIAL
        rows = parse_csv(out)
        assert [row["value"] for row in rows] == ["16", "64"]
        assert all(row["capacity_bits"] == "" and "var_chi" in row["error"] for row in rows)

    def test_huge_element_counts(self, capsys):
        # M = 1e17 was a false negative-variance error; 1e300 overflows mean_chi
        code, out, _ = run_cli(capsys, "sweep", "--param", "M", "--values", "1e17,1e300")
        assert code == EXIT_PARTIAL
        first, second = parse_csv(out)
        assert first["error"] == "" and float(first["capacity_bits"]) > 0.0
        assert second["capacity_bits"] == "" and "mean_chi" in second["error"]


class TestGlobalFlags:
    def test_dump_config_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--dump-config")
        assert code == EXIT_OK
        assert parse_config_text(out) == default_scenario()

    def test_seed_and_trials_overrides_appear_in_dump(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--seed", "4242", "--trials", "777",
                               "--dump-config")
        assert code == EXIT_OK
        cfg = parse_config_text(out)
        assert cfg.mc.seed == 4242
        assert cfg.mc.trials == 777

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("ris.M = -3\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "config error" in err

    def test_dump_matches_library_dump(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--dump-config")
        assert out == dump_config(default_scenario())


def test_module_entry_point(tmp_path, src_env):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("ris.beta = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "thzris", "capacity", "--config", str(cfg)],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == HEADER_LINE
