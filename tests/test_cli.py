import argparse
import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thzris.cli
import thzris.montecarlo
from thzris import (
    AbsorptionSpec, McEstimate, build_model, default_scenario, dump_config, ergodic_capacity, parse_config_text
)
from thzris.cli import (
    CSV_HEADER,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _sweep_values,
    main,
)
from thzris.config import SWEEP_PARAMS, _sweep_entry

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
        cfg = default_scenario()
        capacity = ergodic_capacity(build_model(cfg), cfg.quad).capacity_bits
        assert float(row["capacity_bits"]) == capacity
        reference = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "capacities.json").read_text()
        )["scenarios"]["default"]["capacity_bits"]
        assert capacity == pytest.approx(reference, rel=1e-8, abs=0)
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

    def test_small_budget_bounds_only_the_capacity_integral(self, tmp_path, capsys):
        # Five bisections suffice for the capacity; the CDF integrals inside
        # it keep their own budget.
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("misalign.zeta = 0.05\nquad.max_subdivisions = 5\n")
        code, out, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_OK, err
        full = run_cli(capsys, "sweep", "--param", "zeta", "--values", "0.05")[1]
        assert parse_csv(out)[0]["capacity_bits"] == parse_csv(full)[0]["capacity_bits"]

    def test_out_file_uses_newline_endings(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, _, _ = run_cli(capsys, "capacity", "--out", str(target))
        assert code == EXIT_OK
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == HEADER_LINE

    def test_beam_ratio_past_the_double_range(self, tmp_path, capsys):
        # sqrt(pi/2) * r/u overflows to inf, which is full capture (phi = 1).
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("misalign.r_m = 1e300\nmisalign.u_m = 1e-10\nmisalign.v = 1\nmisalign.sigma2 = 1\n")
        code, out, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_OK, err
        phi_one = tmp_path / "phi.cfg"
        phi_one.write_text("misalign.phi = 1\nmisalign.zeta = 0.25\n")
        assert out == run_cli(capsys, "capacity", "--config", str(phi_one))[1]

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "row.csv"
        code, out, err = run_cli(capsys, "capacity", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"thzris: cannot write {target}: ")
        assert len(err.splitlines()) == 1


class TestOutput:
    """A command writes its output once it has run; a failure to write is one stderr line."""

    @pytest.mark.parametrize("argv,config,expected", [
        (("sweep", "--param", "M", "--values", "0"), None, EXIT_USAGE),
        (("capacity",), "ris.P_s_dBm = 300\nris.M = 100000\nquad.max_subdivisions = 1\n", EXIT_NUMERIC),
    ], ids=["usage", "missed-contract"])
    def test_failed_command_leaves_existing_out_file(self, tmp_path, capsys, argv, config, expected):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"earlier,output\n")
        if config is not None:
            (tmp_path / "scenario.cfg").write_text(config)
            argv += ("--config", str(tmp_path / "scenario.cfg"))
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == expected
        assert out == "" and len(err.splitlines()) == 1
        assert target.read_bytes() == b"earlier,output\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_full_device_is_write_error(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--out", "/dev/full")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("thzris: cannot write /dev/full: ") and len(err.splitlines()) == 1

    def test_closed_stdout_pipe_is_write_error(self, src_env):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "thzris", "sweep", "--param", "M", "--values", "1,16"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=src_env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("thzris: cannot write <stdout>: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 1 with a POSIX shell")
    def test_closed_stdout_descriptor_is_write_error(self, src_env):
        # With fd 1 closed at start-up the interpreter sets sys.stdout to None.
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m thzris capacity >&-', sys.executable],
            stderr=subprocess.PIPE, text=True, env=src_env, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"thzris: cannot write <stdout>: {os.strerror(errno.EBADF)}\n"


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_outside_zero_to_inf_is_usage_error(self, capsys, tol):
        # A nan tolerance made max(nan * mc, 4 * stderr) fail a gap inside 4 stderr.
        code, out, err = run_cli(capsys, "validate", "--trials", "20000", "--seed", "1", "--tol-rel", tol)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tol-rel" in err

    def test_zero_tolerance_leaves_the_stderr_rule(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--trials", "20000", "--seed", "1", "--tol-rel", "0")
        assert code == EXIT_OK
        assert parse_csv(out)[0]["error"] == ""

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

    def test_extreme_zeta_rows_filled(self, capsys):
        # Far beyond the contract's zeta <= 50 the weight collapses onto
        # x = phi and F tends to the aligned Gamma law.
        code, out, _ = run_cli(capsys, "sweep", "--param", "zeta", "--values", "1e10,1e15,1e100")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert row["error"] == ""
            assert float(row["capacity_bits"]) > 0.0 and float(row["quad_err"]) >= 0.0

    def test_log_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta",
                               "--range", "1", "100", "3", "--log")
        assert code == EXIT_OK
        values = [float(row["value"]) for row in parse_csv(out)]
        assert values == pytest.approx([1.0, 10.0, 100.0])

    def test_linear_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta", "--range", "1", "2", "5")
        assert code == EXIT_OK
        values = [float(row["value"]) for row in parse_csv(out)]
        assert values == [1.0 + 0.25 * i for i in range(5)]

    @pytest.mark.parametrize("log", [(), ("--log",)], ids=["linear", "log"])
    def test_single_point_range_is_start(self, capsys, log):
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta", "--range", "3", "7", "1", *log)
        assert code == EXIT_OK
        assert [row["value"] for row in parse_csv(out)] == ["3"]

    @pytest.mark.parametrize("start, stop", [("0", "10"), ("-1", "10"), ("1", "0")])
    def test_log_range_needs_positive_endpoints(self, capsys, start, stop):
        code, out, err = run_cli(capsys, "sweep", "--param", "beta",
                                 "--range", start, stop, "3", "--log")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--log requires positive --range endpoints" in err

    def test_malformed_values_entry_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--values", "16,abc")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "thzris: config error: invalid value abc for M: expected an integer, got 'abc' (key 'ris.M')\n"

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "abc"])
    @pytest.mark.parametrize("param", SWEEP_PARAMS)
    def test_config_parser_alone_checks_a_grid_entry(self, capsys, param, entry):
        code, out, err = run_cli(capsys, "sweep", "--param", param, "--values", entry)
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"thzris: config error: invalid value {entry} for {param}: ") and "(key '" in err

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

    @pytest.mark.parametrize("grid, message", [
        (("--values", "nan"), "thzris: config error: invalid value nan for M: expected an integer, got 'nan' (key 'ris.M')"),
        (("--values", "inf"), "thzris: config error: invalid value inf for M: expected an integer, got 'inf' (key 'ris.M')"),
        (("--range", "1", "10", "nan"), "--range count must be a positive integer, got nan"),
        (("--range", "1", "10", "inf"), "--range count must be a positive integer, got inf"),
    ], ids=["values-nan", "values-inf", "range-nan", "range-inf"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", *grid)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == message + "\n"

    def test_non_finite_range_stop_is_named(self, capsys):
        # Not the NaN grid point that start + step * 0 makes of it.
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--range", "1", "inf", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--range endpoints must be finite, got 1.0 and inf" in err

    @pytest.mark.parametrize("start", ["-1e1", "-10.0", "-.1e2", "-1_0"])
    def test_negative_range_start_in_any_float_spelling(self, capsys, start):
        code, out, err = run_cli(capsys, "sweep", "--param", "P_s_dBm", "--range", start, "30", "3")
        assert code == EXIT_OK, err
        assert [row["value"] for row in parse_csv(out)] == ["-10", "10", "30"]

    def test_negative_infinite_range_start_reaches_the_grid_check(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--range", "-inf", "1", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "--range endpoints must be finite, got -inf and 1.0\n"

    def test_integer_sweep_keeps_integer_literals_exact(self, capsys):
        # 2**53 + 1 has no double; a file line `ris.M = 9007199254740993` is read exactly too.
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--values", "9007199254740993")
        assert code == EXIT_OK, err
        assert [row["value"] for row in parse_csv(out)] == ["9007199254740993"]
        args = argparse.Namespace(param="M", values="9_007_199_254_740_993, 1e300,16.0,+16", range=None, log=False)
        entries = _sweep_values(args)
        assert entries == ("9_007_199_254_740_993", "1e300", "16.0", "+16")
        values = [_sweep_entry("M", entry) for entry in entries]
        assert values == [2**53 + 1, 1e300, 16.0, 16]
        assert [type(v) for v in values] == [int, float, float, int]

    def test_other_entries_keep_the_float_reading(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "M", "--values", "1e300,16.0,16")
        assert code == EXIT_PARTIAL
        assert [row["value"] for row in parse_csv(out)] == ["1.0000000000000001e+300", "16", "16"]
        code, out, _ = run_cli(capsys, "sweep", "--param", "beta", "--values", "9007199254740993")
        assert code == EXIT_OK
        assert [row["value"] for row in parse_csv(out)] == ["9007199254740992"]

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

    def test_non_integer_workers_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--param", "M", "--values", "1", "--workers", "abc")
        assert code == EXIT_USAGE == 1
        assert out == ""
        assert "invalid int value" in err


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

    @pytest.mark.parametrize("argv, line, message", [
        (("capacity", "--config", "{cfg}"), "ris.P_s_dBm = -inf",
         "-inf dBm underflows to zero (key 'ris.P_s_dBm', line 1)"),
        (("capacity", "--config", "{cfg}"), "geometry.G_a_dBi = -4000",
         "-4000.0 dB underflows to zero (key 'geometry.G_a_dBi', line 1)"),
        (("sweep", "--param", "P_s_dBm", "--values", "-inf"), "",
         "invalid value -inf for P_s_dBm: -inf dBm underflows to zero (key 'ris.P_s_dBm')"),
    ], ids=["config-P_s_dBm", "config-G_a_dBi", "sweep-P_s_dBm"])
    def test_underflowing_decibel_names_its_key(self, tmp_path, capsys, argv, line, message):
        cfg = tmp_path / "quiet.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *(arg.format(cfg=cfg) for arg in argv))
        assert (code, out, err) == (EXIT_USAGE, "", f"thzris: config error: {message}\n")

    @pytest.mark.filterwarnings("ignore:carrier frequency")
    @pytest.mark.parametrize("command,expected", [
        (("capacity",), EXIT_NUMERIC),
        (("sweep", "--param", "kappa", "--values", "0.05"), EXIT_PARTIAL),
    ], ids=["capacity", "sweep"])
    @pytest.mark.parametrize("line,quantity", [
        ("ris.beta = 1e200", "mean SNR"),
        ("ris.beta = 1.4e154", "mean SNR"),
        ("geometry.d_a_m = 1e-300", "mean SNR"),
        # An infinite rho_s beta^2 times an h_L^2 that underflows to 0 is NaN,
        # still an overflow of the mean SNR.
        ("ris.P_s_W = 1e300\nris.sigma2_r_W = 1e-20\nris.beta = 1e150\n"
         "absorption.kappa_per_m = 1\ngeometry.d_a_m = 700", "mean SNR overflows the double range"),
        ("geometry.f_Hz = 1e-300", "path gain h_L"),
        ("geometry.G_a = 1e308", "path gain h_L"),
        ("ris.M = 1e300", "mean_chi"),
        ("ris.M = 1" + "0" * 400, "element count"),
    ], ids=["beta", "beta_edge", "d_a_m", "nan_snr", "f_Hz", "G_a", "M", "M_401_digits"])
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

    def test_sweep_without_a_model_writes_error_rows(self, tmp_path, capsys):
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("ris.beta = 1.4e154\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--param", "M",
                               "--values", "16,64")
        assert code == EXIT_PARTIAL
        rows = parse_csv(out)
        assert [row["value"] for row in rows] == ["16", "64"]
        assert all(row["capacity_bits"] == "" and "mean SNR" in row["error"] for row in rows)

    def test_huge_element_counts(self, capsys):
        # M = 1e17 was a false negative-variance error; 1e300 overflows mean_chi.
        # The integer 10**400 is read exactly, as the line `ris.M = 1<400 zeros>` is,
        # so it fails in the model, not as a non-finite grid value.
        big = "1" + "0" * 400
        code, out, _ = run_cli(capsys, "sweep", "--param", "M", "--values", f"1e17,1e300,{big}")
        assert code == EXIT_PARTIAL
        first, second, third = parse_csv(out)
        assert first["error"] == "" and float(first["capacity_bits"]) > 0.0
        assert second["capacity_bits"] == "" and "mean_chi" in second["error"]
        assert third["value"] == big and third["capacity_bits"] == ""
        assert third["error"] == "element count of 1329 bits overflows the double range"


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

    def test_trials_flag_is_read_like_the_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "trials.cfg"
        cfg.write_text("mc.trials = 1e6\n")
        code, out, err = run_cli(capsys, "mc", "--trials", "1e6", "--dump-config")
        assert code == EXIT_OK, err
        assert out == run_cli(capsys, "mc", "--config", str(cfg), "--dump-config")[1]
        assert parse_config_text(out).mc.trials == 1_000_000

    @pytest.mark.parametrize("flag, text, key", [
        ("--trials", "abc", "mc.trials"),
        ("--trials", "1.5", "mc.trials"),
        ("--trials", "-5", "mc"),
        ("--seed", "-1", "mc"),
        ("--seed", "18446744073709551616", "mc"),
    ])
    def test_bad_seed_or_trials_is_config_error(self, capsys, flag, text, key):
        code, out, err = run_cli(capsys, "mc", flag, text)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("thzris: config error: ") and len(err.splitlines()) == 1
        assert err.endswith(f"(key {key!r})\n")

    def test_fourth_moment_mode_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text("stats.fourth_moment_mode = exact\n")
        code, out, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == "" and "unknown key 'stats.fourth_moment_mode'" in err

    @pytest.mark.parametrize("latin1,message", [
        ("scenario", "thzris: config error: cannot read config file: 'utf-8' codec can't decode byte 0xe9"),
        ("table", "thzris: config error: cannot load absorption table: 'utf-8' codec can't decode byte 0xe9"),
    ], ids=["scenario", "table"])
    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys, latin1, message):
        table = b"frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n"
        scenario = b"ris.M = 16\nabsorption.table_csv = kappa.csv\n"
        if latin1 == "table":
            table = table.replace(b"\n0.2e12", b" # caf\xe9\n0.2e12")
        else:
            scenario = b"# caf\xe9\n" + scenario
        (tmp_path / "kappa.csv").write_bytes(table)
        (tmp_path / "scenario.cfg").write_bytes(scenario)
        code, out, err = run_cli(capsys, "capacity", "--config", str(tmp_path / "scenario.cfg"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1
        if latin1 == "table":
            assert err.endswith("(key 'absorption.table_csv', line 2)\n")

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("ris.M = -3\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "config error" in err

    def test_dump_matches_library_dump(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--dump-config")
        assert out == dump_config(default_scenario())

    def test_config_error_while_running_is_usage_error(self, capsys, monkeypatch):
        # The dump sees a frequency table with no source path, which it
        # cannot write: a ConfigError raised after the config was built.
        table = AbsorptionSpec(table=((1e11, 0.0), (1e12, 0.1)))
        monkeypatch.setattr(
            thzris.cli, "dump_config",
            lambda cfg: dump_config(cfg.replace(absorption=table)),
        )
        code, out, err = run_cli(capsys, "capacity", "--dump-config")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "thzris: config error: cannot dump an in-memory absorption table without its source path\n"

    def test_table_path_with_hash_is_not_dumped(self, tmp_path, capsys):
        (tmp_path / "x#y").mkdir()
        (tmp_path / "x#y" / "t.csv").write_text("frequency_hz,kappa_per_m\n0.2e12,0.02\n0.4e12,0.08\n")
        (tmp_path / "x#y" / "s.cfg").write_text("absorption.table_csv = t.csv\n")
        code, out, err = run_cli(capsys, "capacity", "--config", str(tmp_path / "x#y" / "s.cfg"), "--dump-config")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("thzris: config error: cannot dump table path ") and len(err.splitlines()) == 1


BETA_WARNING = "amplification beta = 0.5 is below 1; active operation expects beta >= 1"


class TestWarnings:
    """A model warning reaches the user as one stderr line, and as exit 1 when raised as an error."""

    ARGV = ("-m", "thzris", "sweep", "--param", "beta", "--values", "0.5")

    def test_warning_is_one_stderr_line(self, src_env):
        proc = subprocess.run([sys.executable, *self.ARGV], capture_output=True, text=True, env=src_env, timeout=120)
        assert proc.returncode == EXIT_OK
        assert parse_csv(proc.stdout)[0]["value"] == "0.5"
        assert proc.stderr == f"thzris: warning: {BETA_WARNING}\n"

    @pytest.mark.parametrize("flags, env", [
        (("-W", "error"), {}),
        ((), {"PYTHONWARNINGS": "error"}),
    ], ids=["W-error", "PYTHONWARNINGS"])
    def test_warning_raised_as_an_error_is_exit_one(self, src_env, flags, env):
        proc = subprocess.run([sys.executable, *flags, *self.ARGV], capture_output=True, text=True,
                              env={**src_env, **env}, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == f"thzris: warning treated as an error: {BETA_WARNING}\n"

    def test_config_file_warnings_are_one_line_each(self, tmp_path, capsys):
        cfg = tmp_path / "outside.cfg"
        cfg.write_text("ris.beta = 0.5\ngeometry.f_Hz = 5e13\n")
        code, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_OK
        assert sorted(err.splitlines()) == [
            f"thzris: warning: {BETA_WARNING}",
            "thzris: warning: carrier frequency 5e+13 Hz is outside the 1.0e+11-1.0e+13 Hz band this model targets",
        ]


def test_module_entry_point(tmp_path, src_env):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("ris.beta = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "thzris", "capacity", "--config", str(cfg)],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == HEADER_LINE
