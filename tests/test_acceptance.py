"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report.  These are the heavyweight oracle-equivalence checks (10^6-10^7
Monte-Carlo trials); the per-module suites cover the same operations with
lighter settings.
"""

import csv
import io
import math
import time
from math import erf

import numpy as np
import pytest

from thzris import (
    LinkModel,
    McConfig,
    MisalignmentParams,
    QuadratureSpec,
    cascade_moments,
    cascade_samples,
    dump_config,
    ergodic_capacity,
    fit_gamma,
    integrate_finite,
    integrate_semi_infinite,
    misalignment_pdf,
    reg_lower_gamma,
    snr_cdf,
    snr_samples,
)
from thzris.capacity import _snr_coefficient
from thzris.cli import EXIT_OK, main

from oracles import cascade_chi_moments, erf_maclaurin, ks_critical, ks_statistic


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if passed else 'FAIL'}: {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_analytic_vs_oracle_capacity(tmp_path, capsys):
    details = []
    ok = True
    for label, m in (("default", None), ("M=16", 16), ("M=64", 64), ("M=100", 100)):
        cfg_path = tmp_path / f"scenario_{label}.cfg"
        lines = ["mc.trials = 1000000", "mc.seed = 314159"]
        if m is not None:
            lines.append(f"ris.M = {m}")
        cfg_path.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / f"validate_{label}.csv"
        started = time.perf_counter()
        code = main(["validate", "--config", str(cfg_path), "--out", str(out_path)])
        elapsed = time.perf_counter() - started
        row = next(csv.DictReader(io.StringIO(out_path.read_text())))
        rel_gap = float(row["rel_gap"])
        point_ok = code == EXIT_OK and rel_gap <= 0.05 and elapsed <= 60.0
        ok = ok and point_ok
        details.append(f"{label}: gap={rel_gap:.2e} t={elapsed:.1f}s exit={code}")
    report("1 analytic capacity matches 1e6-trial simulation within 5%", ok, "; ".join(details))


def test_criterion_2_cdf_equivalence(default_model):
    gammas = np.sort(snr_samples(default_model, McConfig(trials=1_000_000, seed=271828)))
    n = len(gammas)
    levels = 2048
    ranks = np.arange(1, levels) * (n // levels)
    grid = gammas[ranks - 1]
    f_emp = ranks / n
    f_ana = np.array([snr_cdf(default_model, float(s)) for s in grid])

    at_grid = float(np.max(np.abs(f_ana - f_emp)))
    # between grid points both CDFs move by at most the larger adjacent
    # increment, so the sup over all s is bounded by the grid max plus it
    jumps_emp = np.diff(np.concatenate(([0.0], f_emp, [1.0])))
    jumps_ana = np.diff(np.concatenate(([0.0], f_ana, [1.0])))
    sup_bound = at_grid + float(max(jumps_emp.max(), jumps_ana.max()))
    report(
        "2 sup-distance between analytic SNR CDF and 1e6-sample empirical CDF <= 0.01",
        sup_bound <= 0.01,
        f"grid max={at_grid:.4f}, sup bound={sup_bound:.4f}",
    )


@pytest.mark.parametrize("m", [1, 4, 16, 100])
def test_criterion_3_moment_identities(m):
    trials = 10_000_000
    chi = cascade_samples(m, McConfig(trials=trials, seed=1618 + m), workers=2)
    s = np.sqrt(chi)
    moments = cascade_moments(m)

    checks = []
    for name, sample, target in (
        ("mean_S", s, moments.mean_s),
        ("mean_chi", chi, moments.mean_chi),
    ):
        se = sample.std(ddof=1) / math.sqrt(trials)
        checks.append((name, abs(float(sample.mean()) - target), 4.0 * se))
    for name, sample, target in (
        ("var_S", s, moments.var_s),
        ("var_chi", chi, moments.var_chi),
    ):
        var = float(sample.var(ddof=1))
        centered = sample - sample.mean()
        fourth_central = float(np.mean(centered**4))
        se_var = math.sqrt(max(fourth_central - var * var, 0.0) / trials)
        checks.append((name, abs(var - target), 4.0 * se_var))

    fit = fit_gamma(moments)
    fit_ok = (
        abs(fit.shape * fit.scale - moments.mean_chi) <= 1e-12 * moments.mean_chi
        and abs(fit.shape * fit.scale**2 - moments.var_chi) <= 1e-12 * moments.var_chi
    )

    ok = fit_ok and all(gap <= bound for _, gap, bound in checks)
    detail = ", ".join(f"{name} off by {gap:.3g} (allow {bound:.3g})" for name, gap, bound in checks)
    report(f"3 exact moments match 1e7-draw simulation (M={m}) and fit round-trips",
           ok, detail + f"; fit exact={fit_ok}")


def test_criterion_4_fourth_moment_diagnostics():
    # The package fits the exact recipe; the other two come from the oracle.
    literal_ok = all(cascade_chi_moments(m, "literal")[1] < 0 for m in (1, 4, 16, 100))

    exact = cascade_moments(100).var_chi
    surrogate = float(cascade_chi_moments(100, "gaussian_surrogate")[1])
    rel = abs(surrogate - exact) / exact
    report(
        "4 literal fourth-moment recipe always diagnosed; Gaussian surrogate within 2% at M=100",
        literal_ok and rel < 0.02,
        f"surrogate/exact var gap = {rel:.4%}",
    )


def test_criterion_5_misalignment_law():
    ok = True
    details = []
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=200)
    for seed, (phi, zeta) in ((8002, (0.108, 0.6)), (8013, (0.5, 2.0))):
        p = MisalignmentParams(phi=phi, zeta=zeta)
        rng = np.random.Generator(np.random.Philox(key=seed))
        samples = phi * rng.random(100_000) ** (1.0 / zeta)
        statistic = ks_statistic(samples, lambda x: (x / phi) ** zeta)
        critical = ks_critical(len(samples), alpha=0.01)
        norm, _ = integrate_finite(lambda x: misalignment_pdf(p, x), 0.0, phi, spec)
        point_ok = statistic < critical and abs(norm - 1.0) <= 1e-9
        ok = ok and point_ok
        details.append(
            f"(phi={phi}, zeta={zeta}): KS={statistic:.4f}<{critical:.4f}, "
            f"|norm-1|={abs(norm - 1.0):.1e}"
        )
    report("5 misalignment samples pass 1% KS test; pdf normalizes within 1e-9",
           ok, "; ".join(details))


def test_criterion_6_active_gain_saturation(default_cfg):
    betas = [10.0 ** (0.5 * i) for i in range(7)]  # 1 ... 1e3, log grid
    capacities = []
    for beta in betas:
        ris = default_cfg.ris.replace(beta=beta)
        model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                          default_cfg.misalign, ris)
        capacities.append(ergodic_capacity(model, default_cfg.quad).capacity_bits)
    nondecreasing = all(b >= a for a, b in zip(capacities, capacities[1:]))

    # at beta = 1e9 the coefficient rho_s beta^2 equals P_s / sigma_r^2 to
    # the last bit, so this is the closed-form scale limit
    limit_model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                            default_cfg.misalign, default_cfg.ris.replace(beta=1e9))
    assert _snr_coefficient(limit_model) == (
        default_cfg.ris.p_s_w / default_cfg.ris.sigma2_r_w * limit_model.h_l**2
    )
    limit = ergodic_capacity(limit_model, default_cfg.quad).capacity_bits
    rel_gap = abs(capacities[-1] - limit) / limit
    report(
        "6 capacity(beta) nondecreasing on [1, 1e3] and within 1e-3 of the beta->inf limit",
        nondecreasing and rel_gap < 1e-3,
        f"C(1e3)={capacities[-1]:.6e}, limit={limit:.6e}, gap={rel_gap:.2e}",
    )


def test_criterion_7_special_function_accuracy():
    worst_erf = max(
        abs(erf(x) - erf_maclaurin(x)) for x in (i * 0.25 for i in range(-24, 25))
    )
    worst_gamma = max(
        abs(reg_lower_gamma(0.5, 0.05 * i) - erf(math.sqrt(0.05 * i)))
        for i in range(1, 201)
    )

    spec = QuadratureSpec()
    quad_ok = True
    worst_quad = 0.0
    finite_cases = [
        (lambda x: 1.0, 0.0, 1.0, 1.0),
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: math.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
    ]
    for f, a, b, truth in finite_cases:
        value, err = integrate_finite(f, a, b, spec)
        gap = abs(value - truth)
        bound = max(spec.abs_tol, spec.rel_tol * abs(truth))
        quad_ok = quad_ok and gap <= bound and gap <= err + 1e-15
        worst_quad = max(worst_quad, gap)
    semi_cases = [
        (lambda s: math.exp(-s), 1.0),
        (lambda s: 1.0 / (1.0 + s) ** 2, 1.0),
        (lambda s: 1.0 / ((1.0 + s) * (1.0 + s * s)), math.pi / 4.0),
    ]
    for f, truth in semi_cases:
        value, err = integrate_semi_infinite(f, spec)
        gap = abs(value - truth)
        bound = max(spec.abs_tol, spec.rel_tol * abs(truth))
        quad_ok = quad_ok and gap <= bound and gap <= err + 1e-15
        worst_quad = max(worst_quad, gap)

    report(
        "7 erf within 1e-12 of series oracle; incomplete gamma within 1e-10 of erf "
        "identity; quadrature examples within stated tolerances",
        worst_erf <= 1e-12 and worst_gamma <= 1e-10 and quad_ok,
        f"erf worst={worst_erf:.2e}, gamma worst={worst_gamma:.2e}, quad worst={worst_quad:.2e}",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    out_serial = tmp_path / "serial.csv"
    out_threaded = tmp_path / "threaded.csv"
    base = ["mc", "--trials", "200000", "--seed", "86753"]
    assert main(base + ["--workers", "1", "--out", str(out_serial)]) == EXIT_OK
    assert main(base + ["--workers", "4", "--out", str(out_threaded)]) == EXIT_OK
    identical = out_serial.read_bytes() == out_threaded.read_bytes()
    report("8 identical seed at different concurrency levels gives byte-identical CSV",
           identical, f"bytes equal={identical}")


def test_effective_config_is_reproducible(default_cfg, tmp_path):
    # not a numbered criterion, but the dump/parse loop underpins the others
    from thzris import parse_config

    path = tmp_path / "dump.cfg"
    path.write_text(dump_config(default_cfg))
    assert parse_config(path) == default_cfg
