"""Reference ergodic capacities for the benchmark scenarios.

The capacity is computed without the package's quadrature or special
functions.  The SNR CDF of the Gamma-fitted cascade under power-law
misalignment has the closed form

    F(s) = P(k, b) + b^(zeta/2) * Gamma(k - zeta/2, b) / Gamma(k),
    b = s / (c * phi^2 * theta),

(substitute w = b u^(-2/zeta) in the mixture integral and integrate by
parts).  The capacity (1/ln 2) * int_0^inf (1 - F(s)) / (1 + s) ds is
integrated in y = ln(b / k) with scipy (special functions and QUADPACK),
and cross-checked with mpmath (30 digits, Gauss-Legendre); the two agree
to better than 1e-10 relative on every scenario.

Only the model constants (c, phi, zeta, k, theta) come from
``thzris.build_model``; they are stored next to each value so that a
change to the model shows up as a parameter mismatch rather than as a
silent reference drift.

Run from the repository root (takes about a minute):

    python3 perfbench/reference/make_reference.py > perfbench/reference/capacities.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
from scipy import integrate, special

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.scenarios import REFERENCE_SCENARIOS, scenario_config  # noqa: E402
from thzris import build_model  # noqa: E402
from thzris.capacity import _snr_coefficient  # noqa: E402


def model_constants(cfg) -> dict:
    model = build_model(cfg)
    return {
        "coeff": _snr_coefficient(model),
        "phi": model.misalign.phi,
        "zeta": model.misalign.zeta,
        "shape": model.fit.shape,
        "scale": model.fit.scale,
    }


def _breakpoints(k: float, mean_snr: float) -> tuple[list[float], float]:
    """Integration grid in y = ln(b/k) and its upper end.

    Marks the Gamma bulk around y = 0 (relative width ~ 1/sqrt(k)), the
    1/(1+s) knee at s = 1, and stops where the exp(-b) tail is < 1e-300.
    """
    y_top = math.log((k + 30.0 * math.sqrt(k) + 800.0) / k)
    width = 1.0 / math.sqrt(k)
    points = {-120.0, -60.0, -30.0, -15.0, -5.0, -1.0, 0.0, y_top}
    for n in (1, 2, 4, 8):
        points.add(math.log1p(n * width))
        if n * width < 0.9:
            points.add(math.log1p(-n * width))
    knee = -math.log(mean_snr)
    for off in (-10.0, -3.0, 0.0, 3.0, 10.0):
        points.add(knee + off)
    return sorted(p for p in points if -120.0 <= p <= y_top), y_top


def capacity_scipy(p: dict) -> tuple[float, float]:
    """Capacity in bits and QUADPACK's summed error estimate, in bits."""
    k, half = p["shape"], 0.5 * p["zeta"]
    a = k - half
    if a <= 0.0:
        raise ValueError(f"closed form needs Gamma(a, b) with a = {a} > 0 in this script")
    mean_snr = p["coeff"] * p["phi"] ** 2 * p["scale"] * k
    log_ratio = special.gammaln(a) - special.gammaln(k)

    def integrand(y: float) -> float:
        b = k * math.exp(y)
        tail = math.exp(half * math.log(b) + log_ratio) * special.gammaincc(a, b)
        s = mean_snr * math.exp(y)
        return (special.gammaincc(k, b) - tail) * (s / (1.0 + s))

    grid, _ = _breakpoints(k, mean_snr)
    total = err = 0.0
    for lo, hi in zip(grid, grid[1:]):
        v, e = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        total += v
        err += e
    return total / math.log(2.0), err / math.log(2.0)


def capacity_mpmath(p: dict) -> float:
    """The same integral with mpmath's incomplete gamma and Gauss-Legendre."""
    with mp.workdps(30):
        k, half = mp.mpf(p["shape"]), mp.mpf(p["zeta"]) / 2
        mean_snr = mp.mpf(p["coeff"]) * mp.mpf(p["phi"]) ** 2 * mp.mpf(p["scale"]) * k
        log_gk = mp.loggamma(k)

        def integrand(y):
            b = k * mp.exp(y)
            q = mp.gammainc(k, b, mp.inf, regularized=True)
            tail = mp.exp(half * mp.log(b) + mp.log(mp.gammainc(k - half, b, mp.inf)) - log_gk)
            s = mean_snr * mp.exp(y)
            return (q - tail) * s / (1 + s)

        grid, _ = _breakpoints(float(k), float(mean_snr))
        value = mp.quad(integrand, [mp.mpf(x) for x in grid], method="gauss-legendre")
        return float(value / mp.log(2))


def main() -> None:
    out = {}
    for name in REFERENCE_SCENARIOS:
        params = model_constants(scenario_config(name))
        bits, err = capacity_scipy(params)
        check = capacity_mpmath(params)
        out[name] = {
            "capacity_bits": bits,
            "scipy_err_bits": err,
            "mpmath_capacity_bits": check,
            "scipy_vs_mpmath_rel": abs(bits - check) / check,
            "params": params,
        }
        print(f"{name}: {bits!r} (scipy vs mpmath {abs(bits - check) / check:.2g})",
              file=sys.stderr, flush=True)
    json.dump({"generator": "perfbench/reference/make_reference.py", "scenarios": out},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
