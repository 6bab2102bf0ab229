"""Scenario names shared by the workloads and the reference generator.

A scenario is the default configuration with at most one parameter
changed, named ``param=value`` (or ``default``).
"""

from __future__ import annotations

from thzris import apply_sweep_value, default_scenario

# analytic_grid: the default plus one-parameter changes covering the
# SNR, element-count and misalignment regimes.
GRID = (
    "default",
    "P_s_dBm=150",
    "P_s_dBm=250",
    "M=1",
    "M=1024",
    "M=10000",
    "M=100000",
    "zeta=0.05",
    "zeta=3",
    "zeta=50",
)

# mc_sampler element counts; M=100 is the default scenario.
MC_ELEMENTS = (1, 100, 1024)

# cli_sweep: `thzris sweep --param M --values 16,64,100,256`.
SWEEP_PARAM = "M"
SWEEP_VALUES = (16, 64, 100, 256)

REFERENCE_SCENARIOS = GRID + tuple(
    f"M={m}" for m in SWEEP_VALUES if f"M={m}" not in GRID and m != 100
)


def mc_scenario(num_elements: int) -> str:
    return "default" if num_elements == 100 else f"M={num_elements}"


def scenario_config(name: str):
    cfg = default_scenario()
    if name == "default":
        return cfg
    param, value = name.split("=")
    return apply_sweep_value(cfg, param, float(value))


# Failures each scenario shows at the commit that introduced the benchmark,
# by the kind check_capacity reports.  They stay in the grid and count as
# failed operations.  A raise in one of these scenarios is also expected
# (the contract's ConvergenceError); any other failure makes a run incorrect.
KNOWN_DEFECTS = {
    # Incomplete-gamma series stalls at k ~ 40249: ConvergenceError.
    "M=100000": "raise",
    # quad_err 1.45 bits on 28.4 bits: the tolerance is checked in
    # variables normalized by the mean SNR, not in bits.
    "P_s_dBm=250": "contract",
    # Lower-tail miss of the inner CDF quadrature: 3.5e-6 relative off the
    # closed-form reference while quad_err claims 7e-9 relative.
    "zeta=3": "reference",
}


def metric_id(name: str) -> str:
    """Scenario name as a metric-name component (no '=')."""
    return name.replace("=", "_")
