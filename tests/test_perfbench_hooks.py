"""The benchmark's traced run wraps package functions by module attribute
name (``perfbench/tracing.py`` ``_WRAPPED``), and it and the workloads
(``perfbench/workloads.py``) call package functions with fixed arguments;
each name must exist and each call must bind, or the benchmark fails
instead of this suite."""

import inspect
import sys
from pathlib import Path

import pytest

import thzris.capacity
import thzris.config
import thzris.montecarlo
import thzris.numerics

ROOT = Path(__file__).resolve().parents[1]


def test_traced_call_sites_resolve():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.tracing import _WRAPPED

    missing = [
        f"{module.__name__}.{attr}" for module, attr, _, _ in _WRAPPED if not hasattr(module, attr)
    ]
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"


# (module, function, positional argument count, keyword names) of each
# call the benchmark makes; the argument values do not matter to binding.
BENCHMARK_CALLS = [
    # tracing.micro_benchmarks: snr_cdf(model, s, base.quad)
    (thzris.capacity, "snr_cdf", 3, ()),
    # workloads.capacity_call: ergodic_capacity(build_model(cfg), cfg.quad)
    (thzris.capacity, "ergodic_capacity", 2, ()),
    (thzris.config, "build_model", 1, ()),
    # scenarios.scenario_config: apply_sweep_value(cfg, param, float(value))
    (thzris.config, "apply_sweep_value", 3, ()),
    # tracing.micro_benchmarks: gamma(k, x), with gamma = numerics.reg_lower_gamma
    (thzris.numerics, "reg_lower_gamma", 2, ()),
    # tracing.micro_benchmarks: _snr_coefficient(model)
    (thzris.capacity, "_snr_coefficient", 1, ()),
    # workloads.mc_call: estimate_ergodic_rate(model, cfg, workers=workers)
    (thzris.montecarlo, "estimate_ergodic_rate", 2, ("workers",)),
    # workloads.mc_call: McConfig(trials=mc_trials(num_elements), seed=seed, batch=MC_BATCH)
    (thzris.config, "McConfig", 0, ("trials", "seed", "batch")),
]


@pytest.mark.parametrize(
    "module, name, positional, keywords",
    BENCHMARK_CALLS,
    ids=[f"{module.__name__.split('.')[-1]}.{name}" for module, name, _, _ in BENCHMARK_CALLS],
)
def test_benchmark_calls_bind(module, name, positional, keywords):
    inspect.signature(getattr(module, name)).bind(*[None] * positional, **dict.fromkeys(keywords))
