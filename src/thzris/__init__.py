"""Active-RIS-assisted THz downlink: analytical link-level performance
model (path loss, molecular absorption, beam misalignment, Gamma-fitted
cascaded fading, ergodic capacity) with an independent Monte-Carlo
validator and a parameter-sweep CLI.

The Monte-Carlo names, and the ``montecarlo`` submodule that needs numpy,
are imported on first access (PEP 562), so ``import thzris`` loads only
the pure-Python layers."""

import importlib

from .capacity import (
    ActiveRisParams,
    CapacityResult,
    LinkModel,
    ergodic_capacity,
    snr_cdf,
)
from .cascade import (
    CascadeMoments,
    GammaFit,
    cascade_moments,
    fit_gamma,
)
from .channel import (
    SPEED_OF_LIGHT,
    AbsorptionSpec,
    LinkGeometry,
    MisalignmentParams,
    load_absorption_table,
    misalignment_from_physical,
    misalignment_pdf,
)
from .config import (
    McConfig,
    ScenarioConfig,
    apply_sweep_value,
    build_model,
    default_scenario,
    dump_config,
    parse_config,
    parse_config_text,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
)
from .numerics import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
    reg_lower_gamma,
)

__version__ = "0.1.0"

_MONTECARLO_NAMES = frozenset(
    {"McEstimate", "batch_rng", "cascade_samples", "estimate_ergodic_rate", "snr_samples"}
)


def __getattr__(name):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        module = importlib.import_module(".montecarlo", __name__)
        return module if name == "montecarlo" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActiveRisParams",
    "AbsorptionSpec",
    "CapacityResult",
    "CascadeMoments",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "GammaFit",
    "LinkGeometry",
    "LinkModel",
    "McConfig",
    "McEstimate",
    "MisalignmentParams",
    "QuadratureSpec",
    "SPEED_OF_LIGHT",
    "ScenarioConfig",
    "apply_sweep_value",
    "batch_rng",
    "build_model",
    "cascade_moments",
    "cascade_samples",
    "default_scenario",
    "dump_config",
    "ergodic_capacity",
    "estimate_ergodic_rate",
    "fit_gamma",
    "integrate_finite",
    "integrate_semi_infinite",
    "load_absorption_table",
    "misalignment_from_physical",
    "misalignment_pdf",
    "parse_config",
    "parse_config_text",
    "reg_lower_gamma",
    "snr_cdf",
    "snr_samples",
    "__version__",
]
