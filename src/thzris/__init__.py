"""Active-RIS-assisted THz downlink: analytical link-level performance
model (path loss, molecular absorption, beam misalignment, Gamma-fitted
cascaded fading, ergodic capacity) with an independent Monte-Carlo
validator and a parameter-sweep CLI.

``import thzris`` loads only ``channel``, ``config`` and ``errors``.  The
solver's names (``capacity``, ``cascade``, ``numerics``), the Monte-Carlo
ones (``montecarlo``, which needs numpy) and those submodules themselves
are imported on first access (PEP 562)."""

import importlib

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
    ActiveRisParams,
    McConfig,
    QuadratureSpec,
    ScenarioConfig,
    apply_sweep_value,
    build_model,
    default_scenario,
    dump_config,
    parse_config,
    parse_config_text,
)
from .errors import ConfigError, ConvergenceError, DomainError

__version__ = "0.1.0"

# Lazy name -> the submodule that defines it; a submodule's own name maps to itself.
_LAZY = {
    name: module
    for module, names in (
        ("capacity", ("CapacityResult", "LinkModel", "ergodic_capacity", "snr_cdf")),
        ("cascade", ("CascadeMoments", "GammaFit", "cascade_moments", "fit_gamma")),
        ("numerics", ("integrate_finite", "integrate_semi_infinite", "reg_lower_gamma")),
        ("montecarlo", ("McEstimate", "batch_rng", "cascade_samples", "estimate_ergodic_rate", "snr_samples")),
    )
    for name in (module, *names)
}


def __getattr__(name):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return module if name == _LAZY[name] else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


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
