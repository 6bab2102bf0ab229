"""Scenario configuration: the flat key-value file format and its defaults.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines are ignored.  Decibel inputs (antenna gains in dBi, transmit
power in dBm) are converted to linear/watts exactly once, here; every
other module works in linear units only.  ``dump_config`` emits the
canonical linear form, so dump -> parse round-trips to an identical
configuration.

``McConfig``, the Monte-Carlo knobs, lives here rather than in
``montecarlo`` so that parsing, dumping and the analytic commands never
import numpy; only running the simulator does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .capacity import ActiveRisParams, LinkModel
from .cascade import FourthMomentMode
from .channel import AbsorptionSpec, LinkGeometry, MisalignmentParams, load_absorption_table, misalignment_from_physical
from .errors import ConfigError, DomainError
from .numerics import QuadratureSpec, erf

# Peak captured-power fraction of the default scenario, from a normalized
# pointing offset of 0.3.
DEFAULT_PHI = erf(0.3) ** 2


@dataclass(frozen=True)
class McConfig:
    """Trial count, base seed and trials-per-batch reduction block."""

    trials: int = 1_000_000
    seed: int = 20260810
    batch: int = 16_384

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials!r}")
        if self.batch < 1:
            raise DomainError(f"batch must be >= 1, got {self.batch!r}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully-resolved scenario: every knob the CLI commands need."""

    geometry: LinkGeometry
    absorption: AbsorptionSpec
    misalign: MisalignmentParams
    ris: ActiveRisParams
    fourth_moment_mode: FourthMomentMode
    quad: QuadratureSpec
    mc: McConfig
    absorption_table_path: str | None = None


def default_scenario() -> ScenarioConfig:
    """Mid-range THz downlink defaults: 30 dBi antennas, 15 m hops at
    0.3 THz, kappa = 0.05 1/m, a 100-element RIS with beta = 2 and 30 dBm
    transmit power against 0.01 W noise floors."""
    return ScenarioConfig(
        geometry=LinkGeometry(
            g_a=db_to_linear(30.0),
            g_b=db_to_linear(30.0),
            f_hz=0.3e12,
            d_a_m=15.0,
            d_b_m=15.0,
        ),
        absorption=AbsorptionSpec(kappa=0.05),
        misalign=MisalignmentParams(phi=DEFAULT_PHI, zeta=0.6),
        ris=ActiveRisParams(
            num_elements=100,
            beta=2.0,
            p_s_w=dbm_to_watts(30.0),
            sigma2_r_w=0.01,
            sigma2_u_w=0.01,
        ),
        fourth_moment_mode=FourthMomentMode.EXACT,
        quad=QuadratureSpec(),
        mc=McConfig(),
    )


_GEOMETRY_KEYS = {
    "geometry.G_a", "geometry.G_a_dBi", "geometry.G_b", "geometry.G_b_dBi",
    "geometry.f_Hz", "geometry.d_a_m", "geometry.d_b_m",
}
_ABSORPTION_KEYS = {"absorption.kappa_per_m", "absorption.table_csv"}
_MISALIGN_DIRECT_KEYS = {"misalign.phi", "misalign.zeta"}
_MISALIGN_PHYSICAL_KEYS = {"misalign.r_m", "misalign.u_m", "misalign.v", "misalign.sigma2"}
_RIS_KEYS = {
    "ris.M", "ris.beta", "ris.P_s_W", "ris.P_s_dBm",
    "ris.sigma2_r_W", "ris.sigma2_u_W",
}
_OTHER_KEYS = {
    "stats.fourth_moment_mode",
    "quad.abs_tol", "quad.rel_tol", "quad.max_subdivisions",
    "mc.trials", "mc.seed", "mc.batch",
}
KNOWN_KEYS = (
    _GEOMETRY_KEYS | _ABSORPTION_KEYS | _MISALIGN_DIRECT_KEYS
    | _MISALIGN_PHYSICAL_KEYS | _RIS_KEYS | _OTHER_KEYS
)

_EXCLUSIVE_PAIRS = (
    ("geometry.G_a", "geometry.G_a_dBi"),
    ("geometry.G_b", "geometry.G_b_dBi"),
    ("ris.P_s_W", "ris.P_s_dBm"),
    ("absorption.kappa_per_m", "absorption.table_csv"),
)


class _Entries:
    """Raw key -> (value string, line number) map with typed accessors."""

    def __init__(self):
        self.data: dict[str, tuple[str, int]] = {}

    def add(self, key: str, value: str, line: int) -> None:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key, line=line)
        if key in self.data:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=line)
        self.data[key] = (value, line)

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def line(self, key: str) -> int | None:
        return self.data[key][1] if key in self.data else None

    def raw(self, key: str) -> str:
        return self.data[key][0]

    def get_float(self, key: str, default: float) -> float:
        if key not in self.data:
            return default
        value, line = self.data[key]
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"expected a number, got {value!r}", key=key, line=line) from None

    def get_int(self, key: str, default: int) -> int:
        if key not in self.data:
            return default
        value, line = self.data[key]
        try:
            as_float = float(value)
        except ValueError:
            raise ConfigError(f"expected an integer, got {value!r}", key=key, line=line) from None
        if as_float != int(as_float):
            raise ConfigError(f"expected an integer, got {value!r}", key=key, line=line)
        return int(as_float)


def _parse_lines(lines, source: str) -> _Entries:
    entries = _Entries()
    for lineno, rawline in enumerate(lines, start=1):
        text = rawline.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"malformed line in {source}: {rawline.strip()!r}", line=lineno)
        key, _, value = text.partition("=")
        entries.add(key.strip(), value.strip(), lineno)
    return entries


def _require_exactly(entries: _Entries, group: set[str], present: set[str]) -> None:
    missing = sorted(group - present)
    if missing:
        first = sorted(present)[0]
        raise ConfigError(
            f"incomplete group: {first!r} also requires {missing}",
            key=first,
            line=entries.line(first),
        )


def _build(entries: _Entries, base_dir: Path) -> ScenarioConfig:
    for a, b in _EXCLUSIVE_PAIRS:
        if a in entries and b in entries:
            raise ConfigError(
                f"{a!r} and {b!r} are mutually exclusive", key=b, line=entries.line(b)
            )

    direct = {k for k in _MISALIGN_DIRECT_KEYS if k in entries}
    physical = {k for k in _MISALIGN_PHYSICAL_KEYS if k in entries}
    if direct and physical:
        key = sorted(physical)[0]
        raise ConfigError(
            "misalignment must be given either as (phi, zeta) or as "
            "(r_m, u_m, v, sigma2), not both",
            key=key,
            line=entries.line(key),
        )
    if physical:
        _require_exactly(entries, _MISALIGN_PHYSICAL_KEYS, physical)

    defaults = default_scenario()

    def section(name: str, builder):
        try:
            return builder()
        except DomainError as exc:
            raise ConfigError(f"invalid {name} settings: {exc}", key=name) from exc

    if "geometry.G_a" in entries:
        g_a = entries.get_float("geometry.G_a", 0.0)
    else:
        g_a = db_to_linear(entries.get_float("geometry.G_a_dBi", 30.0))
    if "geometry.G_b" in entries:
        g_b = entries.get_float("geometry.G_b", 0.0)
    else:
        g_b = db_to_linear(entries.get_float("geometry.G_b_dBi", 30.0))
    geometry = section(
        "geometry",
        lambda: LinkGeometry(
            g_a=g_a,
            g_b=g_b,
            f_hz=entries.get_float("geometry.f_Hz", defaults.geometry.f_hz),
            d_a_m=entries.get_float("geometry.d_a_m", defaults.geometry.d_a_m),
            d_b_m=entries.get_float("geometry.d_b_m", defaults.geometry.d_b_m),
        ),
    )

    table_path: str | None = None
    if "absorption.table_csv" in entries:
        raw = entries.raw("absorption.table_csv")
        path = Path(raw)
        if not path.is_absolute():
            path = base_dir / path
        table_path = str(path)
        try:
            absorption = load_absorption_table(path)
        except (OSError, DomainError) as exc:
            raise ConfigError(
                f"cannot load absorption table: {exc}",
                key="absorption.table_csv",
                line=entries.line("absorption.table_csv"),
            ) from exc
    else:
        absorption = section(
            "absorption",
            lambda: AbsorptionSpec(
                kappa=entries.get_float("absorption.kappa_per_m", defaults.absorption.kappa)
            ),
        )

    if physical:
        misalign = section(
            "misalign",
            lambda: misalignment_from_physical(
                r_m=entries.get_float("misalign.r_m", 0.0),
                u_m=entries.get_float("misalign.u_m", 0.0),
                v=entries.get_float("misalign.v", 0.0),
                sigma2=entries.get_float("misalign.sigma2", 0.0),
            ),
        )
    else:
        misalign = section(
            "misalign",
            lambda: MisalignmentParams(
                phi=entries.get_float("misalign.phi", defaults.misalign.phi),
                zeta=entries.get_float("misalign.zeta", defaults.misalign.zeta),
            ),
        )

    if "ris.P_s_W" in entries:
        p_s_w = entries.get_float("ris.P_s_W", 0.0)
    else:
        p_s_w = dbm_to_watts(entries.get_float("ris.P_s_dBm", 30.0))
    ris = section(
        "ris",
        lambda: ActiveRisParams(
            num_elements=entries.get_int("ris.M", defaults.ris.num_elements),
            beta=entries.get_float("ris.beta", defaults.ris.beta),
            p_s_w=p_s_w,
            sigma2_r_w=entries.get_float("ris.sigma2_r_W", defaults.ris.sigma2_r_w),
            sigma2_u_w=entries.get_float("ris.sigma2_u_W", defaults.ris.sigma2_u_w),
        ),
    )

    if "stats.fourth_moment_mode" in entries:
        raw = entries.raw("stats.fourth_moment_mode").strip().lower()
        try:
            mode = FourthMomentMode(raw)
        except ValueError:
            choices = ", ".join(m.value for m in FourthMomentMode)
            raise ConfigError(
                f"fourth_moment_mode must be one of {choices}, got {raw!r}",
                key="stats.fourth_moment_mode",
                line=entries.line("stats.fourth_moment_mode"),
            ) from None
    else:
        mode = defaults.fourth_moment_mode

    quad = section(
        "quad",
        lambda: QuadratureSpec(
            abs_tol=entries.get_float("quad.abs_tol", defaults.quad.abs_tol),
            rel_tol=entries.get_float("quad.rel_tol", defaults.quad.rel_tol),
            max_subdivisions=entries.get_int(
                "quad.max_subdivisions", defaults.quad.max_subdivisions
            ),
        ),
    )
    mc = section(
        "mc",
        lambda: McConfig(
            trials=entries.get_int("mc.trials", defaults.mc.trials),
            seed=entries.get_int("mc.seed", defaults.mc.seed),
            batch=entries.get_int("mc.batch", defaults.mc.batch),
        ),
    )

    return ScenarioConfig(
        geometry=geometry,
        absorption=absorption,
        misalign=misalign,
        ris=ris,
        fourth_moment_mode=mode,
        quad=quad,
        mc=mc,
        absorption_table_path=table_path,
    )


def parse_config(path) -> ScenarioConfig:
    """Load and validate a scenario file; see the module docstring for the
    format.  Raises ConfigError naming the offending key and line."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    entries = _parse_lines(lines, str(path))
    return _build(entries, path.parent)


def parse_config_text(text: str, base_dir: str | Path = ".") -> ScenarioConfig:
    """Parse configuration from a string (relative table paths resolve
    against ``base_dir``)."""
    entries = _parse_lines(text.splitlines(), "<string>")
    return _build(entries, Path(base_dir))


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical key-value rendering; parsing it back yields an equal config.

    Linear/watt units are emitted (never dB) so no conversion happens on
    re-parse; floats use repr, which round-trips exactly.
    """
    lines = [
        f"geometry.G_a = {cfg.geometry.g_a!r}",
        f"geometry.G_b = {cfg.geometry.g_b!r}",
        f"geometry.f_Hz = {cfg.geometry.f_hz!r}",
        f"geometry.d_a_m = {cfg.geometry.d_a_m!r}",
        f"geometry.d_b_m = {cfg.geometry.d_b_m!r}",
    ]
    if cfg.absorption.table is not None:
        if cfg.absorption_table_path is None:
            raise ConfigError("cannot dump an in-memory absorption table without its source path")
        lines.append(f"absorption.table_csv = {cfg.absorption_table_path}")
    else:
        lines.append(f"absorption.kappa_per_m = {cfg.absorption.kappa!r}")
    lines += [
        f"misalign.phi = {cfg.misalign.phi!r}",
        f"misalign.zeta = {cfg.misalign.zeta!r}",
        f"ris.M = {cfg.ris.num_elements}",
        f"ris.beta = {cfg.ris.beta!r}",
        f"ris.P_s_W = {cfg.ris.p_s_w!r}",
        f"ris.sigma2_r_W = {cfg.ris.sigma2_r_w!r}",
        f"ris.sigma2_u_W = {cfg.ris.sigma2_u_w!r}",
        f"stats.fourth_moment_mode = {cfg.fourth_moment_mode.value}",
        f"quad.abs_tol = {cfg.quad.abs_tol!r}",
        f"quad.rel_tol = {cfg.quad.rel_tol!r}",
        f"quad.max_subdivisions = {cfg.quad.max_subdivisions}",
        f"mc.trials = {cfg.mc.trials}",
        f"mc.seed = {cfg.mc.seed}",
        f"mc.batch = {cfg.mc.batch}",
    ]
    return "\n".join(lines) + "\n"


def build_model(cfg: ScenarioConfig) -> LinkModel:
    """Assemble the immutable link model from a scenario."""
    return LinkModel(
        geometry=cfg.geometry,
        absorption=cfg.absorption,
        misalign=cfg.misalign,
        ris=cfg.ris,
        fourth_moment_mode=cfg.fourth_moment_mode,
    )


SWEEP_PARAMS = ("M", "beta", "P_s_dBm", "f_Hz", "d_a", "d_b", "kappa", "phi", "zeta")


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one swept parameter replaced."""
    if param == "M":
        if value != int(value):
            raise DomainError(f"M must be an integer, got {value!r}")
        return replace(cfg, ris=replace(cfg.ris, num_elements=int(value)))
    if param == "beta":
        return replace(cfg, ris=replace(cfg.ris, beta=value))
    if param == "P_s_dBm":
        return replace(cfg, ris=replace(cfg.ris, p_s_w=dbm_to_watts(value)))
    if param == "f_Hz":
        return replace(cfg, geometry=replace(cfg.geometry, f_hz=value))
    if param == "d_a":
        return replace(cfg, geometry=replace(cfg.geometry, d_a_m=value))
    if param == "d_b":
        return replace(cfg, geometry=replace(cfg.geometry, d_b_m=value))
    if param == "kappa":
        return replace(cfg, absorption=AbsorptionSpec(kappa=value), absorption_table_path=None)
    if param == "phi":
        return replace(cfg, misalign=replace(cfg.misalign, phi=value))
    if param == "zeta":
        return replace(cfg, misalign=replace(cfg.misalign, zeta=value))
    raise DomainError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
