"""Scenario configuration: the flat key-value file format and its defaults.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines are ignored.  The ``_KEYS`` table is the one list of keys:
parsing, ``KNOWN_KEYS``, ``dump_config`` and the sweep parameters all read
it.  Integer keys are read exactly.  Decibel inputs (antenna gains in dBi,
transmit power in dBm) are converted to linear/watts exactly once, here;
every other module works in linear units only.  ``dump_config`` emits the
canonical linear form, so dump -> parse round-trips to an identical
configuration.

``McConfig``, the Monte-Carlo knobs, lives here rather than in
``montecarlo`` so that parsing, dumping and the analytic commands never
import numpy; only running the simulator does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
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


def _ten_to(exponent: float, value: float, unit: str) -> float:
    try:
        return 10.0 ** exponent
    except OverflowError:
        raise DomainError(f"{value!r} {unit} overflows the double range") from None


def db_to_linear(db: float) -> float:
    return _ten_to(db / 10.0, db, "dB")


def dbm_to_watts(dbm: float) -> float:
    return _ten_to((dbm - 30.0) / 10.0, dbm, "dBm")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _integer(text: str) -> int:
    """Exact for integer text; a float spelling such as ``1e6`` must be
    finite and whole."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        if float(text).is_integer():
            return int(float(text))
    except ValueError:
        pass
    raise ValueError(f"expected an integer, got {text!r}")


def _mode(text: str) -> FourthMomentMode:
    text = text.lower()
    try:
        return FourthMomentMode(text)
    except ValueError:
        choices = ", ".join(m.value for m in FourthMomentMode)
        raise ValueError(f"fourth_moment_mode must be one of {choices}, got {text!r}") from None


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


# The canonical keys in dump order: (key, section, field, type).  The
# section is a ScenarioConfig field holding ``field``; the mode row's field
# is on ScenarioConfig itself.  The type converts the value text, raising
# ValueError with the message to report.
_KEYS = (
    ("geometry.G_a", "geometry", "g_a", _number),
    ("geometry.G_b", "geometry", "g_b", _number),
    ("geometry.f_Hz", "geometry", "f_hz", _number),
    ("geometry.d_a_m", "geometry", "d_a_m", _number),
    ("geometry.d_b_m", "geometry", "d_b_m", _number),
    ("absorption.kappa_per_m", "absorption", "kappa", _number),
    ("misalign.phi", "misalign", "phi", _number),
    ("misalign.zeta", "misalign", "zeta", _number),
    ("ris.M", "ris", "num_elements", _integer),
    ("ris.beta", "ris", "beta", _number),
    ("ris.P_s_W", "ris", "p_s_w", _number),
    ("ris.sigma2_r_W", "ris", "sigma2_r_w", _number),
    ("ris.sigma2_u_W", "ris", "sigma2_u_w", _number),
    ("stats.fourth_moment_mode", None, "fourth_moment_mode", _mode),
    ("quad.abs_tol", "quad", "abs_tol", _number),
    ("quad.rel_tol", "quad", "rel_tol", _number),
    ("quad.max_subdivisions", "quad", "max_subdivisions", _integer),
    ("mc.trials", "mc", "trials", _integer),
    ("mc.seed", "mc", "seed", _integer),
    ("mc.batch", "mc", "batch", _integer),
)
_ROWS = {row[0]: row for row in _KEYS}

# Decibel spellings: dB key -> (linear key, conversion to linear units).
_DECIBEL = {
    "geometry.G_a_dBi": ("geometry.G_a", db_to_linear),
    "geometry.G_b_dBi": ("geometry.G_b", db_to_linear),
    "ris.P_s_dBm": ("ris.P_s_W", dbm_to_watts),
}
# The physical misalignment group, in misalignment_from_physical's order;
# it replaces (phi, zeta) as a whole.
_PHYSICAL_KEYS = ("misalign.r_m", "misalign.u_m", "misalign.v", "misalign.sigma2")
_TABLE_KEY = "absorption.table_csv"

KNOWN_KEYS = set(_ROWS) | set(_DECIBEL) | set(_PHYSICAL_KEYS) | {_TABLE_KEY}

_EXCLUSIVE_PAIRS = (
    *((linear, db) for db, (linear, _) in _DECIBEL.items()),
    ("absorption.kappa_per_m", _TABLE_KEY),
)


def _parse_lines(lines, source: str) -> dict[str, tuple[str, int]]:
    """Raw key -> (value text, line number) map of known, unique keys."""
    entries = {}
    for lineno, rawline in enumerate(lines, start=1):
        text = rawline.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"malformed line in {source}: {rawline.strip()!r}", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        entries[key] = (value.strip(), lineno)
    return entries


def _read(entries, key: str, kind):
    text, line = entries[key]
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(str(exc), key=key, line=line) from None


def _section(name: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"invalid {name} settings: {exc}", key=name) from exc


def _load_table(entries, base_dir: Path) -> tuple[AbsorptionSpec, str]:
    path = base_dir / entries[_TABLE_KEY][0]  # an absolute path replaces base_dir
    try:
        return load_absorption_table(path), str(path)
    except (OSError, DomainError) as exc:
        raise ConfigError(
            f"cannot load absorption table: {exc}", key=_TABLE_KEY, line=entries[_TABLE_KEY][1]
        ) from exc


def _build(entries, base_dir: Path) -> ScenarioConfig:
    for a, b in _EXCLUSIVE_PAIRS:
        if a in entries and b in entries:
            raise ConfigError(f"{a!r} and {b!r} are mutually exclusive", key=b, line=entries[b][1])

    physical = sorted(key for key in _PHYSICAL_KEYS if key in entries)
    if physical:
        first, line = physical[0], entries[physical[0]][1]
        if "misalign.phi" in entries or "misalign.zeta" in entries:
            raise ConfigError("misalignment must be given either as (phi, zeta) or as "
                              "(r_m, u_m, v, sigma2), not both", key=first, line=line)
        missing = sorted(set(_PHYSICAL_KEYS) - set(physical))
        if missing:
            raise ConfigError(f"incomplete group: {first!r} also requires {missing}",
                              key=first, line=line)

    decibel = {linear: (db, convert) for db, (linear, convert) in _DECIBEL.items() if db in entries}
    defaults = default_scenario()
    parts = {}
    for section, rows in groupby(_KEYS, key=itemgetter(1)):
        given = {}
        for key, _, field, kind in rows:
            if key in entries:
                given[field] = _read(entries, key, kind)
            elif key in decibel:
                db, convert = decibel[key]
                given[field] = _read(entries, db, lambda text: convert(kind(text)))
        if section is None:
            parts.update(given)
        elif section == "absorption" and _TABLE_KEY in entries:
            parts["absorption"], parts["absorption_table_path"] = _load_table(entries, base_dir)
        elif section == "misalign" and physical:
            given = {key.split(".")[1]: _read(entries, key, _number) for key in _PHYSICAL_KEYS}
            parts[section] = _section(section, misalignment_from_physical, **given)
        else:
            parts[section] = _section(section, replace, getattr(defaults, section), **given)
    return replace(defaults, **parts)


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
    lines = []
    for key, section, field, _ in _KEYS:
        if section is None:
            lines.append(f"{key} = {cfg.fourth_moment_mode.value}")
        elif section == "absorption" and cfg.absorption.table is not None:
            if cfg.absorption_table_path is None:
                raise ConfigError("cannot dump an in-memory absorption table without its source path")
            lines.append(f"{_TABLE_KEY} = {cfg.absorption_table_path}")
        else:
            lines.append(f"{key} = {getattr(getattr(cfg, section), field)!r}")
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


# Swept parameter -> the key it sets; a dB key is converted like the file's.
_SWEEP_KEYS = {
    "M": "ris.M",
    "beta": "ris.beta",
    "P_s_dBm": "ris.P_s_dBm",
    "f_Hz": "geometry.f_Hz",
    "d_a": "geometry.d_a_m",
    "d_b": "geometry.d_b_m",
    "kappa": "absorption.kappa_per_m",
    "phi": "misalign.phi",
    "zeta": "misalign.zeta",
}
SWEEP_PARAMS = tuple(_SWEEP_KEYS)


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one swept parameter replaced."""
    if param not in _SWEEP_KEYS:
        raise DomainError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
    key = _SWEEP_KEYS[param]
    if key in _DECIBEL:
        key, to_linear = _DECIBEL[key]
        value = to_linear(value)
    _, section, field, kind = _ROWS[key]
    if kind is _integer:
        if not float(value).is_integer():
            raise DomainError(f"{param} must be an integer, got {value!r}")
        value = int(value)
    if section == "absorption":
        # A swept kappa replaces a frequency table along with its path.
        return replace(cfg, absorption=AbsorptionSpec(kappa=value), absorption_table_path=None)
    return replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})
