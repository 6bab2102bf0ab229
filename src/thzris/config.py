"""Scenario configuration: the flat key-value file format and its defaults.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines are ignored.  The ``_KEYS`` table is the one list of scalar
keys, dB spellings included: parsing, ``KNOWN_KEYS``, ``dump_config`` and
a swept value all read it.  Only the physical misalignment group and
``absorption.table_csv`` are not rows of it.  Integer keys are read
exactly.  Decibel inputs (antenna gains in dBi, transmit power in dBm) are
converted to linear/watts exactly once, here, and one that overflows or
underflows to zero is an error at its own key; every other module works
in linear units only.  ``dump_config`` emits the canonical linear form, so
dump -> parse round-trips to an identical configuration.

``ActiveRisParams``, ``QuadratureSpec`` and ``McConfig``, the records of
the ``ris``, ``quad`` and ``mc`` sections, live here rather than in the
solver or the simulator, so parsing and dumping load neither the solver
nor numpy; ``build_model`` imports the solver when it is called.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from itertools import combinations, groupby
from operator import itemgetter

from .channel import AbsorptionSpec, LinkGeometry, MisalignmentParams, load_absorption_table, misalignment_from_physical
from .errors import ConfigError, DomainError, _in_double_range, _Record, _require_count, _require_finite

# Peak captured-power fraction of the default scenario, from a normalized
# pointing offset of 0.3.
DEFAULT_PHI = math.erf(0.3) ** 2


class ActiveRisParams(_Record):
    """Element count, per-element amplification and the power budget."""

    def __init__(self, num_elements: int, beta: float, p_s_w: float, sigma2_r_w: float, sigma2_u_w: float):
        super().__init__(
            num_elements=_require_count("num_elements", num_elements),
            beta=_require_finite("beta", beta, allow_zero=True),
            p_s_w=_require_finite("p_s_w", p_s_w),
            sigma2_r_w=_require_finite("sigma2_r_w", sigma2_r_w, allow_zero=True),
            sigma2_u_w=_require_finite("sigma2_u_w", sigma2_u_w),
        )
        if beta < 1.0:
            warnings.warn(
                f"amplification beta = {beta:.4g} is below 1; "
                "active operation expects beta >= 1",
                stacklevel=2,
            )


class QuadratureSpec(_Record):
    """Tolerance and budget knobs for the adaptive integrators.

    Convergence is declared when the accumulated error estimate drops below
    ``max(abs_tol, rel_tol * |value|)``.
    """

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-8, max_subdivisions: int = 60):
        super().__init__(
            abs_tol=_require_finite("abs_tol", abs_tol),
            rel_tol=_require_finite("rel_tol", rel_tol),
            max_subdivisions=_require_count("max_subdivisions", max_subdivisions),
        )


class McConfig(_Record):
    """Trial count (at least 2, for a standard error), base seed and trials-per-batch reduction block."""

    def __init__(self, trials: int = 1_000_000, seed: int = 20260810, batch: int = 16_384):
        _require_count("trials", trials, minimum=2)
        _require_count("batch", batch)
        if _require_count("seed", seed, minimum=0) >= 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        super().__init__(trials=trials, seed=seed, batch=batch)


def _from_decibels(value: float, unit: str, offset: float = 0.0) -> float:
    """10^((value - offset) / 10); a DomainError naming ``value`` if nan or if the power overflows or is 0."""
    if math.isnan(value):
        raise DomainError(f"{value!r} {unit} is not a number")
    ratio = _in_double_range(f"{value!r} {unit}", pow, 10.0, (value - offset) / 10.0)
    if ratio == 0.0:
        raise DomainError(f"{value!r} {unit} underflows to zero")
    return ratio


def db_to_linear(db: float) -> float:
    return _from_decibels(db, "dB")


def dbm_to_watts(dbm: float) -> float:
    return _from_decibels(dbm, "dBm", 30.0)


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
    digits = (text[1:] if text[:1] in "+-" else text).replace("_", "")
    # CPython's cap on int() digits (0: none; absent before 3.10.7) rejects
    # such text; do not echo it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits.isdecimal() and 0 < limit < len(digits):
        raise ValueError(f"integer of {len(digits)} digits is longer than the interpreter converts")
    try:
        if float(text).is_integer():
            return int(float(text))
    except ValueError:
        pass
    raise ValueError(f"expected an integer, got {text!r}")


class ScenarioConfig(_Record):
    """A fully-resolved scenario: every knob the CLI commands need."""

    def __init__(
        self,
        geometry: LinkGeometry,
        absorption: AbsorptionSpec,
        misalign: MisalignmentParams,
        ris: ActiveRisParams,
        quad: QuadratureSpec,
        mc: McConfig,
    ):
        super().__init__(geometry=geometry, absorption=absorption, misalign=misalign, ris=ris, quad=quad, mc=mc)


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
        quad=QuadratureSpec(),
        mc=McConfig(),
    )


# The scalar keys in dump order: (key, section, field, type).  The section
# is a ScenarioConfig field holding ``field``.  The type converts the value
# text, raising ValueError with the message to report.  A dB spelling
# follows the linear row of its field; only the first row is dumped.
_KEYS = (
    ("geometry.G_a", "geometry", "g_a", _number),
    ("geometry.G_a_dBi", "geometry", "g_a", lambda text: db_to_linear(_number(text))),
    ("geometry.G_b", "geometry", "g_b", _number),
    ("geometry.G_b_dBi", "geometry", "g_b", lambda text: db_to_linear(_number(text))),
    ("geometry.f_Hz", "geometry", "f_hz", _number),
    ("geometry.d_a_m", "geometry", "d_a_m", _number),
    ("geometry.d_b_m", "geometry", "d_b_m", _number),
    ("absorption.kappa_per_m", "absorption", "kappa", _number),
    ("misalign.phi", "misalign", "phi", _number),
    ("misalign.zeta", "misalign", "zeta", _number),
    ("ris.M", "ris", "num_elements", _integer),
    ("ris.beta", "ris", "beta", _number),
    ("ris.P_s_W", "ris", "p_s_w", _number),
    ("ris.P_s_dBm", "ris", "p_s_w", lambda text: dbm_to_watts(_number(text))),
    ("ris.sigma2_r_W", "ris", "sigma2_r_w", _number),
    ("ris.sigma2_u_W", "ris", "sigma2_u_w", _number),
    ("quad.abs_tol", "quad", "abs_tol", _number),
    ("quad.rel_tol", "quad", "rel_tol", _number),
    ("quad.max_subdivisions", "quad", "max_subdivisions", _integer),
    ("mc.trials", "mc", "trials", _integer),
    ("mc.seed", "mc", "seed", _integer),
    ("mc.batch", "mc", "batch", _integer),
)

# The physical misalignment group, in misalignment_from_physical's order;
# it replaces (phi, zeta) as a whole.
_PHYSICAL_KEYS = ("misalign.r_m", "misalign.u_m", "misalign.v", "misalign.sigma2")
_TABLE_KEY = "absorption.table_csv"

KNOWN_KEYS = {row[0] for row in _KEYS} | set(_PHYSICAL_KEYS) | {_TABLE_KEY}

# Two rows that set one field exclude each other, as a table excludes kappa.
_EXCLUSIVE_PAIRS = (
    *((a[0], b[0]) for a, b in combinations(_KEYS, 2) if a[1:3] == b[1:3]),
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


def _load_table(entries, base_dir: str) -> AbsorptionSpec:
    # An absolute entry replaces base_dir; the table keeps its absolute path, so its dump reads back anywhere.
    try:
        return load_absorption_table(os.path.join(base_dir, entries[_TABLE_KEY][0]))
    except (OSError, UnicodeDecodeError, DomainError) as exc:
        raise ConfigError(
            f"cannot load absorption table: {exc}", key=_TABLE_KEY, line=entries[_TABLE_KEY][1]
        ) from exc


def _build(entries, base: ScenarioConfig, base_dir: str = ".") -> ScenarioConfig:
    """Rebuild and check the sections of ``base`` that ``entries`` (key -> (text, line or None))
    gives keys for, keeping the others; a given kappa replaces any absorption table."""
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

    parts = {}
    for section, rows in groupby(_KEYS, key=itemgetter(1)):
        given = {}
        for key, _, field, kind in rows:
            if key in entries:
                given[field] = _read(entries, key, kind)
        if section == "absorption" and _TABLE_KEY in entries:
            parts[section] = _load_table(entries, base_dir)
        elif section == "misalign" and physical:
            given = {key.split(".")[1]: _read(entries, key, _number) for key in _PHYSICAL_KEYS}
            parts[section] = _section(section, misalignment_from_physical, **given)
        elif section == "absorption" and given:
            parts[section] = _section(section, AbsorptionSpec, **given)
        elif given:
            parts[section] = _section(section, getattr(base, section).replace, **given)
    return base.replace(**parts)


def parse_config(path) -> ScenarioConfig:
    """Load and validate a UTF-8 scenario file, which may start with a byte-order mark; see the
    module docstring for the format.  Raises ConfigError naming the offending key and line."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return _build(_parse_lines(text.splitlines(), path), default_scenario(), os.path.dirname(path))


def parse_config_text(text: str, base_dir: str | os.PathLike = ".") -> ScenarioConfig:
    """Parse configuration from a string; a relative table path resolves against ``base_dir``."""
    return _build(_parse_lines(text.splitlines(), "<string>"), default_scenario(), os.fspath(base_dir))


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical key-value rendering; parsing it back yields an equal config.

    Linear/watt units are emitted (never dB) so no conversion happens on
    re-parse; floats use repr, which round-trips exactly.
    """
    lines = {}
    for key, section, field, _ in _KEYS:
        if section == "absorption" and cfg.absorption.table is not None:
            source = cfg.absorption.source
            if source is None:
                raise ConfigError("cannot dump an in-memory absorption table without its source path")
            # The parser reads UTF-8, cuts a line at '#', splits lines and strips values, so such a
            # path reads back wrong; a byte that is not UTF-8 is held as a lone surrogate.
            if ("#" in source or source.strip() != source or source.splitlines() != [source]
                    or any("\ud800" <= c <= "\udfff" for c in source)):
                raise ConfigError(f"cannot dump table path {source!r}: it holds a '#', a line break, "
                                  "surrounding whitespace or a byte that is not UTF-8", key=_TABLE_KEY)
            lines[section, field] = f"{_TABLE_KEY} = {source}"
        else:
            lines.setdefault((section, field), f"{key} = {getattr(getattr(cfg, section), field)!r}")
    return "\n".join(lines.values()) + "\n"


def build_model(cfg: ScenarioConfig) -> LinkModel:
    """Assemble the immutable link model from a scenario."""
    from .capacity import LinkModel
    return LinkModel(
        geometry=cfg.geometry,
        absorption=cfg.absorption,
        misalign=cfg.misalign,
        ris=cfg.ris,
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


def _sweep_entry(param: str, text: str) -> float:
    """A grid entry that ``apply_sweep_value`` accepted, as a float; an integer literal of an
    integer key (M) is read exactly, as in a file, even past the double range."""
    literal = text.strip().lstrip("+-").replace("_", "").isdecimal()
    integer_key = any(key == _SWEEP_KEYS[param] and kind is _integer for key, _, _, kind in _KEYS)
    return _integer(text) if literal and integer_key else float(text)


def apply_sweep_value(cfg: ScenarioConfig, param: str, value) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one swept parameter replaced: the value, text or a number
    spelled with ``str``, is typed, converted from dB and checked like its key's line in a file."""
    if param not in _SWEEP_KEYS:
        raise DomainError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
    return _build({_SWEEP_KEYS[param]: (str(value), None)}, cfg)
