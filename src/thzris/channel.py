"""Deterministic THz link gains and the beam-misalignment distribution.

Gains are amplitude-domain quantities (they enter the SNR squared); the
misalignment value is the random fraction of beam power captured by the
receiver, supported on (0, phi].
"""

from __future__ import annotations

import bisect
import csv
import math
import os
import warnings

from .errors import DomainError, _Record, _require_finite

SPEED_OF_LIGHT = 299_792_458.0  # m/s

THZ_BAND_HZ = (0.1e12, 10e12)


class LinkGeometry(_Record):
    """Antenna gains (linear), carrier frequency and the two hop distances."""

    def __init__(self, g_a: float, g_b: float, f_hz: float, d_a_m: float, d_b_m: float):
        fields = {"g_a": g_a, "g_b": g_b, "f_hz": f_hz, "d_a_m": d_a_m, "d_b_m": d_b_m}
        for name, value in fields.items():
            _require_finite(name, value)
        lo, hi = THZ_BAND_HZ
        if not (lo <= f_hz <= hi):
            warnings.warn(
                f"carrier frequency {f_hz:.4g} Hz is outside the "
                f"{lo:.1e}-{hi:.1e} Hz band this model targets",
                stacklevel=2,
            )
        super().__init__(**fields)


class AbsorptionSpec(_Record):
    """Molecular absorption coefficient: a scalar or a frequency lookup table.

    The table holds (frequency_hz, kappa_per_m) pairs with strictly
    increasing frequencies; lookups interpolate linearly and refuse to
    extrapolate.  ``source`` is the absolute path of the table's file; a
    dump names the table by it.
    """

    def __init__(
        self,
        kappa: float | None = None,
        table: tuple[tuple[float, float], ...] | None = None,
        source: str | None = None,
    ):
        if (kappa is None) == (table is None):
            raise DomainError("exactly one of kappa or table must be given")
        if kappa is not None:
            _require_finite("kappa", kappa, allow_zero=True)
        elif len(table) < 2:
            raise DomainError("absorption table needs at least two rows")
        else:
            prev = -math.inf
            for f_hz, row_kappa in table:
                if not (math.isfinite(f_hz) and f_hz > prev):
                    raise DomainError("table frequencies must be finite and strictly increasing")
                _require_finite("table kappa", row_kappa, allow_zero=True)
                prev = f_hz
        super().__init__(kappa=kappa, table=table, source=source)

    def kappa_at(self, f_hz: float) -> float:
        """Absorption coefficient at ``f_hz`` [1/m]."""
        if self.kappa is not None:
            return self.kappa
        lo, hi = self.table[0][0], self.table[-1][0]
        if not (lo <= f_hz <= hi):
            raise DomainError(
                f"frequency {f_hz!r} Hz outside table range "
                f"[{lo!r}, {hi!r}]; extrapolation is not supported"
            )
        # The first row with frequency >= f_hz closes the bracket; f_hz = lo uses the first pair.
        i = max(1, bisect.bisect_left(self.table, f_hz, key=lambda row: row[0]))
        f0, k0 = self.table[i - 1]
        f1, k1 = self.table[i]
        w = (f_hz - f0) / (f1 - f0)
        return k0 + w * (k1 - k0)


def load_absorption_table(path) -> AbsorptionSpec:
    """Read a two-column UTF-8 CSV ``frequency_hz,kappa_per_m`` (header required; a leading
    byte-order mark is skipped)."""
    path = os.path.abspath(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"absorption table {path!s} is empty") from None
        if [col.strip() for col in header] != ["frequency_hz", "kappa_per_m"]:
            raise DomainError(
                f"absorption table {path!s} must start with header "
                f"'frequency_hz,kappa_per_m', got {header!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DomainError(f"absorption table {path!s} line {lineno}: expected 2 columns")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise DomainError(f"absorption table {path!s} line {lineno}: {exc}") from None
    return AbsorptionSpec(table=tuple(rows), source=path)


class MisalignmentParams(_Record):
    """Pointing-error law: peak captured fraction ``phi`` and shape ``zeta``."""

    def __init__(self, phi: float, zeta: float):
        if not (math.isfinite(phi) and 0.0 < phi <= 1.0):
            raise DomainError(f"phi must lie in (0, 1], got {phi!r}")
        super().__init__(phi=phi, zeta=_require_finite("zeta", zeta))


def misalignment_from_physical(
    r_m: float, u_m: float, v: float, sigma2: float
) -> MisalignmentParams:
    """Derive (phi, zeta) from receiver radius, beam footprint, beam width
    and pointing-jitter variance:

        phi  = erf(sqrt(pi/2) * r/u)^2
        zeta = v^2 / (4 sigma^2)

    Each input must be finite and > 0.  Any r/u from about 4.72 gives
    phi = 1, also where sqrt(pi/2) * r/u overflows to inf.
    """
    for name, value in (("r_m", r_m), ("u_m", u_m), ("v", v), ("sigma2", sigma2)):
        _require_finite(name, value)
    s = math.sqrt(math.pi / 2.0) * r_m / u_m
    return MisalignmentParams(phi=math.erf(s) ** 2, zeta=v * v / (4.0 * sigma2))


def misalignment_pdf(p: MisalignmentParams, x: float) -> float:
    """Density zeta * phi^-zeta * x^(zeta-1) on (0, phi]; zero outside.

    Evaluated as (zeta/phi) * (x/phi)^(zeta-1): x/phi <= 1, so no power
    overflows at any zeta.  At x = 0 this gives 0 for zeta > 1 and 1/phi
    for zeta = 1; for zeta < 1 the singularity is integrable but the
    pointwise value is undefined, so that call is rejected.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0 or x > p.phi:
        return 0.0
    if x == 0.0 and p.zeta < 1.0:
        raise DomainError("pdf is unbounded at x=0 for zeta < 1")
    return p.zeta / p.phi * (x / p.phi) ** (p.zeta - 1.0)


def _propagation_gain(geom: LinkGeometry) -> float:
    """Free-space amplitude gain of the cascaded two-hop path:

        c^2 sqrt(g_a g_b) / ((4 pi f)^2 d_a d_b)
    """
    numerator = SPEED_OF_LIGHT**2 * math.sqrt(geom.g_a * geom.g_b)
    denominator = (4.0 * math.pi * geom.f_hz) ** 2 * geom.d_a_m * geom.d_b_m
    return numerator / denominator


def _absorption_gain(spec: AbsorptionSpec, f_hz: float, d_a_m: float, d_b_m: float) -> float:
    """Molecular absorption amplitude gain exp(-kappa(f) (d_a + d_b) / 2)."""
    return math.exp(-spec.kappa_at(f_hz) * (d_a_m + d_b_m) / 2.0)


def _path_gain(geom: LinkGeometry, spec: AbsorptionSpec) -> float:
    """Composite deterministic amplitude gain: propagation times absorption."""
    return _propagation_gain(geom) * _absorption_gain(spec, geom.f_hz, geom.d_a_m, geom.d_b_m)
