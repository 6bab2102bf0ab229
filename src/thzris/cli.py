"""Command-line harness: analytic capacity, Monte-Carlo estimation,
analytic-versus-simulation validation and parameter sweeps, all emitting a
single stable CSV schema.

Commands return their rows and exit code; ``main`` writes the CSV once, to
``--out`` or stdout, so a command that fails leaves ``--out`` untouched.

Exit codes: 0 success, 1 usage, configuration or write error (or a warning
raised as an error, as under ``-W error``), 2 numeric failure, 3 validation
failure, 4 sweep finished with failed points.  A warning is one stderr line.

Each command imports the layers it runs: ``--dump-config``, ``--help`` and
a config error load only the config layer; ``capacity`` and an analytic
``sweep`` add the solver but never numpy; ``mc``, ``validate`` and ``sweep
--with-mc`` add the Monte-Carlo estimator, and without numpy end with one
stderr line and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import re
import sys
import warnings

from .config import (
    SWEEP_PARAMS,
    ScenarioConfig,
    _build,
    _sweep_entry,
    apply_sweep_value,
    build_model,
    default_scenario,
    dump_config,
    parse_config,
)
from .errors import ConfigError, ConvergenceError, DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3
EXIT_PARTIAL = 4

CSV_HEADER = [
    "param", "value", "capacity_bits", "quad_err",
    "mc_mean", "mc_stderr", "rel_gap", "error",
]


class _UsageExit(Exception):
    """A command-line usage error; ``main`` prints it and exits with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1.  ``-1e3``, ``-.5`` or ``-inf`` is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageExit(f"{self.prog}: error: {message}")


def _checked(convert, ok, need: str):
    """An argparse type: ``convert(text)``, a usage error unless ``ok(value)`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value

    return parse


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(rows) -> str:
    text = io.StringIO()
    writer = csv.DictWriter(text, CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows({col: _fmt(value) for col, value in row.items()} for row in rows)
    return text.getvalue()


def _rel_gap(analytic: float, mc_mean: float) -> float:
    if mc_mean != 0.0:
        return abs(analytic - mc_mean) / abs(mc_mean)
    return 0.0 if analytic == 0.0 else math.inf


def _point_row(cfg: ScenarioConfig, workers: int, analytic: bool = True, with_mc: bool = False) -> dict:
    """Analytic and/or Monte-Carlo results for one scenario; the gap when both run."""
    model = build_model(cfg)
    row = {}
    if analytic:
        from .capacity import ergodic_capacity
        result = ergodic_capacity(model, cfg.quad)
        row.update(capacity_bits=result.capacity_bits, quad_err=result.quad_err)
    if with_mc:
        try:
            from .montecarlo import estimate_ergodic_rate
        except ImportError as exc:
            raise _UsageExit(f"thzris: the Monte-Carlo estimate needs numpy: {exc}") from None
        estimate = estimate_ergodic_rate(model, cfg.mc, workers=workers)
        row.update(mc_mean=estimate.mean, mc_stderr=estimate.std_error)
        if analytic:
            row["rel_gap"] = _rel_gap(result.capacity_bits, estimate.mean)
    return row


def cmd_capacity(cfg: ScenarioConfig, args) -> tuple[list[dict], int]:
    return [_point_row(cfg, args.workers)], EXIT_OK


def cmd_mc(cfg: ScenarioConfig, args) -> tuple[list[dict], int]:
    return [_point_row(cfg, args.workers, analytic=False, with_mc=True)], EXIT_OK


def cmd_validate(cfg: ScenarioConfig, args) -> tuple[list[dict], int]:
    row = _point_row(cfg, args.workers, with_mc=True)
    gap = abs(row["capacity_bits"] - row["mc_mean"])
    passed = gap <= max(args.tol_rel * abs(row["mc_mean"]), 4.0 * row["mc_stderr"])
    if not passed:
        row["error"] = (
            f"validation failed: |analytic - mc| = {gap:.6g} exceeds "
            f"max({args.tol_rel:g} * mc, 4 * stderr)"
        )
    return [row], EXIT_OK if passed else EXIT_VALIDATION


def _sweep_values(args) -> tuple[str, ...]:
    """The grid as text: each ``--values`` entry stripped, each ``--range`` point by ``repr``."""
    if args.values is not None:
        values = tuple(v.strip() for v in args.values.split(",") if v.strip())
        if not values:
            raise _UsageExit("--values needs at least one value")
        return values
    start, stop, count = args.range
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageExit(f"--range endpoints must be finite, got {start!r} and {stop!r}")
    if not (count.is_integer() and count >= 1):
        raise _UsageExit(f"--range count must be a positive integer, got {count!r}")
    n = int(count)
    if n == 1:
        return (repr(start),)
    if args.log:
        if start <= 0.0 or stop <= 0.0:
            raise _UsageExit("--log requires positive --range endpoints")
        ratio = (stop / start) ** (1.0 / (n - 1))
        return tuple(repr(start * ratio**i) for i in range(n))
    step = (stop - start) / (n - 1)
    return tuple(repr(start + step * i) for i in range(n))


def cmd_sweep(cfg: ScenarioConfig, args) -> tuple[list[dict], int]:
    # The config parser alone checks a grid entry, as it checks that key's
    # line in a file; a rejected entry is a config error, not a failed point.
    points = []
    for entry in _sweep_values(args):
        try:
            points.append((entry, apply_sweep_value(cfg, args.param, entry)))
        except DomainError as exc:
            raise ConfigError(f"invalid value {entry} for {args.param}: {exc}") from None

    # Points run one after another: the analytic layer is pure Python and
    # GIL-bound, so --workers only parallelizes the Monte-Carlo batches.
    rows = []
    for entry, point_cfg in points:
        try:
            result = _point_row(point_cfg, args.workers, with_mc=args.with_mc)
        except (DomainError, ConvergenceError) as exc:
            result = {"error": str(exc)}
        rows.append({"param": args.param, "value": _sweep_entry(args.param, entry), **result})
    return rows, EXIT_PARTIAL if any("error" in row for row in rows) else EXIT_OK


_COMMANDS = {"capacity": cmd_capacity, "validate": cmd_validate, "sweep": cmd_sweep, "mc": cmd_mc}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario file (defaults apply if omitted)")
    common.add_argument("--seed", help="override mc.seed")
    common.add_argument("--trials", help="override mc.trials")
    common.add_argument("--workers", type=_checked(int, lambda v: v >= 1, "at least 1"), default=1,
                        help="threads for Monte-Carlo batches (default 1)")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")
    common.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    parser = _Parser(prog="thzris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("capacity", parents=[common], help="analytic ergodic capacity")
    validate = sub.add_parser("validate", parents=[common],
                              help="analytic capacity against the Monte-Carlo estimate")
    validate.add_argument("--tol-rel", type=_checked(float, lambda v: 0 <= v < math.inf, "in [0, inf)"), default=0.05,
                          help="relative tolerance for the pass rule (default 0.05)")
    sweep = sub.add_parser("sweep", parents=[common], help="evaluate over a parameter grid")
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated grid values")
    group.add_argument("--range", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                       help="START STOP COUNT grid")
    sweep.add_argument("--log", action="store_true", help="logarithmic --range spacing")
    sweep.add_argument("--with-mc", action="store_true",
                       help="also run the Monte-Carlo estimate per point")
    sub.add_parser("mc", parents=[common], help="Monte-Carlo ergodic-rate estimate")
    return parser


def _effective_config(args) -> ScenarioConfig:
    """The scenario file or the defaults, ``--seed`` and ``--trials`` read as ``mc.seed`` and ``mc.trials``."""
    cfg = parse_config(args.config) if args.config else default_scenario()
    flags = {"mc.seed": args.seed, "mc.trials": args.trials}
    return _build({key: (text, None) for key, text in flags.items() if text is not None}, cfg)


def _warning_line(message, *_):
    """``warnings.showwarning`` for the CLI: one stderr line, not the warning's source location."""
    print(f"thzris: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            args = _build_parser().parse_args(argv)
            cfg = _effective_config(args)
            if args.dump_config:
                text, code = dump_config(cfg), EXIT_OK
            else:
                rows, code = _COMMANDS[args.command](cfg, args)
                text = _render(rows)
            try:
                handle = open(args.out, "w", newline="") if args.out else sys.stdout
                if handle is None:  # file descriptor 1 was closed when the interpreter started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                try:
                    handle.write(text)
                    handle.flush()
                finally:
                    if args.out:
                        handle.close()
            except OSError as exc:
                # What stdout still buffers goes to the null device at exit.
                if not args.out and sys.stdout is not None:
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise _UsageExit(f"thzris: cannot write {args.out or '<stdout>'}: {exc.strerror}") from None
            return code
    except _UsageExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"thzris: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"thzris: numeric failure: {exc} (best estimate {exc.value!r}, "
              f"err_est {exc.err_est!r})", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"thzris: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Warning as exc:  # raised under -W error
        print(f"thzris: warning treated as an error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
