"""Command-line harness: analytic capacity, Monte-Carlo estimation,
analytic-versus-simulation validation and parameter sweeps, all emitting a
single stable CSV schema.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure,
3 validation failure, 4 sweep finished with failed points.

The Monte-Carlo estimator is imported inside the commands that run it, so
``capacity``, an analytic ``sweep`` and ``--dump-config`` never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

from .capacity import ergodic_capacity
from .config import (
    SWEEP_PARAMS,
    ScenarioConfig,
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
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):
        raise _UsageExit(f"{self.prog}: error: {message}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(out, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in CSV_HEADER])


def _rel_gap(analytic: float, mc_mean: float) -> float:
    if mc_mean != 0.0:
        return abs(analytic - mc_mean) / abs(mc_mean)
    return 0.0 if analytic == 0.0 else math.inf


def _point_row(cfg: ScenarioConfig, with_mc: bool, workers: int) -> dict:
    """Analytic (and optionally Monte-Carlo) results for one scenario."""
    model = build_model(cfg)
    result = ergodic_capacity(model, cfg.quad)
    row = {"capacity_bits": result.capacity_bits, "quad_err": result.quad_err}
    if with_mc:
        from .montecarlo import estimate_ergodic_rate

        estimate = estimate_ergodic_rate(model, cfg.mc, workers=workers)
        row["mc_mean"] = estimate.mean
        row["mc_stderr"] = estimate.std_error
        row["rel_gap"] = _rel_gap(result.capacity_bits, estimate.mean)
    return row


def cmd_capacity(cfg: ScenarioConfig, args, out) -> int:
    _write_rows(out, [_point_row(cfg, with_mc=False, workers=args.workers)])
    return EXIT_OK


def cmd_mc(cfg: ScenarioConfig, args, out) -> int:
    from .montecarlo import estimate_ergodic_rate

    model = build_model(cfg)
    estimate = estimate_ergodic_rate(model, cfg.mc, workers=args.workers)
    _write_rows(out, [{"mc_mean": estimate.mean, "mc_stderr": estimate.std_error}])
    return EXIT_OK


def cmd_validate(cfg: ScenarioConfig, args, out) -> int:
    from .montecarlo import estimate_ergodic_rate

    model = build_model(cfg)
    result = ergodic_capacity(model, cfg.quad)
    estimate = estimate_ergodic_rate(model, cfg.mc, workers=args.workers)
    gap = abs(result.capacity_bits - estimate.mean)
    passed = gap <= max(args.tol_rel * abs(estimate.mean), 4.0 * estimate.std_error)
    row = {
        "capacity_bits": result.capacity_bits,
        "quad_err": result.quad_err,
        "mc_mean": estimate.mean,
        "mc_stderr": estimate.std_error,
        "rel_gap": _rel_gap(result.capacity_bits, estimate.mean),
    }
    if not passed:
        row["error"] = (
            f"validation failed: |analytic - mc| = {gap:.6g} exceeds "
            f"max({args.tol_rel:g} * mc, 4 * stderr)"
        )
    _write_rows(out, [row])
    return EXIT_OK if passed else EXIT_VALIDATION


def _sweep_values(args) -> tuple[float, ...]:
    if args.values is not None:
        try:
            values = tuple(float(v) for v in args.values.split(",") if v.strip())
        except ValueError as exc:
            raise _UsageExit(f"bad --values list: {exc}") from None
        if not values:
            raise _UsageExit("--values needs at least one value")
        return values
    start, stop, count = args.range
    n = int(count)
    if n != count or n < 1:
        raise _UsageExit(f"--range count must be a positive integer, got {count!r}")
    if n == 1:
        return (start,)
    if args.log:
        if start <= 0.0 or stop <= 0.0:
            raise _UsageExit("--log requires positive --range endpoints")
        ratio = (stop / start) ** (1.0 / (n - 1))
        return tuple(start * ratio**i for i in range(n))
    step = (stop - start) / (n - 1)
    return tuple(start + step * i for i in range(n))


def cmd_sweep(cfg: ScenarioConfig, args, out) -> int:
    values = _sweep_values(args)

    # Grid values must satisfy the swept parameter's own invariants up
    # front; failures here are usage errors, not sweep-point failures.
    points = []
    for value in values:
        try:
            points.append(apply_sweep_value(cfg, args.param, value))
        except DomainError as exc:
            raise _UsageExit(f"invalid value {value!r} for {args.param}: {exc}") from None

    # Points run one after another: the analytic layer is pure Python and
    # GIL-bound, so --workers only parallelizes the Monte-Carlo batches.
    rows = []
    failed = False
    for value, point_cfg in zip(values, points):
        try:
            result = _point_row(point_cfg, with_mc=args.with_mc, workers=args.workers)
        except (DomainError, ConvergenceError) as exc:
            result = {"error": str(exc)}
        failed = failed or "error" in result
        rows.append({"param": args.param, "value": value, **result})
    _write_rows(out, rows)
    return EXIT_PARTIAL if failed else EXIT_OK


_COMMANDS = {
    "capacity": cmd_capacity,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "mc": cmd_mc,
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario file (defaults apply if omitted)")
    common.add_argument("--seed", type=int, help="override mc.seed")
    common.add_argument("--trials", type=int, help="override mc.trials")
    common.add_argument("--workers", type=int, default=1,
                        help="threads for Monte-Carlo batches (default 1)")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")
    common.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    parser = _Parser(prog="thzris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("capacity", parents=[common], help="analytic ergodic capacity")
    validate = sub.add_parser("validate", parents=[common],
                              help="analytic capacity against the Monte-Carlo estimate")
    validate.add_argument("--tol-rel", type=float, default=0.05,
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
    cfg = parse_config(args.config) if args.config else default_scenario()
    mc = cfg.mc
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
    if args.trials is not None:
        mc = replace(mc, trials=args.trials)
    return replace(cfg, mc=mc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = _effective_config(args)
    except (ConfigError, DomainError) as exc:
        print(f"thzris: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def run(out) -> int:
        if args.dump_config:
            out.write(dump_config(cfg))
            return EXIT_OK
        return _COMMANDS[args.command](cfg, args, out)

    try:
        if args.out:
            with open(args.out, "w", newline="") as handle:
                return run(handle)
        return run(sys.stdout)
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


if __name__ == "__main__":
    sys.exit(main())
