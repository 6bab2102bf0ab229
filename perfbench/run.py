"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload analytic_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Before the result it prints one ``perfbench-detail`` JSON line (machine
facts, sample counts, failures); the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end metrics of the workload,
measured with tracing off.  With ``--trace 1`` the run is the traced run
instead: a fixed amount of work, whatever ``--seconds`` says, that reports
the per-layer metrics and writes its spans under ``perfbench/out/``.  Exits non-zero without a result when the program
is missing or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import ProgramMissing, machine_facts, quartiles, require_program  # noqa: E402

WORKLOAD_NAMES = ("analytic_grid", "mc_sampler", "cli_sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    try:
        require_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import tracing, workloads

    if args.trace:
        metrics, outcomes = tracing.traced_run(
            args.seed, tracing.default_spans_path(args.workload, args.seed))
    else:
        metrics, outcomes = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "samples": {name: n for name, (_, _, n) in metrics.values.items()},
        "raw": metrics.raw,
        "speed_scale": metrics.scales,
        "calls": {name: {"n": len(v), "q1_median_q3": quartiles(v)} for name, v in metrics.calls.items()},
        "failures": [list(f) for f in outcomes.failures],
        "unexpected_failures": [list(f) for f in outcomes.unexpected],
    }
    print("perfbench-detail " + json.dumps(detail))
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
