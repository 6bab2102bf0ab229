"""Run the workloads over several seeds and print every metric.

    python3 perfbench/report.py                       # seeds 1-3
    python3 perfbench/report.py --seeds 1,2,3,4,5 --json perfbench/out/report.json

Each (workload, seed) pair is one fresh `perfbench/run.py --trace 0`
process that measures for BENCHMARK.json's run_seconds, and the traced run
(`--trace 1`, the same for every workload) is made once, with the first
seed.  For every metric the report
prints its unit, the number of runs, the samples per run, and the median
with quartiles over runs; then fail_frac per workload with the failures
by scenario, the call latencies, the tracing overhead, and the machine
facts.  Exits 1 when
any run reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import ROOT, quartiles  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402

RUN = str(Path(__file__).resolve().parent / "run.py")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("perfbench-detail "))
    return detail, json.loads(lines[-1])


def _row(name: str, unit: str, values: list[float], samples: list[int]) -> str:
    q1, q2, q3 = quartiles(values)
    per_run = min(samples) if min(samples) == max(samples) else f"{min(samples)}-{max(samples)}"
    return f"  {name:48s} {unit:8s} {len(values):4d} {str(per_run):>7s}  {q2:14.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(runs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Per metric: unit, values and per-run sample counts; and the lines to print."""
    table = defaultdict(lambda: {"unit": None, "values": [], "samples": []})
    for detail, result in runs:
        for name, metric in result["metrics"].items():
            entry = table[name]
            entry["unit"] = metric["unit"]
            entry["values"].append(metric["value"])
            entry["samples"].append(detail["samples"][name])
    lines = [_row(name, e["unit"], e["values"], e["samples"]) for name, e in table.items()]
    return dict(table), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--json", metavar="PATH", help="also write every run's result here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]

    header = f"  {'metric':48s} {'unit':8s} {'runs':>4s} {'samples':>7s}  {'median':>14s} [q1, q3]"
    report = {"end_to_end": {}, "per_layer": {}, "machine": None}
    all_correct = True
    for workload in WORKLOAD_NAMES:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        report["machine"] = runs[0][0]["machine"]
        table, lines = summarize(runs)
        report["end_to_end"][workload] = {"runs": [r for _, r in runs], "summary": table}
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        correct = all(r["correct"] for _, r in runs)
        all_correct &= correct
        print(f"{workload}: end-to-end, tracing off, seeds {seeds}")
        print(header)
        print("\n".join(lines))
        print(f"  fail_frac {failed}/{attempted} = {failed / attempted:.4f}  correct={correct}")
        failures = sorted({(f[0], f[1]) for d, _ in runs for f in d["failures"]})
        for scenario, kind in failures:
            print(f"    failed: {scenario} ({kind})")
        print("  call latency, raw seconds (reported, not gated):")
        for name in runs[0][0]["calls"]:
            pooled = [q[1] for d, _ in runs for q in [d["calls"][name]["q1_median_q3"]]]
            n = sum(d["calls"][name]["n"] for d, _ in runs)
            q1, q2, q3 = quartiles(pooled)
            print(f"    {name:46s} {n:5d} calls  run medians {q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print()

    runs = [run_once(WORKLOAD_NAMES[0], seeds[0], 1)]
    table, lines = summarize(runs)
    report["per_layer"] = {"runs": [r for _, r in runs], "summary": table}
    all_correct &= runs[0][1]["correct"]
    print(f"traced run: per-layer, seed {seeds[0]}")
    print(header)
    print("\n".join(lines))
    traced = table["trace.capacity_grid_s"]["values"][0]
    overhead = table["trace.overhead_s"]["values"][0]
    print(f"  tracing overhead: {overhead:+.4g} s on a {traced:.4g} s traced grid pass "
          f"({overhead / (traced - overhead):+.1%}), each scenario timed untraced then traced")
    print()

    machine = report["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
