"""The timed workloads.  Each is a closed loop with one caller: the next
call starts when the previous one has returned.

Every workload reports the same end-to-end metrics, read on its own
operations:

    setup_s      fresh `thzris capacity --dump-config` process (median)
    batch_s      time to all answers of one pass over the workload (median)
    rss_peak_mb  peak resident memory of the run's processes
    ok_frac      1 - failed / attempted operations

Times are scaled to the nominal machine speed: setup_s by a reference
process timed right after each setup process; batch_s by a SpeedProbe,
sampled while the timed work runs (in this process, or in the CLI process
for cli_sweep) and in bursts between 2-worker calls.
The raw times, and the latency of each call, go to the detail line.
NOTES.md maps each (workload, metric) pair to what it measures.
"""

from __future__ import annotations

import csv
import io
import time
from contextlib import nullcontext

import thzris
from thzris import McConfig, build_model, default_scenario, dump_config, parse_config_text
from thzris.errors import ConvergenceError, DomainError

from .common import (
    Outcomes,
    SpeedProbe,
    Stopwatch,
    check_capacity,
    check_mc,
    load_reference,
    median,
    peak_rss_mb,
    run_cli,
    run_passes,
    run_probed_cli,
    run_python,
)
from .scenarios import (
    GRID,
    KNOWN_DEFECTS,
    MC_ELEMENTS,
    SWEEP_PARAM,
    SWEEP_VALUES,
    mc_scenario,
    scenario_config,
)

SETUP_RUNS = 14
# A fixed process that starts the interpreter and imports numpy, as
# `import thzris` does, but runs no thzris code; and its time on the
# 2-vCPU x86_64 host the benchmark was written on, at its usual speed.
SETUP_REFERENCE = ["-c", "import numpy"]
SETUP_REFERENCE_NOMINAL_S = 0.17

# Element draws (trials x M) per Monte-Carlo call.  2^25 gives M=1024 two
# full 16384-trial batches, so two workers both get one.  (Half of it made
# the 1-worker pass time spread 0.13 run to run instead of 0.04.)
MC_DRAWS = 2**25
MC_BATCH = 16_384

VALIDATE_TRIALS = 200_000
SWEEP_ARGS = ["sweep", "--param", SWEEP_PARAM, "--values", ",".join(str(v) for v in SWEEP_VALUES)]


class Metrics:
    """Metric name -> (value, unit, sample count), in insertion order; the
    raw value of each scaled time; and call latencies, which are reported
    but not gated."""

    def __init__(self):
        self.values: dict[str, tuple[float, str, int]] = {}
        self.raw: dict[str, float] = {}
        self.scales: dict[str, float] = {}
        self.calls: dict[str, list[float]] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.values[name] = (float(value), unit, int(samples))

    def add_time(self, name: str, seconds: list[float], scaled: list[float]) -> None:
        """Median of ``scaled``, the times ``seconds`` at nominal machine speed."""
        self.raw[name] = median(seconds)
        self.scales[name] = median(scaled) / self.raw[name]
        self.add(name, median(scaled), "s", len(seconds))


def measure_setup() -> tuple[list[float], list[float]]:
    """Times of fresh `capacity --dump-config` processes, raw and scaled.

    Process start and import run up to 40 % slower for seconds at a time on
    a shared host, and a loop in this process does not follow that closely,
    so each setup process is followed by the SETUP_REFERENCE process and
    scaled by its time: setup / reference * SETUP_REFERENCE_NOMINAL_S.

    Also checks the dump: it must equal the in-process dump of the default
    scenario and re-parse to the same configuration.  A wrong dump means
    the program is broken, so it raises instead of counting a failure.
    """
    expected = dump_config(default_scenario())
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        with Stopwatch() as watch:
            proc = run_cli(["capacity", "--dump-config"])
        out = proc.stdout.decode()
        if proc.returncode != 0 or out != expected or parse_config_text(out) != default_scenario():
            raise RuntimeError(f"capacity --dump-config is wrong (exit {proc.returncode}): {proc.stderr!r}")
        with Stopwatch() as reference:
            proc = run_python(SETUP_REFERENCE)
        if proc.returncode != 0:
            raise RuntimeError(f"reference process failed: {proc.stderr!r}")
        times.append(watch.seconds)
        scaled.append(watch.seconds / reference.seconds * SETUP_REFERENCE_NOMINAL_S)
    return times, scaled


def _run(kind: str | None, seconds: float, one_pass, outcomes: Outcomes, batch_s: list | None = None,
         rss_mb: list[float] | None = None, min_passes: int = 1) -> Metrics:
    """Set up, repeat ``one_pass`` for ``seconds``, and collect the metrics.

    ``kind`` is the SpeedProbe loop the pass samples with, or None when the
    pass scales its own times (``probe`` is then None).  ``batch_s`` and
    ``rss_mb`` hold the pass times and peak memory when a pass measures
    them over only part of its work; by default the whole pass is timed
    and the peak is taken at the end of the run.  With ``kind`` None,
    ``batch_s`` holds (raw, scaled) pairs.
    """
    metrics = Metrics()
    metrics.add_time("setup_s", *measure_setup())
    with SpeedProbe() if kind else nullcontext() as probe:
        t1 = time.perf_counter()
        pass_s = run_passes(seconds, lambda: one_pass(probe, metrics.calls), probe, min_passes)
        t2 = time.perf_counter()
    if probe is None:
        metrics.add_time("batch_s", *zip(*batch_s))
    else:
        scale = probe.scale(kind, t1, t2)
        batch_s = batch_s or pass_s
        metrics.add_time("batch_s", batch_s, [t * scale for t in batch_s])
    metrics.add("rss_peak_mb", max(rss_mb) if rss_mb else peak_rss_mb(), "MB")
    metrics.add("ok_frac", 1.0 - len(outcomes.failures) / outcomes.attempted, "fraction", outcomes.attempted)
    return metrics


def capacity_call(name: str, cfg, ref: dict, outcomes: Outcomes, probe: SpeedProbe | None = None) -> float | None:
    """One timed `ergodic_capacity(build_model(cfg), cfg.quad)`, checked.

    Returns the time, or None when the call failed.  Both functions are
    looked up on their modules at call time, so the traced run's wrappers
    see the call.
    """
    try:
        with Stopwatch(probe) as watch:
            result = thzris.capacity.ergodic_capacity(thzris.config.build_model(cfg), cfg.quad)
    except (ConvergenceError, DomainError) as exc:
        outcomes.record(name, ("raise", f"{type(exc).__name__}: {exc}"))
        return None
    ok = outcomes.record(name, check_capacity(ref, name, cfg.quad, result.capacity_bits, result.quad_err))
    return watch.seconds if ok else None


def analytic_grid(seed: int, seconds: float) -> tuple[Metrics, Outcomes]:
    """In-process capacities over the fixed scenario grid, one thread.

    batch_s is one pass over the grid.  The seed does not enter: the grid
    is fixed.
    """
    del seed
    ref = load_reference()
    configs = [(name, scenario_config(name)) for name in GRID]
    outcomes = Outcomes(KNOWN_DEFECTS)

    def one_pass(probe, calls):
        with probe.sampling("python"):
            for name, cfg in configs:
                wall = capacity_call(name, cfg, ref, outcomes, probe)
                if wall is not None:
                    calls.setdefault("ergodic_capacity_s", []).append(wall)

    return _run("python", seconds, one_pass, outcomes), outcomes


def mc_trials(num_elements: int) -> int:
    return MC_DRAWS // num_elements


def mc_call(model, num_elements: int, seed: int, workers: int, probe: SpeedProbe | None = None):
    """One timed `estimate_ergodic_rate`; returns (seconds, estimate)."""
    cfg = McConfig(trials=mc_trials(num_elements), seed=seed, batch=MC_BATCH)
    with Stopwatch(probe) as watch:
        estimate = thzris.montecarlo.estimate_ergodic_rate(model, cfg, workers=workers)
    return watch.seconds, estimate


def mc_sampler(seed: int, seconds: float) -> tuple[Metrics, Outcomes]:
    """Monte-Carlo estimates at each M, first with 1 worker, then with 2.

    batch_s is the 1-worker pass over the M set (about 3 * 2^25 = 1.007e8
    element draws), so the 1-worker draw rate is 1.007e8 / batch_s, and
    rss_peak_mb the peak memory by the end of the first 1-worker pass.
    The 2-worker calls are checked, and must give the same estimates bit
    for bit, but are measured only in the traced run: their time and peak
    memory depend on how the two threads overlap.
    """
    ref = load_reference()
    models = {m: build_model(scenario_config(mc_scenario(m))) for m in MC_ELEMENTS}
    outcomes = Outcomes()
    w1_pass_s: list[float] = []
    w1_rss_mb: list[float] = []

    def one_pass(probe, calls):
        w1 = {}
        w1_pass_s.append(0.0)
        for m in MC_ELEMENTS:
            with probe.sampling("numpy"):
                wall, w1[m] = mc_call(models[m], m, seed, 1, probe)
            w1_pass_s[-1] += wall
            calls.setdefault(f"w1.M{m}_s", []).append(wall)
            outcomes.record(f"w1.M={m}", check_mc(ref, mc_scenario(m), w1[m].mean, w1[m].std_error))
        if not w1_rss_mb:
            w1_rss_mb.append(peak_rss_mb())
        for m in MC_ELEMENTS:
            probe.burst("numpy")
            wall, est = mc_call(models[m], m, seed, 2, probe)
            calls.setdefault(f"w2.M{m}_s", []).append(wall)
            failure = check_mc(ref, mc_scenario(m), est.mean, est.std_error)
            if failure is None and est != w1[m]:
                failure = ("reproducibility", f"workers=2 gave {est!r}, workers=1 gave {w1[m]!r}")
            outcomes.record(f"w2.M={m}", failure)

    return _run("numpy", seconds, one_pass, outcomes, w1_pass_s, w1_rss_mb), outcomes


def _csv_rows(stdout: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout.decode())))


def check_sweep(ref: dict, proc) -> tuple[str, str] | None:
    """Failure of one `thzris sweep` process, or None."""
    if proc.returncode != 0:
        return "exit", f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
    quad = default_scenario().quad
    rows = _csv_rows(proc.stdout)
    if [float(r["value"]) for r in rows] != [float(v) for v in SWEEP_VALUES]:
        return "csv", f"unexpected sweep rows {rows!r}"
    for row in rows:
        name = mc_scenario(int(float(row["value"])))
        if row["error"]:
            return "raise", f"{name}: {row['error']}"
        failure = check_capacity(ref, name, quad, float(row["capacity_bits"]), float(row["quad_err"]))
        if failure is not None:
            return failure[0], f"{name}: {failure[1]}"
    return None


def check_validate(ref: dict, proc) -> tuple[str, str] | None:
    """Failure of one `thzris validate` process on the default scenario, or None."""
    if proc.returncode != 0:
        return "exit", f"exit {proc.returncode}: {proc.stdout.decode()[-300:]} {proc.stderr.decode()[-300:]}"
    (row,) = _csv_rows(proc.stdout)
    quad = default_scenario().quad
    failure = check_capacity(ref, "default", quad, float(row["capacity_bits"]), float(row["quad_err"]))
    return failure or check_mc(ref, "default", float(row["mc_mean"]), float(row["mc_stderr"]))


def same_stdout(a, b, what: str) -> tuple[str, str] | None:
    return None if a.stdout == b.stdout else ("reproducibility", f"{what}: stdout differs")


def cli_sweep(seed: int, seconds: float) -> tuple[Metrics, Outcomes]:
    """Fresh `python -m thzris` processes: sweep at 1 and 2 workers, then
    validate with the run's seed.

    batch_s is the 1-worker sweep process, scaled by the SpeedProbe
    inside it (probed_cli.py).  The 2-worker sweep and the validate
    process run two threads at once, next to which a probe times the
    threads rather than the machine (a loop in the 2-worker sweep took
    5-7 ms of wall time for 3 ms of CPU, waiting for the GIL), and unscaled
    they varied 0.08-0.29 pass to pass.  So they are checked (both sweeps
    of a pass must print the same bytes, and every validate the same bytes
    for one seed) and their raw times go to the detail line, but they are
    not in batch_s.
    """
    ref = load_reference()
    outcomes = Outcomes()
    validate_args = ["validate", "--seed", str(seed), "--trials", str(VALIDATE_TRIALS), "--workers", "2"]
    first_validate = []

    def one_pass(probe, calls):
        w1, w1_s, w1_scaled = run_probed_cli([*SWEEP_ARGS, "--workers", "1"])
        batch_s.append((w1_s, w1_scaled))
        with Stopwatch() as watch:
            w2 = run_cli([*SWEEP_ARGS, "--workers", "2"])
        calls.setdefault("sweep.w1_s", []).append(w1_s)
        calls.setdefault("sweep.w2_s", []).append(watch.seconds)
        for workers, proc in ((1, w1), (2, w2)):
            outcomes.record(f"sweep.w{workers}", check_sweep(ref, proc))
        outcomes.record("sweep.bytes", same_stdout(w1, w2, "sweep --workers 1 and 2"))
        with Stopwatch() as watch:
            proc = run_cli(validate_args)
        calls.setdefault("validate_s", []).append(watch.seconds)
        outcomes.record("validate", check_validate(ref, proc))
        if first_validate:
            outcomes.record("validate.bytes", same_stdout(first_validate[0], proc, "validate with one seed"))
        else:
            first_validate.append(proc)

    batch_s: list[tuple[float, float]] = []
    return _run(None, seconds, one_pass, outcomes, batch_s, min_passes=2), outcomes


WORKLOADS = {
    "analytic_grid": analytic_grid,
    "mc_sampler": mc_sampler,
    "cli_sweep": cli_sweep,
}
