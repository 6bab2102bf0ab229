"""The traced run: spans around calls into each module's public
functions, micro-benchmarks of single layers, and the per-layer metrics
built from them.

Wrappers are installed on the package's module attributes from here, for
the duration of the traced run only; the package itself is not changed.
The run covers every layer whatever the workload, so each workload's
traced run reports the same per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import thzris
from thzris import build_model, default_scenario
from thzris.capacity import _snr_coefficient

from .common import (
    OUT_DIR,
    Outcomes,
    Stopwatch,
    check_mc,
    load_reference,
    median,
    peak_rss_mb,
    run_cli,
    run_python,
)
from .scenarios import GRID, KNOWN_DEFECTS, MC_ELEMENTS, mc_scenario, metric_id, scenario_config
from .workloads import SWEEP_ARGS, Metrics, capacity_call, check_sweep, mc_call, mc_trials, same_stdout

MICRO_REPEATS = 7
GAMMA_POINTS = 2000
GAMMA_ELEMENTS = (1, 100, 1024, 10_000)
CDF_POINTS = 16
BUILD_MODEL_CALLS = 500
IMPORT_RUNS = 5


class Tracer:
    """In-memory spans (name, start, end, parent, root) of one thread.

    ``span`` wrappers record one span per call.  ``leaf`` wrappers are for
    functions called hundreds of thousands of times: they add the call's
    count and duration to their parent span instead, which keeps memory
    bounded and still lets self time be computed exactly.  The root is the
    benchmark operation (one scenario, one MC call) the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._root = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._root])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        index = self._open(name)
        self._root = index
        self.spans[index][4] = index
        try:
            yield index
        finally:
            self._close(index)
            self._root = -1

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def leaf(self, name: str, fn):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                entry = leaves[(stack[-1] if stack else -1, name)]
                entry[0] += 1
                entry[1] += clock() - t0

        return wrapper

    def summary(self):
        """Per root and span name: calls and self seconds.

        Self time is a span's duration minus its child spans and leaf calls.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (parent, _), (_, total) in self.leaves.items():
            if parent >= 0:
                child_time[parent] += total
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name, start, end, _, root) in enumerate(self.spans):
            calls[root, name] += 1
            self_s[root, name] += end - start - child_time[index]
        for (parent, name), (count, total) in self.leaves.items():
            root = self.spans[parent][4] if parent >= 0 else -1
            calls[root, name] += count
            self_s[root, name] += total
        return calls, self_s

    def write(self, path: Path) -> None:
        """Write spans and leaf totals, once, as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "root": root}) + "\n")
            for (parent, name), (count, total) in self.leaves.items():
                out.write(json.dumps({"leaf": name, "parent": parent, "calls": count,
                                      "total_s": total}) + "\n")


# (module, attribute, span name, leaf?) for every wrapped call site.
_WRAPPED = (
    (thzris.config, "build_model", "config.build_model", False),
    (thzris.capacity, "ergodic_capacity", "capacity.ergodic_capacity", False),
    (thzris.capacity, "capacity_from_snr_cdf", "capacity.capacity_from_snr_cdf", False),
    (thzris.capacity, "integrate_semi_infinite", "numerics.integrate_semi_infinite", False),
    # Inner (CDF) integrals are called from capacity, the outer one from
    # integrate_semi_infinite inside numerics.
    (thzris.capacity, "integrate_finite", "numerics.integrate_finite", False),
    (thzris.numerics, "integrate_finite", "numerics.integrate_finite", False),
    (thzris.capacity, "reg_lower_gamma", "numerics.reg_lower_gamma", True),
    (thzris.montecarlo, "estimate_ergodic_rate", "montecarlo.estimate_ergodic_rate", False),
)


@contextmanager
def installed(tracer: Tracer):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _WRAPPED]
    try:
        for (module, attr, name, leaf), (_, _, fn) in zip(_WRAPPED, originals):
            setattr(module, attr, tracer.leaf(name, fn) if leaf else tracer.span(name, fn))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _best_per_item(fn, items, repeats: int = MICRO_REPEATS) -> float:
    """Median over ``repeats`` of the mean time per item of ``fn(item)``."""
    per_item = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        per_item.append((time.perf_counter() - t0) / len(items))
    return median(per_item)


def micro_benchmarks(metrics: Metrics, seed: int) -> None:
    base = default_scenario()
    gamma = thzris.numerics.reg_lower_gamma
    for m in GAMMA_ELEMENTS:
        k = build_model(scenario_config(mc_scenario(m))).fit.shape
        rng = np.random.default_rng([seed, m])
        xs = (k * np.exp(rng.uniform(-3.0, 3.0, GAMMA_POINTS))).tolist()
        ns = 1e9 * _best_per_item(lambda x: gamma(k, x), xs)
        metrics.add(f"numerics.reg_lower_gamma.ns_per_call.M{m}", ns, "ns", MICRO_REPEATS)

    model = build_model(base)
    mean_snr = _snr_coefficient(model) * model.misalign.phi**2 * model.fit.shape * model.fit.scale
    grid = (mean_snr * np.logspace(-2.0, 1.0, CDF_POINTS)).tolist()
    us = 1e6 * _best_per_item(lambda s: thzris.capacity.snr_cdf(model, s, base.quad), grid)
    metrics.add("capacity.snr_cdf.us_per_point", us, "us", MICRO_REPEATS)

    us = 1e6 * _best_per_item(build_model, [base] * BUILD_MODEL_CALLS)
    metrics.add("config.build_model_us", us, "us", MICRO_REPEATS)

    import_s = []
    for _ in range(IMPORT_RUNS):
        with Stopwatch() as watch:
            proc = run_python(["-c", "import thzris"])
        if proc.returncode != 0:
            raise RuntimeError(f"import thzris failed: {proc.stderr!r}")
        import_s.append(watch.seconds)
    metrics.add("cli.import_s", median(import_s), "s", IMPORT_RUNS)


def traced_grid(tracer: Tracer, metrics: Metrics, outcomes: Outcomes, ref: dict) -> None:
    """Each grid scenario untraced, then traced, back to back.

    The untraced call gives the scenario's time and the pair gives the
    tracing overhead, both measured close together so that changes in
    machine speed mostly cancel.
    """
    roots, untraced = {}, {}
    for name in GRID:
        cfg = scenario_config(name)
        with Stopwatch() as watch:
            capacity_call(name, cfg, ref, outcomes)
        untraced[name] = watch.seconds
        with installed(tracer), tracer.root(f"grid:{name}") as roots[name]:
            capacity_call(name, cfg, ref, outcomes)

    calls, self_s = tracer.summary()
    traced_total = 0.0
    for name in GRID:
        root, sid = roots[name], metric_id(name)
        start, end = tracer.spans[root][1:3]
        traced_total += end - start
        metrics.add(f"capacity.ergodic_capacity.s.{sid}", untraced[name], "s")
        metrics.add(f"numerics.reg_lower_gamma.calls.{sid}", calls[root, "numerics.reg_lower_gamma"], "count")
        metrics.add(f"numerics.integrate_finite.calls.{sid}", calls[root, "numerics.integrate_finite"], "count")
        metrics.add(f"numerics.integrate_finite.self_s.{sid}", self_s[root, "numerics.integrate_finite"], "s")
    metrics.add("trace.capacity_grid_s", traced_total, "s")
    metrics.add("trace.overhead_s", traced_total - sum(untraced.values()), "s")


def traced_mc(tracer: Tracer, metrics: Metrics, outcomes: Outcomes, ref: dict, seed: int) -> None:
    """Draw rates at 1 and 2 workers per M; peak memory after M=1024."""
    for m in MC_ELEMENTS:
        model = build_model(scenario_config(mc_scenario(m)))
        rate = {}
        for workers in (1, 2):
            with tracer.root(f"mc:w{workers}.M={m}"):
                wall, est = mc_call(model, m, seed, workers)
            outcomes.record(f"w{workers}.M={m}", check_mc(ref, mc_scenario(m), est.mean, est.std_error))
            rate[workers] = mc_trials(m) * m / wall
            metrics.add(f"montecarlo.draws_per_s.w{workers}.M{m}", rate[workers], "1/s")
        metrics.add(f"montecarlo.scaling_eff.M{m}", rate[2] / (2.0 * rate[1]), "ratio")
        if m == 1024:
            metrics.add("montecarlo.rss_peak_mb.M1024", peak_rss_mb(), "MB")


def module_self_times(tracer: Tracer, metrics: Metrics) -> None:
    _, self_s = tracer.summary()
    per_module = defaultdict(float)
    for (_, name), seconds in self_s.items():
        module = name.split(".")[0]
        if module in ("numerics", "capacity", "config", "montecarlo"):
            per_module[module] += seconds
    for module in ("numerics", "capacity", "config", "montecarlo"):
        metrics.add(f"{module}.self_s", per_module[module], "s")


def cli_layer(metrics: Metrics, outcomes: Outcomes, ref: dict) -> None:
    walls = {}
    procs = []
    for workers in (1, 2):
        with Stopwatch() as watch:
            procs.append(run_cli([*SWEEP_ARGS, "--workers", str(workers)]))
        walls[workers] = watch.seconds
        outcomes.record(f"sweep.w{workers}", check_sweep(ref, procs[-1]))
    outcomes.record("sweep.bytes", same_stdout(*procs, "sweep --workers 1 and 2"))
    metrics.add("cli.sweep.w2_over_w1", walls[2] / walls[1], "ratio")


def traced_run(seed: int, spans_path: Path) -> tuple[Metrics, Outcomes]:
    ref = load_reference()
    metrics = Metrics()
    outcomes = Outcomes(KNOWN_DEFECTS)
    micro_benchmarks(metrics, seed)
    tracer = Tracer()
    traced_grid(tracer, metrics, outcomes, ref)
    with installed(tracer):
        traced_mc(tracer, metrics, outcomes, ref, seed)
    module_self_times(tracer, metrics)
    cli_layer(metrics, outcomes, ref)
    tracer.write(spans_path)
    return metrics, outcomes


def default_spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
