"""Helpers shared by the workloads: locating the program, fresh CLI
processes, summary statistics, memory, machine facts and the correctness
checks against the stored reference capacities."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "capacities.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
PROBED_CLI = Path(__file__).resolve().parent / "probed_cli.py"

# Every CLI process gets this much time before the run is declared broken.
CLI_TIMEOUT_S = 120.0

# A capacity must sit within REF_REL_TOL (relative) of its reference.
# This is the default quad.rel_tol: the package claims relative accuracy
# even for capacities far below quad.abs_tol.
REF_REL_TOL = 1e-8

# A Monte-Carlo mean must sit within max(MC_REL_TOL * ref, MC_SIGMAS * stderr).
MC_REL_TOL = 0.05
MC_SIGMAS = 4.0


class ProgramMissing(RuntimeError):
    """The checkout does not hold the thzris sources."""


def require_program() -> None:
    """Put ``src/`` first on sys.path and check that thzris imports from it."""
    if not (SRC / "thzris" / "__init__.py").is_file():
        raise ProgramMissing(f"no thzris package under {SRC}")
    sys.path.insert(0, str(SRC))
    import thzris

    if Path(thzris.__file__).resolve().parent != (SRC / "thzris").resolve():
        raise ProgramMissing(f"thzris imported from {thzris.__file__}, not from {SRC}")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` and wait for it."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=cli_env(), capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -m thzris <args>`` as a fresh process."""
    return run_python(["-m", "thzris", *args])


def run_probed_cli(args: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run ``python perfbench/probed_cli.py <args>`` as a fresh process.

    Returns the process, with the probe line taken off its stderr; its wall
    time less the probe's loop time; and that time scaled by the probe.
    """
    with Stopwatch() as watch:
        proc = run_python([str(PROBED_CLI), *args])
    lines = proc.stderr.decode().rstrip("\n").split("\n")
    if not lines[-1].startswith("perfbench-probe "):
        raise RuntimeError(f"thzris {' '.join(args)} ended without a probe line: {proc.stderr.decode()[-2000:]}")
    probe = json.loads(lines[-1].split(" ", 1)[1])
    proc.stderr = "\n".join(lines[:-1]).encode()
    seconds = watch.seconds - probe["paused"]
    return proc, seconds, seconds * probe["scale"]


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); quartiles need two samples, so one sample repeats."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class SpeedProbe:
    """Machine speed during a run, from a fixed loop that runs no thzris code.

    The host is shared, and the same loop runs up to 35 % slower for
    seconds to minutes at a time, which moves every wall time of a run.
    Inside ``sampling()`` a SIGALRM timer runs the loop every ``PERIOD_S``
    in the main thread, between the bytecodes of the in-process work being
    timed, so the samples cover that work evenly.  The two vCPUs of the
    host do not slow down together, so a child process is probed from
    inside (probed_cli.py), not from here.  Around worker threads the loop
    would compete with them, so ``burst`` samples between such calls.
    ``paused`` is the time the loop took, which the timed work subtracts;
    ``scale`` maps a time to the time the same work takes when the loop
    runs at its nominal speed.  Each call names the loop that resembles
    the work: ``python`` (float arithmetic in an interpreted loop, like the
    special functions, the quadrature and interpreter start) or ``numpy``
    (normal draws and elementwise arithmetic, like the sampler).
    """

    PERIOD_S = 0.1
    BURST = 20
    # Mean loop times on the 2-vCPU x86_64 host the benchmark was written on.
    NOMINAL_S = {"python": 0.0018, "numpy": 0.0030}

    def __init__(self):
        import numpy as np

        self.samples: dict[str, list[tuple[float, float]]] = {"python": [], "numpy": []}
        self.paused = 0.0
        self._active: str | None = None
        self._rng = np.random.Generator(np.random.Philox(key=0))
        self._loops = {"python": self._python_loop, "numpy": self._numpy_loop}

    @staticmethod
    def _python_loop() -> float:
        total, term = 0.0, 1.0
        for i in range(1, 10_000):
            term = term * 0.7 / (i % 50 + 1.0) + 1e-3
            total += term * math.sqrt(i)
        return total

    def _numpy_loop(self) -> float:
        import numpy as np

        z = self._rng.standard_normal((4, 256, 100))
        return float(np.sum(np.sqrt(0.5 * (z[0] * z[0] + z[1] * z[1]))))

    def _sample(self, kind: str) -> None:
        t0 = time.perf_counter()
        self._loops[kind]()
        took = time.perf_counter() - t0
        self.samples[kind].append((t0, took))
        self.paused += took

    def _tick(self, signum, frame) -> None:
        if self._active is not None:
            self._sample(self._active)

    def burst(self, kind: str) -> None:
        for _ in range(self.BURST):
            self._sample(kind)

    @contextmanager
    def sampling(self, kind: str):
        self._active = kind
        try:
            yield
        finally:
            self._active = None

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, kind: str, since: float, until: float) -> float:
        """Nominal over mean loop time, from the samples taken in [since, until)."""
        window = [took for start, took in self.samples[kind] if since <= start < until]
        return self.NOMINAL_S[kind] / statistics.fmean(window)


class Stopwatch:
    """Wall time of a block, less the time ``probe`` (if any) spent inside it."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.seconds = 0.0

    def _paused(self) -> float:
        return self.probe.paused if self.probe is not None else 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._p0 = self._paused()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0 - (self._paused() - self._p0)


def run_passes(seconds: float, one_pass, probe: SpeedProbe | None, min_passes: int = 1) -> list[float]:
    """Repeat ``one_pass`` while the next pass is expected to end within
    ``seconds``, and at least ``min_passes`` times.  Returns the pass
    times, less the probe time inside each pass."""
    start = time.perf_counter()
    times = []
    while True:
        with Stopwatch(probe) as watch:
            one_pass()
        times.append(watch.seconds)
        expected_end = time.perf_counter() - start + statistics.fmean(times)
        if len(times) >= min_passes and expected_end > seconds:
            return times


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy

    l3 = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache_dir.is_dir():
        for index in sorted(cache_dir.glob("index*")):
            if _read(str(index / "level")) == "3":
                l3 = _read(str(index / "size"))
    mem_total_mb = None
    meminfo = _read("/proc/meminfo")
    if meminfo:
        for line in meminfo.splitlines():
            if line.startswith("MemTotal:"):
                mem_total_mb = int(line.split()[1]) // 1024
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_cache": l3,
        "mem_total_mb": mem_total_mb,
    }


def load_reference() -> dict:
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)["scenarios"]


class Outcomes:
    """Attempted and failed operations of one run.

    A failure is (scenario, kind, detail).  ``known`` maps a scenario to the
    failure kind it is recorded to show at this commit; the run is correct
    when every failure is one of those.  A known failure that stops
    happening is a fix, not an error.  A known scenario may also fail by
    raising: an honest ConvergenceError is what the accuracy contract asks
    for where it cannot be met, so it still counts as a failed operation
    but does not make the run incorrect.
    """

    def __init__(self, known: dict[str, str] | None = None):
        self.known = known or {}
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []

    def record(self, scenario: str, failure: tuple[str, str] | None) -> bool:
        """Count one operation; ``failure`` is (kind, detail) or None."""
        self.attempted += 1
        if failure is not None:
            self.failures.append((scenario, *failure))
        return failure is None

    @property
    def unexpected(self) -> list[tuple[str, str, str]]:
        return [
            (scenario, kind, detail) for scenario, kind, detail in self.failures
            if scenario not in self.known or kind not in (self.known[scenario], "raise")
        ]

    @property
    def correct(self) -> bool:
        return not self.unexpected


def check_capacity(ref: dict, scenario: str, quad, bits: float, quad_err: float):
    """Failure (kind, detail) of an analytic capacity, or None.

    ``contract``: the reported error estimate exceeds the accuracy contract
    max(abs_tol, rel_tol * capacity) in bits.  ``reference``: the value is
    further than REF_REL_TOL (relative) from the reference capacity.
    """
    if not math.isfinite(bits) or not math.isfinite(quad_err):
        return "contract", f"non-finite result {bits!r} +- {quad_err!r}"
    limit = max(quad.abs_tol, quad.rel_tol * abs(bits))
    if quad_err > limit:
        return "contract", f"quad_err {quad_err:.3g} > {limit:.3g} on {bits:.6g} bits"
    expected = ref[scenario]["capacity_bits"]
    if abs(bits - expected) > REF_REL_TOL * abs(expected):
        return "reference", f"{bits!r} vs reference {expected!r} (rel {abs(bits / expected - 1):.2g})"
    return None


def check_mc(ref: dict, scenario: str, mean: float, stderr: float):
    """Failure (kind, detail) of a Monte-Carlo mean, or None."""
    expected = ref[scenario]["capacity_bits"]
    limit = max(MC_REL_TOL * abs(expected), MC_SIGMAS * stderr)
    if not (math.isfinite(mean) and abs(mean - expected) <= limit):
        return "mc", f"mean {mean!r} +- {stderr!r} vs reference {expected!r}"
    return None
