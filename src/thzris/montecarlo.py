"""Ground-truth simulator for the SNR law, independent of the Gamma fit.

Fading magnitudes are Rayleigh with unit mean square, matching the
cascade-moment normalization.  The squared magnitude |f|^2 of a
unit-variance circularly symmetric complex Gaussian is Exp(1), so the
per-element product |f||g| is sqrt(E1 * E2) for two standard
exponentials.  Each exponential is drawn by inversion, E = -log(1 - U)
for a uniform U (Devroye 1986, Non-Uniform Random Variate Generation,
sec. II.2), so an element costs two uniforms, two logarithms and one
square root; the minus signs cancel in the product.  1 - U is exact and
lies in (0, 1], so the logarithm is always finite.  numpy's own
exponentials are not used: per draw with SFC64 in 2**16-draw blocks
(2-core Xeon, numpy 2.4.6), uniform, 1 - U and log take 3.2-3.5 ns, the
ziggurat ``standard_exponential`` 4.3-4.5 ns and its ``method='inv'``
15.6 ns, and either would change every estimate's bytes (``'inv'``
differs from -log(1 - U) in the last bit of 4,786 of 65,536 draws).
Misalignment values come from the inverse CDF,
x = phi * exp(log(1 - U) / zeta).  Noise enters only through the
deterministic rho_s scale: the simulator draws exact SNR realizations,
not noisy received signals.

Memory: trials are drawn in blocks of at most ``_CHUNK_DRAWS`` uniforms
into one reused buffer per running batch.  At most two batches per
worker are in flight, and their results are folded (or, for the sample
APIs, copied into one preallocated array) in batch order as they finish.
Working memory is therefore one block per worker plus a few batch-sized
arrays per in-flight batch, plus the result of the sample APIs; it
depends on neither the element count M nor the trial count.

Reproducibility: batch ``i`` draws from an SFC64 stream seeded by child
``i`` of ``SeedSequence(seed)``, and batch results are reduced in batch
order, so estimates depend only on (model, config) and never on how many
workers executed the batches.  Batch moments are merged with the
pairwise update of Chan, Golub & LeVeque (1983), which keeps the variance
accurate when the mean rate is large against its spread.

This is the only module that imports numpy.  The package and the CLI
import it on first use of a Monte-Carlo name, so the analytic commands
start without numpy; ``McConfig`` is defined in ``config`` for that
reason.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .capacity import _LN2, LinkModel, _snr_coefficient
from .channel import MisalignmentParams
from .config import McConfig
from .errors import _Record, _require_count

# Uniform draws per generator request (2 x rows x elements): 512 KB of
# float64, so the block and its in-place passes stay inside one core's
# 2 MB L2.  A 4 MB block did not, sampled no faster at M = 1, 100 or 1024,
# and added 4.4 MB of resident memory for a second worker.  Batches of up
# to 2^15 trials at M = 1 still take one request.
_CHUNK_DRAWS = 1 << 16


class McEstimate(_Record):
    """Sample mean with its standard error over ``n`` trials."""

    def __init__(self, mean: float, std_error: float, n: int):
        super().__init__(mean=mean, std_error=std_error, n=n)


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Independent stream for one batch, derived from (seed, index).

    SFC64 seeded by ``SeedSequence(seed).spawn(batch_index + 1)[batch_index]``,
    built directly from its spawn key so no sibling is created.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _chi_batch(num_elements: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of chi = (sum_m |f_m||g_m|)^2, with |f_m||g_m| = sqrt(E1 E2).

    E1 E2 = log(1 - U1) log(1 - U2).  Draws run over blocks of whole
    trials; when one trial alone exceeds the block, each trial is split
    into element blocks.  Every element block is summed per trial and
    added to the zeroed output.
    """
    cols = min(num_elements, _CHUNK_DRAWS // 2)
    rows = min(_CHUNK_DRAWS // (2 * cols), n)
    s = np.zeros(n)
    buf = np.empty(2 * rows * cols)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for start in range(0, num_elements, cols):
            shape = (2, hi - lo, min(cols, num_elements - start))
            u = rng.random(out=buf[: math.prod(shape)].reshape(shape))
            np.subtract(1.0, u, out=u)
            np.log(u, out=u)
            amp = np.multiply(u[0], u[1], out=u[0])
            np.sqrt(amp, out=amp)
            s[lo:hi] += amp.sum(axis=1)
    return np.square(s, out=s)


def _misalignment_batch(p: MisalignmentParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n misalignment samples x = phi * exp(log(1 - U) / zeta) (inverse CDF)."""
    x = rng.random(n)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    x *= 1.0 / p.zeta
    np.exp(x, out=x)
    x *= p.phi
    return x


def _snr_batch(model: LinkModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n SNR samples; draw order is fixed (fading first, then misalignment)."""
    chi = _chi_batch(model.ris.num_elements, rng, n)
    x = _misalignment_batch(model.misalign, rng, n)
    np.square(x, out=x)
    x *= _snr_coefficient(model)
    chi *= x
    return chi


def _map_batches(draw, cfg: McConfig, workers: int):
    """Yield ``draw(batch_rng(cfg.seed, i), size_i)`` for every batch, in batch order.

    At most ``2 * workers`` batches are submitted and not yet yielded, so
    pending results do not grow with the batch count.
    """
    _require_count("workers", workers)
    count = -(-cfg.trials // cfg.batch)

    def task(index: int):
        size = min(cfg.batch, cfg.trials - index * cfg.batch)
        return draw(batch_rng(cfg.seed, index), size)

    # One worker runs the batches inline.  For 2^25 element draws in batches
    # of 16,384 trials on a 2-core host, a one-thread pool took 1.09 s
    # against 0.91 s at M = 1 (about 90 us of hand-off on each 0.44 ms
    # batch) and 0.46 s against 0.41 s at M = 100 (medians of 6 runs).
    if workers == 1:
        yield from map(task, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = deque()
        for index in range(count):
            window.append(pool.submit(task, index))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _fill(draw, cfg: McConfig, workers: int) -> np.ndarray:
    """All ``cfg.trials`` samples, each batch copied into its slice of one array."""
    out = np.empty(cfg.trials)
    lo = 0
    for batch in _map_batches(draw, cfg, workers):
        out[lo : lo + batch.size] = batch
        lo += batch.size
    return out


def snr_samples(model: LinkModel, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """All ``cfg.trials`` SNR samples, in batch order."""
    return _fill(lambda rng, size: _snr_batch(model, rng, size), cfg, workers)


def cascade_samples(num_elements: int, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """All ``cfg.trials`` cascade-power samples, in batch order."""
    _require_count("element count", num_elements)
    return _fill(lambda rng, size: _chi_batch(num_elements, rng, size), cfg, workers)


def estimate_ergodic_rate(model: LinkModel, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of log2(1 + gamma) with its standard error.

    log1p keeps full precision when gamma is many orders of magnitude
    below 1, where 1 + gamma would round away the signal.  Batch moments
    are taken in nats, in place in the SNR array, and scaled to bits.
    """

    def moments(rng: np.random.Generator, size: int) -> tuple[int, float, float]:
        dev = _snr_batch(model, rng, size)
        np.log1p(dev, out=dev)
        # Deviations from the first sample: a constant batch has exactly
        # zero spread, and the mean is exact.
        first = float(dev[0])
        dev -= first
        dev_mean = float(np.mean(dev))
        dev -= dev_mean
        m2 = float(np.sum(np.square(dev, out=dev)))
        return size, (first + dev_mean) / _LN2, m2 / (_LN2 * _LN2)

    total_n = 0
    mean = 0.0
    m2 = 0.0
    for size, batch_mean, batch_m2 in _map_batches(moments, cfg, workers):
        n = total_n + size
        delta = batch_mean - mean
        mean += delta * (size / n)
        m2 += batch_m2 + delta * delta * total_n * size / n
        total_n = n

    return McEstimate(mean=mean, std_error=math.sqrt(m2 / (total_n - 1) / total_n), n=total_n)
