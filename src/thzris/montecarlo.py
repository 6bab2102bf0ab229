"""Ground-truth simulator for the SNR law, independent of the Gamma fit.

Fading magnitudes are Rayleigh with unit mean square, matching the
cascade-moment normalization.  The squared magnitude |f|^2 of a
unit-variance circularly symmetric complex Gaussian is Exp(1), so the
per-element product |f||g| is drawn as sqrt(E1 * E2) from two standard
exponentials: two draws and one square root per element.  Trials are
drawn in blocks of at most ``_CHUNK_DRAWS`` exponentials, so the sampling
buffer depends on neither the element count nor the batch size.
Misalignment values come from the inverse CDF applied to uniforms.  Noise
enters only through the deterministic rho_s scale: the simulator draws
exact SNR realizations, not noisy received signals.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import LinkModel, _snr_coefficient
from .channel import MisalignmentParams
from .config import McConfig
from .errors import DomainError

_LN2 = math.log(2.0)

# Exponential draws per generator request (2 x rows x elements), 4 MB of
# float64: large enough that per-request overhead vanishes at M=1, and a
# fixed bound on the sampling buffer at any M.
_CHUNK_DRAWS = 1 << 19


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over ``n`` trials."""

    mean: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise DomainError(f"std_error must be >= 0, got {self.std_error!r}")


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Independent stream for one batch, derived from (seed, index).

    SFC64 seeded by ``SeedSequence(seed).spawn(batch_index + 1)[batch_index]``,
    built directly from its spawn key so no sibling is created.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _chi_batch(num_elements: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of chi = (sum_m |f_m||g_m|)^2, with |f_m||g_m| = sqrt(E1 E2).

    Draws run over blocks of whole trials; when one trial alone exceeds
    the block, each trial is split into element blocks.
    """
    cols = min(num_elements, _CHUNK_DRAWS // 2)
    rows = _CHUNK_DRAWS // (2 * cols)
    s = np.zeros(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for start in range(0, num_elements, cols):
            e = rng.standard_exponential((2, hi - lo, min(cols, num_elements - start)))
            amp = np.multiply(e[0], e[1], out=e[0])
            np.sqrt(amp, out=amp)
            s[lo:hi] += amp.sum(axis=1)
    return np.square(s, out=s)


def _misalignment_batch(p: MisalignmentParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n misalignment samples via the inverse CDF of uniforms."""
    return p.phi * rng.random(n) ** (1.0 / p.zeta)


def _snr_batch(model: LinkModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n SNR samples; draw order is fixed (fading first, then misalignment)."""
    chi = _chi_batch(model.ris.num_elements, rng, n)
    x = _misalignment_batch(model.misalign, rng, n)
    return _snr_coefficient(model) * x * x * chi


def sample_cascade(num_elements: int, rng: np.random.Generator) -> float:
    """One sample of the cascade power chi."""
    if num_elements < 1:
        raise DomainError(f"num_elements must be >= 1, got {num_elements!r}")
    return float(_chi_batch(num_elements, rng, 1)[0])


def sample_snr(model: LinkModel, rng: np.random.Generator) -> float:
    """One SNR sample distributed per the model."""
    return float(_snr_batch(model, rng, 1)[0])


def _batch_sizes(cfg: McConfig) -> list[int]:
    full, rest = divmod(cfg.trials, cfg.batch)
    return [cfg.batch] * full + ([rest] if rest else [])


def _map_batches(task, cfg: McConfig, workers: int) -> list:
    """Run ``task(batch_index, size)`` over all batches, results in batch order."""
    sizes = _batch_sizes(cfg)
    if workers <= 1:
        return [task(i, size) for i, size in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(len(sizes)), sizes))


def snr_samples(model: LinkModel, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """All ``cfg.trials`` SNR samples, concatenated in batch order."""

    def task(index: int, size: int) -> np.ndarray:
        return _snr_batch(model, batch_rng(cfg.seed, index), size)

    return np.concatenate(_map_batches(task, cfg, workers))


def cascade_samples(num_elements: int, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """All ``cfg.trials`` cascade-power samples, concatenated in batch order."""
    if num_elements < 1:
        raise DomainError(f"num_elements must be >= 1, got {num_elements!r}")

    def task(index: int, size: int) -> np.ndarray:
        return _chi_batch(num_elements, batch_rng(cfg.seed, index), size)

    return np.concatenate(_map_batches(task, cfg, workers))


def estimate_ergodic_rate(model: LinkModel, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of log2(1 + gamma) with its standard error.

    log1p keeps full precision when gamma is many orders of magnitude
    below 1, where 1 + gamma would round away the signal.
    """

    def task(index: int, size: int) -> tuple[int, float, float]:
        rates = np.log1p(_snr_batch(model, batch_rng(cfg.seed, index), size)) / _LN2
        # Deviations from the first sample: a constant batch has exactly
        # zero spread, and the mean is exact.
        dev = rates - rates[0]
        dev_mean = float(np.mean(dev))
        dev -= dev_mean
        return size, float(rates[0]) + dev_mean, float(np.sum(dev * dev))

    total_n = 0
    mean = 0.0
    m2 = 0.0
    for size, batch_mean, batch_m2 in _map_batches(task, cfg, workers):
        n = total_n + size
        delta = batch_mean - mean
        mean += delta * (size / n)
        m2 += batch_m2 + delta * delta * total_n * size / n
        total_n = n

    var = m2 / (total_n - 1) if total_n > 1 else 0.0
    return McEstimate(mean=mean, std_error=math.sqrt(var / total_n), n=total_n)
