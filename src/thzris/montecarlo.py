"""Ground-truth simulator for the SNR law, independent of the Gamma fit.

Fading magnitudes are Rayleigh with unit mean square, matching the
cascade-moment normalization.  The cascade power chi = S^2, with
S = sum_m |f_m||g_m|, is drawn in one of two ways, both exact in law.

From ``_TABLE_MIN_ELEMENTS`` (M0) elements up, S comes from its own law
with one uniform per trial: each call of a public sampler builds a
quantile table of the standardized sum from its characteristic function
(``_quantile_table``), and every trial reads S off it at logit(U).  A
trial then costs the same at any M.

Below M0 (M <= 3) every element is drawn, as the characteristic
function there decays too slowly for a cheap table.  |f|^2 of a
unit-variance circularly symmetric complex Gaussian is Exp(1), so
|f||g| = sqrt(E1 * E2) for two standard exponentials, each drawn by
inversion, E = -log(1 - U) (Devroye 1986, Non-Uniform Random Variate
Generation, sec. II.2): two uniforms, two logarithms and one square root
per element, and no root at M = 1, where chi = E1 * E2.  1 - U is exact
and lies in (0, 1], so the logarithm is always finite.  numpy's own
exponentials are not used: per draw with SFC64 in 2**16-draw blocks
(2-core Xeon, numpy 2.4.6), uniform, 1 - U and log take 3.2-3.5 ns, the
ziggurat ``standard_exponential`` 4.3-4.5 ns and its ``method='inv'``
15.6 ns, and either would change every estimate's bytes.
Misalignment enters as the captured-power share u = (x / phi)^2, drawn by
inversion as exp((2 / zeta) log(1 - U)), and gamma = a u chi with
a = coeff phi^2.  Noise enters only through the deterministic rho_s
scale: the simulator draws exact SNR realizations, not noisy signals.

Memory: trials are drawn in blocks of at most ``_CHUNK_DRAWS`` uniforms
into one reused buffer per running batch.  At most two batches per
worker are in flight, and their results are folded (or, for the sample
APIs, copied into one preallocated array) in batch order as they finish.
A table draw holds three batch-sized arrays instead of a block, and the
table, built before the batches, takes under 1 MB while it is built and
47 KB after.  Working memory is therefore one block per worker plus a few
batch-sized arrays per in-flight batch, plus the result of the sample
APIs; it depends on neither the element count M nor the trial count.

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
from functools import partial

import numpy as np

from .capacity import _LN2, LinkModel, _snr_coefficient
from .cascade import _K2, _M1
from .config import McConfig
from .errors import _Record, _require_count

# Uniform draws per generator request (2 x rows x elements) below M0:
# 512 KB of float64, so the block and its in-place passes stay inside one
# core's 2 MB L2; a 4 MB block sampled no faster and added 4.4 MB of
# resident memory for a second worker.  With at most 3 elements a trial
# always fits, and batches of up to 2^15 trials at M = 1 take one request.
_CHUNK_DRAWS = 1 << 16

# From this element count up, chi is read from a quantile table of the
# cascade sum's exact law, one uniform per trial, instead of drawn from M
# element pairs.
_TABLE_MIN_ELEMENTS = 4

# Table nodes lie at x = logit(u) = i / 40 for |i| <= 1470, past
# logit(1 - 2^-53) = 36.74, the largest that a uniform double below 1 reaches.
_NODES_PER_LOGIT = 40
_HALF_NODES = 1470
# ln of the mass that each Chernoff tail leaves outside the cosine series'
# interval, and ln |psi| where the series stops.
_LN_TAIL = -46.0
_LN_CF_CUT = -39.0
# Cells of the CDF grid, at least; a power of two for the FFT.
_MIN_CELLS = 1 << 12


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
    """n samples of chi = (sum_m sqrt(E1 E2))^2 for M <= 3 elements.

    E1 E2 = log(1 - U1) log(1 - U2).  Draws run over blocks of whole
    trials, each written straight into chi.  At M = 1, chi is E1 E2 itself.
    """
    rows = min(_CHUNK_DRAWS // (2 * num_elements), n)
    chi = np.empty(n)
    buf = np.empty(2 * rows * num_elements)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        shape = (2, hi - lo, num_elements)
        u = rng.random(out=buf[: math.prod(shape)].reshape(shape))
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        if num_elements == 1:
            np.multiply(u[0, :, 0], u[1, :, 0], out=chi[lo:hi])
        else:
            amp = np.multiply(u[0], u[1], out=u[0])
            np.sqrt(amp, out=amp)
            np.sum(amp, axis=1, out=chi[lo:hi])
    return chi if num_elements == 1 else np.square(chi, out=chi)


def _power_share_batch(zeta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of u = (x / phi)^2 = exp((2 / zeta) log(1 - U)) (inverse CDF)."""
    u = rng.random(n)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= 2.0 / zeta
    return np.exp(u, out=u)


def _cumulant_series(order: int) -> list[float]:
    """g_n = kappa_n / n! of one product R, so that ln phi_R(w) = sum_n g_n (i w)^n.

    From the moments E R^n = Gamma(1 + n/2)^2 by the recursion
    g_n = c_n - sum_(k<n) k g_k c_(n-k) / n, with c_n = E R^n / n!.
    """
    c = [math.gamma(1.0 + n / 2.0) ** 2 / math.factorial(n) for n in range(order + 1)]
    g = [0.0] * (order + 1)
    for n in range(1, order + 1):
        g[n] = c[n] - sum(k * g[k] * c[n - k] for k in range(1, n)) / n
    return g


# Re and Im of sum_(2<=n<=48) g_n (i w)^n are w^2 and w^3 times these
# polynomials in w^2 (highest power first).  The series has radius 2, so
# up to w = 1 the terms left out are below 2^-48 of the first.
_G = _cumulant_series(48)
_CF_EVEN = [(-1) ** (n // 2) * _G[n] for n in range(48, 1, -2)]
_CF_ODD = [(-1) ** (n // 2) * _G[n] for n in range(47, 2, -2)]


def _log_cf(t: np.ndarray, m: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of ln psi(t) = M ln phi_R(t / sigma) - i t M kappa_1 / sigma.

    psi is the characteristic function of Z = (S - M kappa_1) / sigma,
    sigma = sqrt(M kappa_2).  Up to w = t / sigma = 1 it is M times the
    cumulant series from n = 2, so M kappa_1 w is never formed and cancelled.
    Above, phi_R(w) = (4/q) (1 - a s + i (pi/2) s) with q = 4 + w^2,
    a = asinh(w/2) and s = w / sqrt(q) (Gradshteyn & Ryzhik 6.611.3); its
    modulus and argument (in (0, pi)) are formed without cancellation, and
    the phase's rounding, about M ulps, matters only where |psi| > e^-39,
    that is for M < 230.
    """
    w = t / sigma
    re = np.empty_like(w)
    im = np.empty_like(w)
    low = w <= 1.0
    wl = w[low]
    w2 = wl * wl
    re[low] = m * w2 * np.polyval(_CF_EVEN, w2)
    im[low] = m * w2 * wl * np.polyval(_CF_ODD, w2)
    wh = w[~low]
    a = np.arcsinh(wh / 2.0)
    s = wh / np.sqrt(4.0 + wh * wh)
    cos_part = 1.0 - a * s
    sin_part = (math.pi / 2.0) * s
    re[~low] = m * (0.5 * np.log(cos_part * cos_part + sin_part * sin_part) - np.log1p(wh * wh / 4.0))
    im[~low] = m * (np.arctan2(sin_part, cos_part) - _M1 * wh)
    return re, im


def _tail_interval(m: float, mu: float, sigma: float) -> tuple[float, float]:
    """[a, b] in z beyond which each tail of Z holds less than e^_LN_TAIL.

    Chernoff bounds P(S >= s) <= E[e^(lam R)]^M e^(-lam s) and
    P(S <= s) <= E[e^(-lam R)]^M e^(lam s), with
    E[e^(+-lam R)] = (4/q) (1 + lam asin(lam/2) / sqrt(q)) +- 2 pi lam / q^(3/2),
    q = 4 - lam^2 (phi_R at w = -+i lam), taken at their best over a
    geometric grid of 0 < lam < 2.  S >= 0 bounds a by -mu / sigma.
    """
    lam = np.geomspace(1e-3 / sigma, 1.9, 256)
    q = 4.0 - lam * lam
    even = (4.0 / q) * (1.0 + lam * np.arcsin(lam / 2.0) / np.sqrt(q))
    odd = 2.0 * math.pi * lam / (q * np.sqrt(q))
    b = float(np.min((m * np.log(even + odd) - _LN_TAIL) / lam)) - mu
    a = float(np.max((_LN_TAIL - m * np.log(even - odd)) / lam)) - mu
    return max(a, -mu) / sigma, b / sigma


def _cdf_grid(m: float, mu: float, sigma: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(a, h, cdf, pdf): Z's CDF and density at z = a + j h for j = 0 .. J.

    The cosine series of Fang & Oosterlee (SIAM J. Sci. Comput. 31, 2008)
    on [a, b], with t_k = k pi / (b - a) and A_k = Re(psi(t_k) e^(-i t_k a)):
    F(a + j h) = j/J + (2/pi) sum_k A_k/k sin(pi k j/J) and
    f(a + j h) = (1 + 2 sum_k A_k cos(pi k j/J)) / (b - a), each sum one
    real inverse FFT.  The series stops where Re ln psi < _LN_CF_CUT; with
    few elements psi decays only like w^(-2M), so it grows long.
    """
    a, b = _tail_interval(m, mu, sigma)
    width = b - a
    probe = np.geomspace(1.0, 1e8, 200)
    t_cut = float(probe[np.argmax(_log_cf(probe, m, sigma)[0] < _LN_CF_CUT)])
    terms = math.ceil(t_cut * width / math.pi) + 1
    cells = max(_MIN_CELLS, 1 << (terms - 1).bit_length())
    k = np.arange(terms)
    t = k * (math.pi / width)
    re, im = _log_cf(t, m, sigma)
    im -= a * t
    coef = np.exp(re) * np.cos(im)
    sine = np.zeros(terms, dtype=complex)
    sine[1:] = coef[1:] / (1j * k[1:])
    cdf = np.fft.irfft(sine, 2 * cells)[: cells + 1]
    cdf *= 2 * cells / math.pi
    cdf += np.arange(cells + 1) / cells
    pdf = np.fft.irfft(coef, 2 * cells)[: cells + 1]
    pdf *= 2 * cells / width
    return a, width / cells, np.maximum.accumulate(np.clip(cdf, 0.0, 1.0, out=cdf)), pdf


def _quantile_table(num_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and slopes of S's quantile function, linear in x = logit(u) between nodes.

    Node i sits at x = (i - _HALF_NODES) / _NODES_PER_LOGIT.  Its quantile
    solves F(z) = u by Newton's method on the cubic Hermite interpolant of
    the CDF grid, from the linear one.  Linear interpolation lies above a
    convex quantile function by Q'' dx^2 / 12 on average over a cell, so
    each inner node is lowered by a twelfth of its second difference; every
    moment of the drawn law then errs by O(dx^4), about 2e-10 of Var S.
    """
    m = float(num_elements)
    mu = m * _M1
    sigma = math.sqrt(m * _K2)
    a, h, cdf, pdf = _cdf_grid(m, mu, sigma)
    u = 1.0 / (1.0 + np.exp(np.arange(_HALF_NODES, -_HALF_NODES - 1, -1) / _NODES_PER_LOGIT))
    cell = np.clip(np.searchsorted(cdf, u) - 1, 0, cdf.size - 2)
    f0 = cdf[cell]
    rise = cdf[cell + 1] - f0
    d0 = h * pdf[cell]
    d1 = h * pdf[cell + 1]
    c2 = 3.0 * rise - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * rise
    s = np.clip((u - f0) / np.maximum(rise, 1e-300), 0.0, 1.0)
    for _ in range(2):
        excess = f0 + s * (d0 + s * (c2 + s * c3)) - u
        slope = d0 + s * (2.0 * c2 + 3.0 * s * c3)
        s = np.clip(s - excess / np.maximum(slope, 1e-300), 0.0, 1.0)
    z = a + (cell + s) * h
    z[1:-1] -= np.diff(z, 2) / 12.0
    return mu + sigma * z, np.append(sigma * np.diff(z), 0.0)


def _table_chi_batch(nodes: np.ndarray, slopes: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of chi = S^2, each S read off the quantile table at logit(U) for one uniform U."""
    u = rng.random(n)
    pos = np.subtract(1.0, u)
    np.divide(u, pos, out=pos)
    with np.errstate(divide="ignore"):  # U = 0 gives -inf, so the first node
        np.log(pos, out=pos)
    pos *= _NODES_PER_LOGIT
    pos += _HALF_NODES
    np.clip(pos, 0.0, 2 * _HALF_NODES, out=pos)
    whole = np.floor(pos, out=u)
    pos -= whole
    index = whole.astype(np.intp)
    s = np.take(slopes, index, out=u, mode="clip")
    s *= pos
    s += np.take(nodes, index, out=pos, mode="clip")
    return np.square(s, out=s)


def _chi_draw(num_elements: int):
    """The chi sampler for M elements, as ``draw(rng, n)``.

    Below ``_TABLE_MIN_ELEMENTS`` it draws the elements; from there up it
    reads one quantile table, built here.
    """
    if num_elements < _TABLE_MIN_ELEMENTS:
        return partial(_chi_batch, num_elements)
    return partial(_table_chi_batch, *_quantile_table(num_elements))


def _snr_draw(model: LinkModel):
    """The SNR sampler of ``model``, as ``draw(rng, n)``: chi, then u, and gamma = a u chi."""
    chi_draw = _chi_draw(model.ris.num_elements)
    a = _snr_coefficient(model) * model.misalign.phi**2

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        chi = chi_draw(rng, n)
        u = _power_share_batch(model.misalign.zeta, rng, n)
        u *= a
        chi *= u
        return chi

    return draw


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
    return _fill(_snr_draw(model), cfg, workers)


def cascade_samples(num_elements: int, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """All ``cfg.trials`` cascade-power samples, in batch order."""
    _require_count("element count", num_elements)
    return _fill(_chi_draw(num_elements), cfg, workers)


def estimate_ergodic_rate(model: LinkModel, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of log2(1 + gamma) with its standard error.

    log1p keeps full precision when gamma is many orders of magnitude
    below 1, where 1 + gamma would round away the signal.  Batch moments
    are taken in nats, in place in the SNR array, and scaled to bits.
    """
    draw = _snr_draw(model)

    def moments(rng: np.random.Generator, size: int) -> tuple[int, float, float]:
        dev = draw(rng, size)
        np.log1p(dev, out=dev)
        # Deviations from the first sample: a constant batch has exactly
        # zero spread, and the mean is exact.
        first = float(dev[0])
        dev -= first
        dev_mean = float(np.sum(dev)) / size
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
