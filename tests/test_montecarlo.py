import math
import tracemalloc
import warnings
import numpy as np
import pytest
import scipy.special

import thzris.montecarlo as mc
from thzris import (
    DomainError,
    LinkModel,
    McConfig,
    apply_sweep_value,
    batch_rng,
    build_model,
    cascade_moments,
    cascade_samples,
    ergodic_capacity,
    estimate_ergodic_rate,
    snr_samples,
)
from thzris.capacity import _snr_coefficient

from oracles import e_ln_chi, ks_critical, ks_statistic, ks_two_sample_statistic, log_cf_standardized


class TestMcConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            McConfig(trials=0)
        with pytest.raises(DomainError):
            McConfig(batch=0)
        with pytest.raises(DomainError):
            McConfig(seed=-1)
        with pytest.raises(DomainError):
            McConfig(seed=2**64)
        # One trial has no standard error.
        with pytest.raises(DomainError, match="trials must be >= 2, got 1"):
            McConfig(trials=1)


class TestSubstreams:
    def test_batch_rng_reproducible(self):
        a = batch_rng(42, 3).standard_normal(8)
        b = batch_rng(42, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_batches_differ(self):
        a = batch_rng(42, 0).standard_normal(8)
        b = batch_rng(42, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, index", [(42, 0), (42, 5), (2**64 - 1, 3)])
    def test_batch_rng_is_spawned_child(self, seed, index):
        child = np.random.SeedSequence(seed).spawn(index + 1)[index]
        expected = np.random.Generator(np.random.SFC64(child))
        assert np.array_equal(batch_rng(seed, index).random(16), expected.random(16))

    def test_extreme_seeds_give_distinct_streams(self):
        low = batch_rng(0, 0).random(16)
        high = batch_rng(2**64 - 1, 0).random(16)
        assert not np.array_equal(low, high)


class TestSampleCascade:
    def test_deterministic_sequence(self):
        first = [mc._chi_batch(4, batch_rng(7, i), 1)[0] for i in range(5)]
        second = [mc._chi_batch(4, batch_rng(7, i), 1)[0] for i in range(5)]
        assert first == second

    def test_nonnegative(self):
        rng = batch_rng(1, 0)
        assert all(mc._chi_batch(8, rng, 1)[0] >= 0.0 for _ in range(100))

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            cascade_samples(0, McConfig(trials=10, seed=1))

    def test_unit_mean_for_single_element(self):
        chi = cascade_samples(1, McConfig(trials=1_000_000, seed=31))
        se = chi.std(ddof=1) / math.sqrt(len(chi))
        assert abs(chi.mean() - 1.0) <= 4.0 * se

    def test_single_element_law_passes_ks(self):
        # chi = E1 E2 at M=1: P(chi <= y) = 1 - 2 sqrt(y) K1(2 sqrt(y)),
        # which checks the tails of the drawn law, not only its moments
        chi = cascade_samples(1, McConfig(trials=100_000, seed=43))

        def cdf(y):
            root = np.sqrt(y)
            return 1.0 - 2.0 * root * scipy.special.k1(2.0 * root)

        assert ks_statistic(chi, cdf) < ks_critical(len(chi), alpha=0.01)

    @pytest.mark.parametrize("m", [1, 16, 100])
    def test_amplitude_sum_moments(self, m):
        s = np.sqrt(cascade_samples(m, McConfig(trials=1_000_000, seed=57)))
        moments = cascade_moments(m)
        n = len(s)
        se_mean = s.std(ddof=1) / math.sqrt(n)
        assert abs(s.mean() - moments.mean_s) <= 4.0 * se_mean
        var = s.var(ddof=1)
        central4 = float(np.mean((s - s.mean()) ** 4))
        se_var = math.sqrt(max(central4 - var**2, 0.0) / n)
        assert abs(var - moments.var_s) <= 4.0 * se_var


class _RecordingRng:
    """Delegates to a real generator and records the shape of each uniform request."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size=None, out=None):
        self.sizes.append(size if out is None else out.shape)
        return self.rng.random(size, out=out)


class TestChiBatchChunks:
    @pytest.mark.parametrize("m, n", [(1024, 16_384), (300_000, 3)])
    def test_requests_bounded_and_equal_to_direct_call(self, m, n):
        proxy = _RecordingRng(batch_rng(11, 0))
        chunked = mc._chi_batch(m, proxy, n)
        assert max(math.prod(size) for size in proxy.sizes) <= mc._CHUNK_DRAWS
        assert sum(math.prod(size) for size in proxy.sizes) == 2 * m * n
        assert np.array_equal(chunked, mc._chi_batch(m, batch_rng(11, 0), n))

    def test_element_blocks_keep_the_mean(self):
        # M above half the block splits every trial into element blocks
        m = 300_000
        chi = mc._chi_batch(m, batch_rng(13, 0), 8)
        moments = cascade_moments(m)
        se = math.sqrt(moments.var_chi / len(chi))
        assert abs(chi.mean() - moments.mean_chi) <= 4.0 * se


def traced_peak(fn) -> int:
    """Bytes of the traced allocation peak of ``fn()`` above its start.

    ``fn`` runs once untraced first, so numpy's one-time set-up is not
    counted.  numpy reports its array buffers to tracemalloc.
    """
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


# One draw block of 2^16 float64 uniforms, small enough for a core's L2.
# A fixed figure, not 8 * _CHUNK_DRAWS, so that a larger block fails.
BLOCK_BYTES = 512 * 1024
# Room for the small Python objects of a call (views, shapes, futures).
SLACK_BYTES = 16 * 1024


class TestWorkingMemory:
    """Sampler memory is one draw block plus a few batch-sized arrays."""

    @pytest.mark.parametrize("m, n", [(1, 16_384), (100, 16_384), (1024, 16_384), (300_000, 16)])
    def test_chi_batch_holds_one_block(self, m, n):
        # the block, the output and one block's per-trial sums
        peak = traced_peak(lambda: mc._chi_batch(m, batch_rng(1, 0), n))
        assert peak <= BLOCK_BYTES + 2 * 8 * n + SLACK_BYTES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimate_does_not_grow_with_batch_count(self, default_cfg, workers):
        model = build_model(apply_sweep_value(default_cfg, "M", 1))

        def peak(batches):
            cfg = McConfig(trials=64 * batches, seed=1, batch=64)
            return traced_peak(lambda: estimate_ergodic_rate(model, cfg, workers=workers))

        assert peak(1_024) <= peak(256) + SLACK_BYTES

    def test_cascade_samples_fill_one_array(self):
        cfg = McConfig(trials=1_000_000)
        peak = traced_peak(lambda: cascade_samples(1, cfg))
        assert peak <= 8 * cfg.trials + BLOCK_BYTES + 2 * 8 * cfg.batch + SLACK_BYTES

    def test_table_batch_holds_three_arrays(self):
        # the uniforms, their positions in the table and the node indices
        table = mc._quantile_table(100)
        n = 16_384
        peak = traced_peak(lambda: mc._table_chi_batch(*table, batch_rng(1, 0), n))
        assert peak <= 3 * 8 * n + SLACK_BYTES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_estimate_does_not_grow_with_batch_count(self, default_cfg, monkeypatch, workers):
        # the table is built once per call; built beforehand, it leaves the batches' memory alone
        model = build_model(apply_sweep_value(default_cfg, "M", 100))
        table = mc._quantile_table(100)
        monkeypatch.setattr(mc, "_quantile_table", lambda m: table)

        def peak(batches):
            cfg = McConfig(trials=64 * batches, seed=1, batch=64)
            return traced_peak(lambda: estimate_ergodic_rate(model, cfg, workers=workers))

        assert peak(1_024) <= peak(256) + SLACK_BYTES

    def test_table_cascade_samples_fill_one_array(self):
        cfg = McConfig(trials=1_000_000)
        peak = traced_peak(lambda: cascade_samples(100, cfg))
        assert peak <= 8 * cfg.trials + BLOCK_BYTES + 2 * 8 * cfg.batch + SLACK_BYTES


# The table's smallest element count, the two of the benchmark above it and
# three large ones.
TABLE_COUNTS = [mc._TABLE_MIN_ELEMENTS, 100, 1024, 10**5, 10**8, 10**12]


def drawn_law(num_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Points z and probabilities that integrate the table's draws of z = (S - mu) / sigma.

    S is linear in x = logit(U) between nodes, x has the logistic density
    e^-|x| / (1 + e^-|x|)^2, and beyond the end nodes S stays at them.  Each
    cell is integrated by 8-point Gauss-Legendre.
    """
    nodes, _ = mc._quantile_table(num_elements)
    z = (nodes - num_elements * mc._M1) / math.sqrt(num_elements * mc._K2)
    step = 1.0 / mc._NODES_PER_LOGIT
    x = (np.arange(z.size) - mc._HALF_NODES) * step
    end_mass = 1.0 / (1.0 + math.exp(-x[0]))
    points, masses = [z[[0, -1]]], [np.full(2, end_mass)]
    roots, weights = np.polynomial.legendre.leggauss(8)
    for root, weight in zip(roots, weights):
        frac = (1.0 + root) / 2.0
        at = np.exp(-np.abs(x[:-1] + frac * step))
        points.append(z[:-1] + frac * np.diff(z))
        masses.append(at / (1.0 + at) ** 2 * (weight * step / 2.0))
    return np.concatenate(points), np.concatenate(masses)


def table_moments(num_elements: int) -> tuple[float, float, float]:
    """Mean and variance of S, and Var chi, of the law the table draws.

    Var chi = E S^4 - (E S^2)^2 is expanded in the moments of z, so no
    digit cancels at large M.
    """
    mu = num_elements * mc._M1
    sigma = math.sqrt(num_elements * mc._K2)
    z, mass = drawn_law(num_elements)
    m = [float(np.sum(mass * z**k)) for k in range(5)]
    var_z = m[2] - m[1] ** 2
    var_chi = (4.0 * mu * mu * sigma * sigma * var_z + 4.0 * mu * sigma**3 * (m[3] - m[1] * m[2])
               + sigma**4 * (m[4] - m[2] ** 2))
    return mu + sigma * m[1], sigma * sigma * var_z, var_chi


class TestQuantileTable:
    """The table of S's exact law, checked without drawing a sample."""

    @pytest.mark.parametrize("m", TABLE_COUNTS)
    def test_drawn_law_keeps_the_exact_moments(self, m):
        mean_s, var_s, var_chi = table_moments(m)
        exact = cascade_moments(m)
        assert mean_s == pytest.approx(exact.mean_s, rel=1e-9, abs=0)
        assert var_s == pytest.approx(exact.var_s, rel=1e-9, abs=0)
        assert var_chi == pytest.approx(exact.var_chi, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m", [mc._TABLE_MIN_ELEMENTS, 16, 100, 1024])
    def test_drawn_law_keeps_e_ln_chi(self, m):
        # E[ln chi] weighs the lower tail, which no moment above does
        z, mass = drawn_law(m)
        s = m * mc._M1 + math.sqrt(m * mc._K2) * z
        assert abs(2.0 * float(np.sum(mass * np.log(s))) - e_ln_chi(m)) <= 1e-9

    @pytest.mark.parametrize("m", TABLE_COUNTS)
    def test_log_cf_matches_mpmath(self, m):
        # the cumulant series (w = t / sigma <= 1) and, where psi is not
        # negligible (M below about 230), the closed form above it
        sigma = math.sqrt(m * mc._K2)
        t = np.array([1e-3, 0.1, 1.0, 3.0, 6.0, 8.0, 0.99 * sigma, 1.01 * sigma, 2.0 * sigma, 5.0 * sigma])
        re, im = mc._log_cf(t, float(m), sigma)
        kept = re > mc._LN_CF_CUT
        assert kept.sum() >= 6
        for at, real, imag in zip(t[kept], re[kept], im[kept]):
            assert abs(complex(real, imag) - log_cf_standardized(float(at), m)) <= 1e-12

    @pytest.mark.parametrize("m", [mc._TABLE_MIN_ELEMENTS, 10**12])
    def test_two_builds_are_byte_equal(self, m):
        first, second = mc._quantile_table(m), mc._quantile_table(m)
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]

    @pytest.mark.parametrize("m", TABLE_COUNTS)
    def test_build_peak_below_one_megabyte(self, m):
        assert traced_peak(lambda: mc._quantile_table(m)) <= 1 << 20

    def test_fewer_elements_are_drawn_one_by_one(self):
        m = mc._TABLE_MIN_ELEMENTS - 1
        chi = mc._chi_draw(m)(batch_rng(3, 0), 1_000)
        assert chi.tobytes() == mc._chi_batch(m, batch_rng(3, 0), 1_000).tobytes()


class TestTableAgainstElements:
    """The table's draws against the element draws, which stay callable at any M."""

    @pytest.mark.parametrize("m, n", [(mc._TABLE_MIN_ELEMENTS, 200_000), (100, 200_000), (1024, 50_000)])
    def test_chi_passes_two_sample_ks(self, m, n):
        table = mc._chi_draw(m)(batch_rng(101, 0), n)
        elements = mc._chi_batch(m, batch_rng(202, 0), n)
        assert ks_two_sample_statistic(table, elements) < ks_critical(n / 2, alpha=0.01)

    @pytest.mark.parametrize("p_s_dbm", [150.0, 200.0, 250.0])
    @pytest.mark.parametrize("m, trials", [(mc._TABLE_MIN_ELEMENTS, 200_000), (100, 200_000), (1024, 20_000)])
    def test_estimate_within_4_sigma_of_elements(self, default_cfg, monkeypatch, m, trials, p_s_dbm):
        scenario = apply_sweep_value(default_cfg, "P_s_dBm", p_s_dbm)
        model = build_model(apply_sweep_value(scenario, "M", m))
        table = estimate_ergodic_rate(model, McConfig(trials=trials, seed=11))
        monkeypatch.setattr(mc, "_TABLE_MIN_ELEMENTS", m + 1)
        elements = estimate_ergodic_rate(model, McConfig(trials=trials, seed=12))
        assert abs(table.mean - elements.mean) <= 4.0 * math.hypot(table.std_error, elements.std_error)

    @pytest.mark.parametrize("m", [mc._TABLE_MIN_ELEMENTS, 100, 10**8])
    def test_identical_at_one_two_and_three_workers(self, default_cfg, m):
        model = build_model(apply_sweep_value(default_cfg, "M", m))
        cfg = McConfig(trials=3 * 16_384 + 17, seed=8)
        estimate = estimate_ergodic_rate(model, cfg, workers=1)
        chi = cascade_samples(m, cfg, workers=1)
        for workers in (2, 3):
            assert estimate_ergodic_rate(model, cfg, workers=workers) == estimate
            assert cascade_samples(m, cfg, workers=workers).tobytes() == chi.tobytes()


class TestSampleSnr:
    def test_zero_amplification(self, default_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ris = default_cfg.ris.replace(beta=0.0)
        model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                          default_cfg.misalign, ris)
        draw = mc._snr_draw(model)
        assert all(draw(batch_rng(5, i), 1)[0] == 0.0 for i in range(20))

    def test_deterministic(self, default_model):
        draw = mc._snr_draw(default_model)
        assert draw(batch_rng(9, 2), 1)[0] == draw(batch_rng(9, 2), 1)[0]

    def test_perfect_alignment_mean(self, default_model, monkeypatch):
        # pin the misalignment draw at phi; the SNR mean must then be the
        # model's mean SNR, coeff * phi^2 * E[chi]
        phi = default_model.misalign.phi
        monkeypatch.setattr(mc, "_misalignment_batch",
                            lambda p, rng, n: np.full(n, phi))
        gammas = snr_samples(default_model, McConfig(trials=200_000, seed=61))
        expected = default_model.mean_snr
        se = gammas.std(ddof=1) / math.sqrt(len(gammas))
        assert abs(gammas.mean() - expected) <= 4.0 * se

    def test_misalignment_samples_pass_ks(self, default_model):
        p = default_model.misalign
        draws = np.concatenate(
            [mc._misalignment_batch(p, batch_rng(3, i), 25_000) for i in range(4)]
        )
        statistic = ks_statistic(draws, lambda x: (x / p.phi) ** p.zeta)
        assert statistic < ks_critical(len(draws), alpha=0.01)


class TestEstimateErgodicRate:
    def test_zero_amplification(self, default_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ris = default_cfg.ris.replace(beta=0.0)
        model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                          default_cfg.misalign, ris)
        estimate = estimate_ergodic_rate(model, McConfig(trials=50_000, seed=1))
        assert estimate.mean == 0.0
        assert estimate.std_error == 0.0
        assert estimate.n == 50_000

    def test_degenerate_model_exact_rate(self, default_model, monkeypatch):
        chi0 = 2.0
        x0 = 0.05
        monkeypatch.setattr(mc, "_chi_draw", lambda m: lambda rng, n: np.full(n, chi0))
        monkeypatch.setattr(mc, "_misalignment_batch", lambda p, rng, n: np.full(n, x0))
        gamma0 = _snr_coefficient(default_model) * x0 * x0 * chi0
        estimate = estimate_ergodic_rate(default_model, McConfig(trials=10_000, seed=2))
        assert estimate.mean == pytest.approx(math.log1p(gamma0) / math.log(2.0), rel=1e-15, abs=0)
        assert estimate.std_error == 0.0

    def test_deterministic_given_seed(self, default_model):
        cfg = McConfig(trials=60_000, seed=123, batch=8_192)
        first = estimate_ergodic_rate(default_model, cfg)
        second = estimate_ergodic_rate(default_model, cfg)
        assert first == second

    def test_worker_count_does_not_change_result(self, default_model):
        cfg = McConfig(trials=60_000, seed=123, batch=8_192)
        serial = estimate_ergodic_rate(default_model, cfg, workers=1)
        threaded = estimate_ergodic_rate(default_model, cfg, workers=4)
        assert serial.mean == threaded.mean
        assert serial.std_error == threaded.std_error
        assert serial.n == threaded.n

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, default_model, workers):
        with pytest.raises(DomainError):
            estimate_ergodic_rate(default_model, McConfig(trials=100, seed=1), workers=workers)

    def test_partial_last_batch(self, default_model):
        cfg = McConfig(trials=10_001, seed=5, batch=4_096)
        estimate = estimate_ergodic_rate(default_model, cfg)
        assert estimate.n == 10_001

    def test_snr_samples_respects_worker_count(self, default_model):
        cfg = McConfig(trials=40_000, seed=77, batch=8_192)
        assert np.array_equal(
            snr_samples(default_model, cfg, workers=1),
            snr_samples(default_model, cfg, workers=3),
        )

    def test_partial_batch_spanning_chunks_is_worker_independent(self, default_cfg):
        model = build_model(apply_sweep_value(default_cfg, "M", 1024))
        cfg = McConfig(trials=16_384 + 1_000, seed=3)
        assert estimate_ergodic_rate(model, cfg, workers=1) == estimate_ergodic_rate(
            model, cfg, workers=2
        )

    def test_one_worker_runs_without_a_thread_pool(self, default_model, monkeypatch):
        cfg = McConfig(trials=3 * 8_192 + 5, seed=21, batch=8_192)
        pooled = estimate_ergodic_rate(default_model, cfg, workers=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not start a thread pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        assert estimate_ergodic_rate(default_model, cfg, workers=1) == pooled

    def test_single_element_identical_at_one_two_and_three_workers(self, default_cfg):
        model = build_model(apply_sweep_value(default_cfg, "M", 1))
        cfg = McConfig(trials=3 * 16_384 + 17, seed=8)
        serial = estimate_ergodic_rate(model, cfg, workers=1)
        assert estimate_ergodic_rate(model, cfg, workers=2) == serial
        assert estimate_ergodic_rate(model, cfg, workers=3) == serial

    def test_std_error_matches_two_pass_at_high_snr(self, default_cfg):
        # about 50 bits with a 0.24-bit spread: sum - sum^2/n of the squares
        # cancels 4-5 of the 16 digits here
        scenario = apply_sweep_value(default_cfg, "P_s_dBm", 300.0)
        model = build_model(apply_sweep_value(scenario, "zeta", 50.0))
        cfg = McConfig(trials=400_000, seed=17)
        rates = np.log1p(snr_samples(model, cfg)) / math.log(2.0)
        estimate = estimate_ergodic_rate(model, cfg, workers=2)
        assert estimate.mean == pytest.approx(50.0, rel=0.01)
        assert abs(estimate.mean - rates.mean()) <= 1e-14 * rates.mean()
        two_pass = rates.std(ddof=1) / math.sqrt(len(rates))
        assert abs(estimate.std_error - two_pass) <= 1e-12 * two_pass


class TestModelError:
    """The Gamma fit's shape error, seen where the SNR is high.

    As the SNR grows, C_true - C_Gamma -> Delta_M = (E[ln chi] - psi(k) - ln theta) / ln 2
    for any P_s, phi, zeta and geometry: both capacities tend to E[ln gamma] / ln 2,
    and only E[ln chi] differs between the true law and its fit.  Unlike every
    other check, this one depends on the fit's shape, not only on its two moments.
    """

    def test_frullani_oracle_is_exact_at_one_element(self):
        # chi = (|f||g|)^2 and E[ln |f|^2] = -gamma_E for |f|^2 ~ Exp(1)
        assert abs(e_ln_chi(1) + 2.0 * np.euler_gamma) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_monte_carlo_gap_matches_log_moment_gap(self, default_cfg, m):
        # At 300 dBm the remainder, of order (mean SNR)^-min(k, zeta/2), still
        # moves the M = 1 gap to 1.2614 bits with this seed; at 600 dBm it is below 1e-9.
        cfg = apply_sweep_value(apply_sweep_value(default_cfg, "P_s_dBm", 600.0), "M", m)
        model = build_model(cfg)
        k, theta = model.fit.shape, model.fit.scale
        scale = model.mean_snr / k
        assert scale ** -min(k, model.misalign.zeta / 2.0) < 1e-9
        delta = (e_ln_chi(m) - scipy.special.digamma(k) - math.log(theta)) / math.log(2.0)
        estimate = estimate_ergodic_rate(model, McConfig(trials=1_000_000, seed=7))
        gap = estimate.mean - ergodic_capacity(model, cfg.quad).capacity_bits
        assert abs(gap - delta) <= 4.0 * estimate.std_error
