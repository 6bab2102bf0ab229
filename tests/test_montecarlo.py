import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

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
    estimate_ergodic_rate,
    snr_samples,
)
from thzris.capacity import _snr_coefficient
from thzris.montecarlo import sample_cascade, sample_snr

from oracles import ks_critical, ks_statistic


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
        first = [sample_cascade(4, batch_rng(7, i)) for i in range(5)]
        second = [sample_cascade(4, batch_rng(7, i)) for i in range(5)]
        assert first == second

    def test_nonnegative(self):
        rng = batch_rng(1, 0)
        assert all(sample_cascade(8, rng) >= 0.0 for _ in range(100))

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            sample_cascade(0, batch_rng(1, 0))

    def test_unit_mean_for_single_element(self):
        chi = cascade_samples(1, McConfig(trials=1_000_000, seed=31))
        se = chi.std(ddof=1) / math.sqrt(len(chi))
        assert abs(chi.mean() - 1.0) <= 4.0 * se

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
    """Delegates to a real generator and records each exponential request."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def standard_exponential(self, size):
        self.sizes.append(size)
        return self.rng.standard_exponential(size)


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


class TestSampleSnr:
    def test_zero_amplification(self, default_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ris = replace(default_cfg.ris, beta=0.0)
        model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                          default_cfg.misalign, ris)
        assert all(sample_snr(model, batch_rng(5, i)) == 0.0 for i in range(20))

    def test_deterministic(self, default_model):
        assert sample_snr(default_model, batch_rng(9, 2)) == sample_snr(
            default_model, batch_rng(9, 2)
        )

    def test_perfect_alignment_mean(self, default_model, monkeypatch):
        # pin the misalignment draw at phi; the SNR mean must then be
        # coeff * phi^2 * E[chi]
        phi = default_model.misalign.phi
        monkeypatch.setattr(mc, "_misalignment_batch",
                            lambda p, rng, n: np.full(n, phi))
        gammas = snr_samples(default_model, McConfig(trials=200_000, seed=61))
        moments = cascade_moments(default_model.ris.num_elements)
        expected = _snr_coefficient(default_model) * phi**2 * moments.mean_chi
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
            ris = replace(default_cfg.ris, beta=0.0)
        model = LinkModel(default_cfg.geometry, default_cfg.absorption,
                          default_cfg.misalign, ris)
        estimate = estimate_ergodic_rate(model, McConfig(trials=50_000, seed=1))
        assert estimate.mean == 0.0
        assert estimate.std_error == 0.0
        assert estimate.n == 50_000

    def test_degenerate_model_exact_rate(self, default_model, monkeypatch):
        chi0 = 2.0
        x0 = 0.05
        monkeypatch.setattr(mc, "_chi_batch", lambda m, rng, n: np.full(n, chi0))
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
