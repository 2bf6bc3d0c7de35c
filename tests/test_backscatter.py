"""Gain-switched reflected-jamming link: modulation, calibration, decisions."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from oam_antijam import backscatter, metrics
from oam_antijam import (
    LinkConfig,
    Scenario,
    SweepAxes,
    SweepOptions,
    average_correct_detection,
    build_channel_matrix,
    calibrate_from_preamble,
    calibrate_threshold,
    gamma_cdf,
    hypothesis_variance,
    mode_index_range,
    mode_link_gains,
    mode_snr,
    receiver_background_variance,
    run_sweep,
    simulate_backscatter_bits,
)
from oam_antijam.jamming import complex_gaussian, substream
from oracles import exact_channel_matrix, row_and_matrix

DEFAULT_GAINS = (0.5, 2.0)


def normalized_config(**overrides) -> LinkConfig:
    base = dict(samples_per_symbol=16, noise_variance_rx=1.0)
    base.update(overrides)
    return LinkConfig(**base)


def mode_row(n, mode):
    return mode_index_range(n).index(mode)


def link_gain(cfg, mode, channel=None):
    """kappa of ``mode``, as the sweep takes it from ``mode_link_gains``."""
    return mode_link_gains(cfg, channel)[mode_row(cfg.n_tx, mode)]


def alternating(length):
    return np.arange(length) % 2


def element_level_energies(cfg, channel, mode, bits, gains, carrier_variance, rng):
    """Reference synthesis of the reflected link, element by element.

    Maps each gain-scaled carrier symbol onto the N transmit elements with the
    mode's phase ramp, passes it through the N x N channel (H x / sqrt(N)),
    adds i.i.d. receiver noise (floored at 1e-30 W) and direct-path jamming on
    every receive element, recovers the mode by the receive-ramp sum and
    returns one mean energy per symbol.
    """
    bits = np.asarray(bits)
    n, k = cfg.n_tx, cfg.samples_per_symbol
    tx_ramp = np.exp(1j * mode * 2 * np.pi * np.arange(n) / n) / np.sqrt(n)
    rx_ramp = np.exp(-1j * mode * 2 * np.pi * np.arange(n) / n)
    carrier = complex_gaussian(rng, (bits.size, k), carrier_variance)
    noise = complex_gaussian(rng, (bits.size, n, k), max(cfg.noise_variance_rx, 1e-30))
    jam = complex_gaussian(rng, (bits.size, n, k), cfg.jam_variance_rx)
    s = np.asarray(gains)[bits][:, None] * carrier                        # (B, K)
    x = tx_ramp[None, :, None] * s[:, None, :]                            # (B, N, K)
    y = np.einsum("mn,bnk->bmk", channel, x) / np.sqrt(n) + noise + jam
    y_mode = np.einsum("m,bmk->bk", rx_ramp, y)                           # (B, K)
    return np.mean(np.abs(y_mode) ** 2, axis=1)


def run_link(cfg, bits, gains=DEFAULT_GAINS, carrier_variance=1.0, mode=2, seed=0):
    """Energies of ``bits`` on ``mode``, drawn from stream (seed, 0)."""
    return simulate_backscatter_bits(cfg, link_gain(cfg, mode), gains, np.asarray(bits),
                                     carrier_variance, substream(seed, 0))


def likelihood_crossing(q0, q1, p0, p1, k):
    """Bisection oracle: where the log-posteriors of Gamma(K, Qhat_b/K) cross."""
    def log_diff(q):
        ll0 = math.log(p0) - k * math.log(q0) - q * k / q0
        ll1 = math.log(p1) - k * math.log(q1) - q * k / q1
        return ll0 - ll1

    lo, hi = 1e-9, 50.0
    assert log_diff(lo) > 0 > log_diff(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAlphabetAndPreamble:
    def test_default_alphabet(self):
        cfg = LinkConfig()
        assert cfg.pga_gains == DEFAULT_GAINS
        assert cfg.pga_priors == (0.5, 0.5)
        # a flagged mode at p_j = p_c = 1 carries the mean PGA power gain
        flagged = np.arange(cfg.n_tx) == 0
        kappas = mode_link_gains(cfg)
        gamma = mode_snr(cfg, flagged, kappas, 1.0, p_j=1.0, p_u=0.0)[0]
        mean_power_gain = gamma * receiver_background_variance(cfg) / abs(kappas[0]) ** 2
        assert mean_power_gain == pytest.approx(0.5 * 0.25 + 0.5 * 4.0, rel=1e-12)

    def test_preamble_index_sets(self):
        # zeros at 0, 3 and ones at 1, 2, 4: Qhat0 = 1.5, Qhat1 = 4, priors 2/5, 3/5
        q_th = calibrate_threshold([1.0, 3.0, 5.0, 2.0, 4.0], (0, 1, 1, 0, 1), n_samples=4)
        assert q_th == pytest.approx(likelihood_crossing(1.5, 4.0, 0.4, 0.6, 4), rel=1e-9)

    def test_preamble_needs_both_values(self):
        with pytest.raises(ValueError, match="both bit values"):
            calibrate_threshold([1.0, 2.0, 3.0], (1, 1, 1), n_samples=4)

    @pytest.mark.parametrize("bits", [(0.5, 1), (0, 1.9), (0, 1, float("nan")), (0, 2)])
    def test_preamble_bits_must_be_zero_or_one(self, bits):
        # fractional bits used to be truncated: (0.5, 1) was read as (0, 1)
        with pytest.raises(ValueError, match="0 or 1"):
            calibrate_threshold(np.arange(1.0, len(bits) + 1), bits, n_samples=4)

    def test_alternating_preamble_balanced(self, monkeypatch):
        # the sweep calibrates every mode of every point once, on 0101...; the bits
        # reach the link draw as its 4th positional argument
        preambles = []
        draw = backscatter.simulate_backscatter_bits

        def record(*args):
            preambles.append(np.array(args[3]))
            return draw(*args)

        monkeypatch.setattr(backscatter, "simulate_backscatter_bits", record)
        cfg = LinkConfig(preamble_length=7)
        axes = SweepAxes(snr_db=(0.0, 10.0), n_jammed=(2,), n_elements=(8,))
        run_sweep(Scenario(cfg, axes, SweepOptions(ber_trials=0), trials=4, seed=1))
        assert len(preambles) == 2 * 8
        for bits in preambles:
            assert bits.tolist() == [0, 1, 0, 1, 0, 1, 0]


class TestPgaModulate:
    def test_gain_levels_applied_per_symbol(self):
        # same draws, only the bits differ; with the receiver floor at 1e-30 W
        # each symbol's energy scales with its squared gain level, (2/0.5)^2
        cfg = normalized_config(noise_variance_rx=1e-30, jam_variance_rx=1e-30)
        bits = np.array([0, 1, 0, 1, 1])
        q = run_link(cfg, bits, seed=2)
        q_zeros = run_link(cfg, np.zeros(5, dtype=int), seed=2)
        assert np.allclose(q / q_zeros, np.where(bits == 1, 16.0, 1.0), rtol=1e-9, atol=0.0)

    def test_identity_alphabet_passes_through(self):
        cfg = normalized_config()
        q_zeros = run_link(cfg, [0, 0, 0], (1.0, 1.0), seed=3)
        q_ones = run_link(cfg, [1, 1, 1], (1.0, 1.0), seed=3)
        assert np.array_equal(q_zeros, q_ones)

    @pytest.mark.parametrize("bits", [[-1, 0], [2], [0, 1, 3], [0.9, 1]])
    def test_bits_outside_the_alphabet_rejected_before_any_draw(self, bits):
        cfg = normalized_config()
        rng = substream(21, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"bits must be integers in 0\.\.1"):
            simulate_backscatter_bits(cfg, link_gain(cfg, 2), DEFAULT_GAINS,
                                      np.array(bits), 1.0, rng)
        assert rng.bit_generator.state == state

    def test_memory_stays_bounded_by_the_symbol_chunk(self):
        # unchunked, the carrier and background draws of 100 000 symbols at
        # K = 64 take several hundred MB; per chunk they take a few MB
        cfg = normalized_config(samples_per_symbol=64)
        bits = alternating(100_000)
        tracemalloc.start()
        try:
            run_link(cfg, bits, seed=22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestReceiverModeEnergy:
    def test_gaussian_moment(self):
        # the mean symbol energy is the per-sample variance of the recovered mode
        cfg = normalized_config()
        kappa = link_gain(cfg, 2)
        for bit, gain in ((0, 0.5), (1, 2.0)):
            q = run_link(cfg, np.full(2000, bit), seed=4)
            expected = hypothesis_variance(cfg, kappa, gain, 1.0)
            assert q.mean() == pytest.approx(expected, rel=0.03)

    @pytest.mark.parametrize("noise_variance, expected", [(0.37, 0.37), (1e-40, 1e-30)])
    def test_receiver_noise_variance_and_floor(self, noise_variance, expected):
        # a zero gain level and negligible jamming leave only the receiver
        # noise, floored at 1e-30 W, summed over the N receive elements
        cfg = normalized_config(noise_variance_rx=noise_variance, jam_variance_rx=1e-45)
        q = run_link(cfg, np.zeros(500, dtype=int), (0.0, 1.0), seed=6)
        assert q.mean() == pytest.approx(cfg.n_tx * expected, rel=0.05)


class TestCalibrateThreshold:
    def test_hand_value_two_ln_two(self):
        q_th = calibrate_threshold([1.0, 2.0], (0, 1), n_samples=1)
        assert q_th == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_no_separation_returns_preamble_mean(self):
        # equal or inverted level means have no crossing: the threshold is the mean
        # energy of the whole preamble
        assert calibrate_threshold([2.0, 2.0], (0, 1), n_samples=4) == 2.0
        assert calibrate_threshold([3.0, 1.0], (0, 1), n_samples=4) == 2.0

    def test_one_energy_per_preamble_bit(self):
        with pytest.raises(ValueError, match="one energy per preamble symbol"):
            calibrate_threshold([1.0, 2.0, 3.0], (0, 1), n_samples=4)

    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    def test_symmetric_priors_crossing_inside_interval(self, k):
        energies = [1.0, 2.5] * 4
        q_th = calibrate_threshold(energies, alternating(8), n_samples=k)
        assert 1.0 < q_th < 2.5

    def test_verbatim_versus_per_class_means(self):
        # the level energies are per-class means, not sums over the whole preamble
        bits = (0, 0, 0, 1)
        energies = [1.0, 1.2, 0.8, 4.0]
        q_th = calibrate_threshold(energies, bits, n_samples=8)
        # per class: Qhat0 = 3.0 / 3, Qhat1 = 4.0 / 1; over the preamble: 3/4 and 1
        assert q_th == pytest.approx(likelihood_crossing(1.0, 4.0, 0.75, 0.25, 8), rel=1e-9)
        assert q_th != pytest.approx(
            likelihood_crossing(3.0 / 4.0, 1.0, 0.75, 0.25, 8), rel=1e-3)

    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.75, 0.25)])
    def test_matches_bisection_likelihood_crossing(self, k, priors):
        # independent oracle: bisect the log-posterior difference of the two
        # Gamma(K, Qhat_b/K) hypotheses
        q0, q1 = 1.3, 3.1
        p0, p1 = priors
        n_pre = int(round(1 / min(p0, p1)))
        bits = [0] * int(round(p0 * n_pre)) + [1] * int(round(p1 * n_pre))
        energies = [q0 if b == 0 else q1 for b in bits]
        q_th = calibrate_threshold(energies, bits, n_samples=k)
        assert q_th == pytest.approx(likelihood_crossing(q0, q1, p0, p1, k), rel=1e-9)


class TestDecideBit:
    def test_rule(self):
        # the BER probe decides bit 1 at energies >= q_th, boundary inclusive:
        # replay its bit and energy draws, put q_th on the 4th-lowest energy
        cfg = normalized_config()
        kappas = mode_link_gains(cfg)
        idx = mode_row(cfg.n_tx, 2)
        options = SweepOptions(ber_trials=1, ber_symbols=8)
        twin = substream(9, 0)
        bits = (twin.random(8) < cfg.pga_priors[-1]).astype(int)
        q = simulate_backscatter_bits(cfg, kappas[idx], cfg.pga_gains, bits, 1.0, twin)
        q_th = np.full(cfg.n_tx, np.sort(q)[3])
        decided = (q >= q_th[idx]).astype(int)
        assert decided[np.argsort(q)[3]] == 1
        assert decided.sum() == 5
        ber = metrics._measure_ber(cfg, kappas, q_th, 1.0, np.array([[idx]]),
                                   substream(9, 0), options)
        assert ber == np.mean(decided != bits)

    def test_batched_probe_pairs_each_symbol_with_its_modes_threshold(self):
        # mode 1 always decides 1 (q_th 0) and mode 5 always 0 (q_th inf), so the
        # errors are the 0 bits sent on mode 1 and the 1 bits sent on mode 5; the
        # symbols run trial by trial, mode by mode, ber_symbols at a time, and a
        # repeat/tile mix-up would pair them with the other mode's threshold
        cfg = normalized_config()
        options = SweepOptions(ber_trials=4, ber_symbols=6)
        q_th = np.ones(cfg.n_tx)
        q_th[1], q_th[5] = 0.0, np.inf
        jam_sets = np.array([[1, 5], [5, 1], [5, 1], [1, 5], [1, 5]])
        twin = substream(4, 0)
        bits = twin.random(4 * 2 * 6) < cfg.pga_priors[-1]
        modes = [m for row in jam_sets[:4] for m in row for _ in range(6)]
        errors = sum(bit != (mode == 1) for bit, mode in zip(bits, modes))
        assert 0 < errors < len(bits)
        ber = metrics._measure_ber(cfg, mode_link_gains(cfg), q_th, 1.0, jam_sets,
                                   substream(4, 0), options)
        assert ber == errors / len(bits)

    def test_scale_consistency(self):
        # scaling every power by the same factor scales the energies and
        # leaves the decisions against a scaled threshold unchanged
        bits = [0, 1] * 25
        q = run_link(normalized_config(), bits, seed=10)
        decided = q >= 40.0
        assert 0 < decided.sum() < len(bits)
        for scale in (0.25, 7.0):
            cfg = normalized_config(noise_variance_rx=scale, jam_variance_rx=0.1 * scale)
            qs = run_link(cfg, bits, carrier_variance=scale, seed=10)
            assert np.allclose(qs, q * scale, rtol=1e-12, atol=0.0)
            assert np.array_equal(qs >= 40.0 * scale, decided)


class TestChiSquare:
    """2*K*Q/sigma2 ~ chi-square(2K): P[Q < q] is the bit-0 ``average_correct_detection``."""

    def test_at_origin(self):
        assert average_correct_detection(0.0, 8, 1.0, 1.0, (1.0, 0.0)) == 0.0

    def test_two_dof_closed_form(self):
        # K = 1: Q is exponential with mean sigma2
        for q, sigma2 in ((0.5, 2.0), (2.0, 2.0), (7.0, 2.0), (1.0, 0.3)):
            below = average_correct_detection(q, 1, sigma2, sigma2, (1.0, 0.0))
            assert below == pytest.approx(1 - math.exp(-q / sigma2), abs=1e-12)

    def test_median_against_wilson_hilferty(self):
        k = 8
        dof = 2 * k
        lo, hi = 0.0, 100.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            # at sigma2 = 2K the statistic 2*K*Q/sigma2 is Q itself
            if average_correct_detection(mid, k, float(dof), float(dof), (1.0, 0.0)) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        approx = dof * (1 - 2 / (9 * dof)) ** 3
        assert median == pytest.approx(approx, rel=0.01)


class TestCorrectDetection:
    def test_zero_threshold_always_detects_one(self):
        assert average_correct_detection(0.0, 16, 1.0, 1.0, (0.0, 1.0)) == 1.0

    def test_huge_threshold_always_detects_zero(self):
        assert average_correct_detection(1e9, 16, 1.0, 1.0, (1.0, 0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("variances", [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)])
    def test_non_positive_variance_rejected(self, variances):
        with pytest.raises(ValueError, match="hypothesis variances must be positive"):
            average_correct_detection(0.5, 8, *variances)

    def test_prior_average(self):
        q, k = 1.2, 8
        avg = average_correct_detection(q, k, 1.0, 3.0, (0.25, 0.75))
        expected = 0.25 * gamma_cdf(q, k, 1.0 / k) + 0.75 * (1.0 - gamma_cdf(q, k, 3.0 / k))
        assert avg == pytest.approx(expected)


class TestEndToEnd:
    def test_noiseless_perfect_separation(self):
        cfg = normalized_config(noise_variance_rx=1e-30, jam_variance_rx=1e-30)
        kappa = link_gain(cfg, 1)
        # zero-gain symbols sit at the 1e-30 noise floor while the carrier's
        # own energy fluctuation keeps bit-1 energies many decades above any
        # threshold placed deep inside the gap
        q_th = 1e-6 * abs(kappa) ** 2
        rng = substream(15, 0)
        bits = (rng.random(300) < 0.5).astype(int)
        q = simulate_backscatter_bits(cfg, kappa, (0.0, 1.0), bits, 1.0, rng)
        assert np.array_equal(q >= q_th, bits)

    def test_equal_gains_give_half_error_rate(self):
        cfg = normalized_config()
        q_th = receiver_background_variance(cfg)
        rng = substream(16, 0)
        bits = (rng.random(4000) < 0.5).astype(int)
        q = simulate_backscatter_bits(cfg, link_gain(cfg, 2), (1.0, 1.0), bits, 1.0, rng)
        assert np.mean((q >= q_th) != bits) == pytest.approx(0.5, abs=0.03)

    def test_single_symbol_matches_batch_path(self):
        cfg = normalized_config()
        bits = np.array([1, 0, 1])
        q = run_link(cfg, bits, mode=3, seed=17)
        # replay the batch path's draws from a twin generator: the carrier,
        # then the recovered mode's background, N * (noise + jamming) per sample
        twin = substream(17, 0)
        b, k = bits.size, cfg.samples_per_symbol
        carrier = complex_gaussian(twin, (b, k), 1.0)
        background = complex_gaussian(
            twin, (b, k), cfg.n_tx * (cfg.noise_variance_rx + cfg.jam_variance_rx))
        # independent synthesis, one symbol at a time
        kappa = link_gain(cfg, 3)
        for i, bit in enumerate(bits):
            y = kappa * DEFAULT_GAINS[bit] * carrier[i] + background[i]
            q_expected = float(np.mean(np.abs(y) ** 2))
            assert q[i] == pytest.approx(q_expected, rel=1e-9)

    def test_empirical_error_rate_matches_analytic(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        kappa = link_gain(cfg, 3)
        rng = substream(18, 0)
        q_th = calibrate_from_preamble(replace(cfg, preamble_length=32), kappa, 1.0, rng)
        bits = (rng.random(40_000) < 0.5).astype(int)
        q = simulate_backscatter_bits(cfg, kappa, DEFAULT_GAINS, bits, 1.0, rng)
        ber = float(np.mean((q >= q_th) != bits))
        s2k0 = hypothesis_variance(cfg, kappa, 0.5, 1.0)
        s2k1 = hypothesis_variance(cfg, kappa, 2.0, 1.0)
        analytic = 1.0 - average_correct_detection(q_th, cfg.samples_per_symbol,
                                                   s2k0, s2k1)
        assert ber == pytest.approx(analytic, abs=0.01)

    def test_error_rate_monotone_in_gain_ratio(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        kappa = link_gain(cfg, 3)
        bers = []
        for ratio in (2.0, 4.0, 8.0):
            gains = (0.5, 0.5 * ratio)
            rng = substream(19, int(ratio))
            q_th = calibrate_from_preamble(replace(cfg, pga_gains=gains, preamble_length=32),
                                           kappa, 1.0, rng)
            bits = (rng.random(10_000) < 0.5).astype(int)
            q = simulate_backscatter_bits(cfg, kappa, gains, bits, 1.0, rng)
            bers.append(float(np.mean((q >= q_th) != bits)))
        assert all(b <= a for a, b in zip(bers, bers[1:]))

    def test_error_rate_stable_across_seeds(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        kappa = link_gain(cfg, 2)
        n_bits = 2000
        rates = []
        for seed in range(10):
            rng = substream(700 + seed, 0)
            q_th = calibrate_from_preamble(replace(cfg, preamble_length=32), kappa, 1.0, rng)
            bits = (rng.random(n_bits) < 0.5).astype(int)
            q = simulate_backscatter_bits(cfg, kappa, DEFAULT_GAINS, bits, 1.0, rng)
            rates.append(float(np.mean((q >= q_th) != bits)))
        pooled = float(np.mean(rates))
        stderr = math.sqrt(max(pooled * (1 - pooled), 1e-9) / n_bits)
        # calibration varies per seed too, so allow a small extra margin
        assert all(abs(r - pooled) <= 3 * stderr + 0.01 for r in rates)


class TestCalibrationAtCriterion07:
    """The deep-noise link of acceptance criterion 07: K = 16, 100 W noise, mode 3.

    There sigma2_1 / sigma2_0 is only 1.106, and the 16-symbol preamble leaves
    Qhat1 <= Qhat0 for about a fifth of the seeds.
    """

    CFG = normalized_config(noise_variance_rx=100.0)

    def test_threshold_is_measured_at_every_seed(self):
        cfg, bits = self.CFG, alternating(self.CFG.preamble_length)
        kappa = link_gain(cfg, 3)
        unseparated = 0
        for seed in range(2000):
            q_th = calibrate_from_preamble(cfg, kappa, 1.0, substream(seed, 0))
            assert math.isfinite(q_th) and q_th > 0.0, f"seed {seed}: q_th {q_th}"
            # replay the preamble: without separation q_th is its mean energy
            q = simulate_backscatter_bits(cfg, kappa, cfg.pga_gains, bits, 1.0,
                                          substream(seed, 0))
            if q[bits == 1].mean() <= q[bits == 0].mean():
                unseparated += 1
                assert q_th == q.mean()
        assert 200 < unseparated < 600

    def test_error_rate_matches_analytic_at_every_seed_base(self):
        cfg = self.CFG
        kappa = link_gain(cfg, 3)
        s2k0 = hypothesis_variance(cfg, kappa, 0.5, 1.0)
        s2k1 = hypothesis_variance(cfg, kappa, 2.0, 1.0)
        for base in range(20):
            rng = substream(base, 0)
            q_th = calibrate_from_preamble(cfg, kappa, 1.0, rng)
            bits = (rng.random(100_000) < 0.5).astype(int)
            q = simulate_backscatter_bits(cfg, kappa, cfg.pga_gains, bits, 1.0, rng)
            ber = float(np.mean((q >= q_th) != bits))
            analytic = 1.0 - average_correct_detection(q_th, cfg.samples_per_symbol,
                                                       s2k0, s2k1)
            assert abs(ber - analytic) <= 0.01, f"base {base}: {ber} vs {analytic}"


class TestModeDomainAgainstElementLevel:
    """The mode-domain draw matches the element-level oracle in distribution."""

    SYMBOLS = 2000

    @pytest.mark.parametrize("n, m, k, noise, jam, gains, build", [
        (16, 16, 1, 1.0, 0.1, (0.5, 2.0), build_channel_matrix),
        (16, 16, 4, 100.0, 0.1, (0.0, 1.0), build_channel_matrix),
        (16, 16, 16, 1e-30, 1e-30, (0.0, 2.0), build_channel_matrix),
        (16, 16, 4, 0.37, 0.1, (0.5, 2.0), exact_channel_matrix),
        (5, 5, 16, 1e-30, 0.1, (0.0, 1.0), exact_channel_matrix),
    ])
    def test_energies_agree_per_gain_level(self, n, m, k, noise, jam, gains, build):
        # m, the receive ring size, equals n; it stays in the ids and stream keys
        cfg = normalized_config(n_tx=n, samples_per_symbol=k,
                                noise_variance_rx=noise, jam_variance_rx=jam)
        row, channel = row_and_matrix(build(cfg))
        mode = 2
        kappa = link_gain(cfg, mode, row)
        for bit, gain in enumerate(gains):
            bits = np.full(self.SYMBOLS, bit)
            rng = substream(31, n, m, k, bit)
            fast = simulate_backscatter_bits(cfg, kappa, gains, bits, 1.0, rng)
            oracle = element_level_energies(
                cfg, channel, mode, bits, gains, 1.0, substream(32, n, m, k, bit))
            # K-sample mean energy: mean sigma2, standard deviation sigma2 / sqrt(K)
            sigma2 = hypothesis_variance(cfg, kappa, gain, 1.0)
            stderr = sigma2 / math.sqrt(k * self.SYMBOLS)
            for energies in (fast, oracle):
                assert abs(energies.mean() - sigma2) <= 5 * stderr
            assert stats.ks_2samp(fast, oracle).pvalue > 1e-3
