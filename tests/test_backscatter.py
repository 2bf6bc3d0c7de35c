"""Gain-switched reflected-jamming link: modulation, calibration, decisions."""

import math

import numpy as np
import pytest
from scipy import stats

from oam_antijam import (
    APPROXIMATE,
    EXACT,
    CalibrationError,
    EnergyThreshold,
    LinkConfig,
    PgaAlphabet,
    Preamble,
    alternating_preamble,
    average_correct_detection,
    build_channel_matrix,
    calibrate_from_preamble,
    calibrate_threshold,
    correct_detection_prob,
    hypothesis_variance,
    mode_index_range,
    mode_link_gains,
    receiver_background_variance,
    simulate_backscatter_bits,
)
from oam_antijam.jamming import RandomStream, complex_gaussian


def normalized_config(**overrides) -> LinkConfig:
    base = dict(samples_per_symbol=16, noise_variance_rx=1.0)
    base.update(overrides)
    return LinkConfig(**base).with_unit_element_gain()


def mode_row(n, mode):
    return mode_index_range(n).index(mode)


def element_level_energies(cfg, channel, mode, bits, alphabet, carrier_variance, rng):
    """Reference synthesis of the reflected link, element by element.

    Maps each gain-scaled carrier symbol onto the N transmit elements with the
    mode's phase ramp, passes it through the M x N channel (H x / sqrt(M)),
    adds i.i.d. receiver noise (floored at 1e-30 W) and direct-path jamming on
    every receive element, recovers the mode by the receive-ramp sum and
    returns one mean energy per symbol.
    """
    bits = np.asarray(bits)
    n, m, k = cfg.n_tx, cfg.n_rx, cfg.samples_per_symbol
    tx_ramp = np.exp(1j * mode * 2 * np.pi * np.arange(n) / n) / np.sqrt(n)
    rx_ramp = np.exp(-1j * mode * 2 * np.pi * np.arange(m) / m)
    carrier = complex_gaussian(rng, (bits.size, k), carrier_variance)
    noise = complex_gaussian(rng, (bits.size, m, k), max(cfg.noise_variance_rx, 1e-30))
    jam = complex_gaussian(rng, (bits.size, m, k), cfg.jam_variance_rx)
    s = np.asarray(alphabet.gains)[bits][:, None] * carrier               # (B, K)
    x = tx_ramp[None, :, None] * s[:, None, :]                            # (B, N, K)
    y = np.einsum("mn,bnk->bmk", channel.gains, x) / np.sqrt(m) + noise + jam
    y_mode = np.einsum("m,bmk->bk", rx_ramp, y)                           # (B, K)
    return np.mean(np.abs(y_mode) ** 2, axis=1)


def run_link(cfg, bits, alphabet=None, threshold=None, carrier_variance=1.0, mode=2,
             seed=0):
    """Decisions and energies of ``bits`` on ``mode``, drawn from stream (seed, 0)."""
    threshold = threshold or EnergyThreshold(q_th=1.0, q0_hat=0.5, q1_hat=2.0)
    return simulate_backscatter_bits(
        cfg, build_channel_matrix(cfg, APPROXIMATE), mode, np.asarray(bits),
        alphabet or PgaAlphabet(), threshold, carrier_variance,
        RandomStream(seed, 0).generator())


class TestAlphabetAndPreamble:
    def test_default_alphabet(self):
        alb = PgaAlphabet()
        assert alb.gains == (0.5, 2.0)
        assert alb.mean_power_gain == pytest.approx(0.5 * 0.25 + 0.5 * 4.0)

    def test_equal_gains_allowed(self):
        assert PgaAlphabet((1.0, 1.0)).gains == (1.0, 1.0)

    def test_decreasing_gains_rejected(self):
        with pytest.raises(ValueError):
            PgaAlphabet((2.0, 0.5))

    def test_bad_priors(self):
        with pytest.raises(ValueError):
            PgaAlphabet((0.5, 2.0), (0.6, 0.6))

    def test_preamble_index_sets(self):
        pre = Preamble((0, 1, 1, 0, 1))
        assert pre.zeros == (0, 3)
        assert pre.ones == (1, 2, 4)

    def test_preamble_needs_both_values(self):
        with pytest.raises(ValueError):
            Preamble((1, 1, 1))

    @pytest.mark.parametrize("bits", [(0.5, 1), (0, 1.9), (0, 1, float("nan")), (0, 2)])
    def test_preamble_bits_must_be_zero_or_one(self, bits):
        # fractional bits used to be truncated: Preamble((0.5, 1)).bits == (0, 1)
        with pytest.raises(ValueError, match="0 or 1"):
            Preamble(bits)

    def test_alternating_preamble_balanced(self):
        pre = alternating_preamble(16)
        assert len(pre.zeros) == len(pre.ones) == 8


class TestPgaModulate:
    def test_gain_levels_applied_per_symbol(self):
        # same draws, only the bits differ; with the receiver floor at 1e-30 W
        # each symbol's energy scales with its squared gain level, (2/0.5)^2
        cfg = normalized_config(noise_variance_rx=1e-30, jam_variance_rx=1e-30)
        bits = np.array([0, 1, 0, 1, 1])
        _, q = run_link(cfg, bits, seed=2)
        _, q_zeros = run_link(cfg, np.zeros(5, dtype=int), seed=2)
        assert np.allclose(q / q_zeros, np.where(bits == 1, 16.0, 1.0), rtol=1e-9, atol=0.0)

    def test_identity_alphabet_passes_through(self):
        cfg = normalized_config()
        alb = PgaAlphabet((1.0, 1.0))
        _, q_zeros = run_link(cfg, [0, 0, 0], alb, seed=3)
        _, q_ones = run_link(cfg, [1, 1, 1], alb, seed=3)
        assert np.array_equal(q_zeros, q_ones)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            run_link(normalized_config(), [0, 1, 0], mode=9)

    @pytest.mark.parametrize("bits", [[-1, 0], [2], [0, 1, 3], [0.9, 1]])
    def test_bits_outside_the_alphabet_rejected_before_any_draw(self, bits):
        cfg = normalized_config()
        rng = RandomStream(21, 0).generator()
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"bits must be integers in 0\.\.1"):
            simulate_backscatter_bits(
                cfg, build_channel_matrix(cfg, APPROXIMATE), 2, np.array(bits),
                PgaAlphabet(), EnergyThreshold(q_th=1.0, q0_hat=0.5, q1_hat=2.0), 1.0, rng)
        assert rng.bit_generator.state == state


class TestReceiverModeEnergy:
    def test_gaussian_moment(self):
        # the mean symbol energy is the per-sample variance of the recovered mode
        cfg = normalized_config()
        kappa = mode_link_gains(cfg)[mode_row(cfg.n_tx, 2)]
        for bit, gain in ((0, 0.5), (1, 2.0)):
            _, q = run_link(cfg, np.full(2000, bit), seed=4)
            expected = hypothesis_variance(cfg, kappa, gain, 1.0)
            assert q.mean() == pytest.approx(expected, rel=0.03)

    @pytest.mark.parametrize("noise_variance, expected", [(0.37, 0.37), (1e-40, 1e-30)])
    def test_receiver_noise_variance_and_floor(self, noise_variance, expected):
        # a zero gain level and negligible jamming leave only the receiver
        # noise, floored at 1e-30 W, summed over the M receive elements
        cfg = normalized_config(noise_variance_rx=noise_variance, jam_variance_rx=1e-45)
        _, q = run_link(cfg, np.zeros(500, dtype=int), PgaAlphabet((0.0, 1.0)), seed=6)
        assert q.mean() == pytest.approx(cfg.n_rx * expected, rel=0.05)


class TestCalibrateThreshold:
    def test_hand_value_two_ln_two(self):
        pre = Preamble((0, 1))
        thr = calibrate_threshold([1.0, 2.0], pre, n_samples=1)
        assert thr.q_th == pytest.approx(2 * math.log(2), rel=1e-12)
        assert (thr.q0_hat, thr.q1_hat) == (1.0, 2.0)

    def test_no_separation_raises(self):
        pre = Preamble((0, 1))
        with pytest.raises(CalibrationError):
            calibrate_threshold([2.0, 2.0], pre, n_samples=4)
        with pytest.raises(CalibrationError):
            calibrate_threshold([3.0, 1.0], pre, n_samples=4)

    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    def test_symmetric_priors_crossing_inside_interval(self, k):
        pre = alternating_preamble(8)
        energies = [1.0, 2.5] * 4
        thr = calibrate_threshold(energies, pre, n_samples=k)
        assert thr.q0_hat < thr.q_th < thr.q1_hat

    def test_verbatim_versus_per_class_means(self):
        pre = Preamble((0, 0, 0, 1))
        energies = [1.0, 1.2, 0.8, 4.0]
        corrected = calibrate_threshold(energies, pre, n_samples=8)
        verbatim = calibrate_threshold(energies, pre, n_samples=8, verbatim_means=True)
        assert corrected.q0_hat == pytest.approx(1.0)
        assert corrected.q1_hat == pytest.approx(4.0)
        assert verbatim.q0_hat == pytest.approx(3.0 / 4.0)
        assert verbatim.q1_hat == pytest.approx(1.0)
        assert corrected.q_th != verbatim.q_th

    @pytest.mark.parametrize("k", [1, 8, 32])
    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.75, 0.25)])
    def test_matches_bisection_likelihood_crossing(self, k, priors):
        # independent oracle: bisect the log-posterior difference of the two
        # Gamma(K, Qhat_b/K) hypotheses
        q0, q1 = 1.3, 3.1
        p0, p1 = priors
        n_pre = int(round(1 / min(p0, p1)))
        bits = [0] * int(round(p0 * n_pre)) + [1] * int(round(p1 * n_pre))
        pre = Preamble(tuple(bits))
        energies = [q0 if b == 0 else q1 for b in bits]
        thr = calibrate_threshold(energies, pre, n_samples=k)

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
        crossing = 0.5 * (lo + hi)
        assert thr.q_th == pytest.approx(crossing, rel=1e-9)


class TestDecideBit:
    def test_rule(self):
        cfg = normalized_config()
        bits = [0, 1] * 4
        _, q = run_link(cfg, bits, seed=9)
        q_th = float(np.sort(q)[3])
        thr = EnergyThreshold(q_th=q_th, q0_hat=0.5 * q_th, q1_hat=2.0 * q_th)
        decided, again = run_link(cfg, bits, threshold=thr, seed=9)
        assert np.array_equal(again, q)
        assert np.array_equal(decided, (q >= q_th).astype(int))
        assert decided[np.argsort(q)[3]] == 1  # boundary inclusive
        assert decided.sum() == 5

    def test_scale_consistency(self):
        # scaling every power by the same factor scales the energies and
        # leaves the decisions against a scaled threshold unchanged
        bits = [0, 1] * 25
        thr = EnergyThreshold(q_th=40.0, q0_hat=20.0, q1_hat=80.0)
        decided, q = run_link(normalized_config(), bits, threshold=thr, seed=10)
        assert 0 < decided.sum() < len(bits)
        for scale in (0.25, 7.0):
            cfg = normalized_config(noise_variance_rx=scale, jam_variance_rx=0.1 * scale)
            scaled = EnergyThreshold(q_th=40.0 * scale, q0_hat=20.0 * scale,
                                     q1_hat=80.0 * scale)
            d, qs = run_link(cfg, bits, threshold=scaled, carrier_variance=scale, seed=10)
            assert np.allclose(qs, q * scale, rtol=1e-12, atol=0.0)
            assert np.array_equal(d, decided)


class TestChiSquare:
    """2*K*Q/sigma2 ~ chi-square(2K): P[Q < q] from ``correct_detection_prob`` at bit 0."""

    def test_at_origin(self):
        assert correct_detection_prob(0.0, 8, 1.0, true_bit=0) == 0.0

    def test_two_dof_closed_form(self):
        # K = 1: Q is exponential with mean sigma2
        for q, sigma2 in ((0.5, 2.0), (2.0, 2.0), (7.0, 2.0), (1.0, 0.3)):
            assert correct_detection_prob(q, 1, sigma2, 0) == pytest.approx(
                1 - math.exp(-q / sigma2), abs=1e-12)

    def test_median_against_wilson_hilferty(self):
        k = 8
        dof = 2 * k
        lo, hi = 0.0, 100.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            # at sigma2 = 2K the statistic 2*K*Q/sigma2 is Q itself
            if correct_detection_prob(mid, k, float(dof), 0) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        approx = dof * (1 - 2 / (9 * dof)) ** 3
        assert median == pytest.approx(approx, rel=0.01)


class TestCorrectDetection:
    def test_zero_threshold_always_detects_one(self):
        assert correct_detection_prob(0.0, 16, 1.0, true_bit=1) == 1.0

    def test_huge_threshold_always_detects_zero(self):
        assert correct_detection_prob(1e9, 16, 1.0, true_bit=0) == pytest.approx(1.0)

    def test_prior_average(self):
        q, k = 1.2, 8
        avg = average_correct_detection(q, k, 1.0, 3.0, (0.25, 0.75))
        expected = (0.25 * correct_detection_prob(q, k, 1.0, 0)
                    + 0.75 * correct_detection_prob(q, k, 3.0, 1))
        assert avg == pytest.approx(expected)


class TestEndToEnd:
    def test_noiseless_perfect_separation(self):
        cfg = normalized_config(noise_variance_rx=1e-30, jam_variance_rx=1e-30)
        ch = build_channel_matrix(cfg, APPROXIMATE)
        alb = PgaAlphabet((0.0, 1.0))
        kappa = mode_link_gains(cfg, ch)[mode_row(cfg.n_tx, 1)]
        # zero-gain symbols sit at the 1e-30 noise floor while the carrier's
        # own energy fluctuation keeps bit-1 energies many decades above any
        # threshold placed deep inside the gap
        thr = EnergyThreshold(q_th=1e-6 * abs(kappa) ** 2, q0_hat=1e-6,
                              q1_hat=abs(kappa) ** 2)
        rng = RandomStream(15, 0).generator()
        bits = (rng.random(300) < 0.5).astype(int)
        decided, _ = simulate_backscatter_bits(cfg, ch, 1, bits, alb, thr, 1.0, rng)
        assert np.array_equal(decided, bits)

    def test_equal_gains_give_half_error_rate(self):
        cfg = normalized_config()
        ch = build_channel_matrix(cfg, APPROXIMATE)
        alb = PgaAlphabet((1.0, 1.0))
        thr = EnergyThreshold(q_th=receiver_background_variance(cfg), q0_hat=1.0,
                              q1_hat=2.0)
        rng = RandomStream(16, 0).generator()
        bits = (rng.random(4000) < 0.5).astype(int)
        decided, _ = simulate_backscatter_bits(cfg, ch, 2, bits, alb, thr, 1.0, rng)
        assert np.mean(decided != bits) == pytest.approx(0.5, abs=0.03)

    def test_single_symbol_matches_batch_path(self):
        cfg = normalized_config()
        alb = PgaAlphabet()
        thr = EnergyThreshold(q_th=5.0, q0_hat=1.0, q1_hat=9.0)
        bits = np.array([1, 0, 1])
        decided, q = run_link(cfg, bits, alb, thr, mode=3, seed=17)
        # replay the batch path's draws from a twin generator: the carrier,
        # then the recovered mode's background, M * (noise + jamming) per sample
        twin = RandomStream(17, 0).generator()
        b, k = bits.size, cfg.samples_per_symbol
        carrier = complex_gaussian(twin, (b, k), 1.0)
        background = complex_gaussian(
            twin, (b, k), cfg.n_rx * (cfg.noise_variance_rx + cfg.jam_variance_rx))
        # independent synthesis, one symbol at a time
        kappa = mode_link_gains(cfg)[mode_row(cfg.n_tx, 3)]
        for i, bit in enumerate(bits):
            y = kappa * alb.gains[bit] * carrier[i] + background[i]
            q_expected = float(np.mean(np.abs(y) ** 2))
            assert q[i] == pytest.approx(q_expected, rel=1e-9)
            assert decided[i] == (1 if q[i] >= 5.0 else 0)

    def test_empirical_error_rate_matches_analytic(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        ch = build_channel_matrix(cfg, APPROXIMATE)
        alb = PgaAlphabet()
        mode = 3
        rng = RandomStream(18, 0).generator()
        thr = calibrate_from_preamble(cfg, ch, mode, alternating_preamble(32), alb,
                                      1.0, rng)
        bits = (rng.random(40_000) < 0.5).astype(int)
        decided, _ = simulate_backscatter_bits(cfg, ch, mode, bits, alb, thr, 1.0, rng)
        ber = float(np.mean(decided != bits))
        kappa = mode_link_gains(cfg, ch)[mode_row(cfg.n_tx, mode)]
        s2k0 = hypothesis_variance(cfg, kappa, 0.5, 1.0)
        s2k1 = hypothesis_variance(cfg, kappa, 2.0, 1.0)
        analytic = 1.0 - average_correct_detection(thr.q_th, cfg.samples_per_symbol,
                                                   s2k0, s2k1)
        assert ber == pytest.approx(analytic, abs=0.01)

    def test_error_rate_monotone_in_gain_ratio(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        ch = build_channel_matrix(cfg, APPROXIMATE)
        mode = 3
        bers = []
        for ratio in (2.0, 4.0, 8.0):
            alb = PgaAlphabet((0.5, 0.5 * ratio))
            rng = RandomStream(19, int(ratio)).generator()
            thr = calibrate_from_preamble(cfg, ch, mode, alternating_preamble(32),
                                          alb, 1.0, rng)
            bits = (rng.random(10_000) < 0.5).astype(int)
            decided, _ = simulate_backscatter_bits(cfg, ch, mode, bits, alb, thr,
                                                   1.0, rng)
            bers.append(float(np.mean(decided != bits)))
        assert all(b <= a for a, b in zip(bers, bers[1:]))

    def test_error_rate_stable_across_seeds(self):
        cfg = normalized_config(noise_variance_rx=10.0)
        ch = build_channel_matrix(cfg, APPROXIMATE)
        alb = PgaAlphabet()
        mode = 2
        n_bits = 2000
        rates = []
        for seed in range(10):
            rng = RandomStream(700 + seed, 0).generator()
            thr = calibrate_from_preamble(cfg, ch, mode, alternating_preamble(32),
                                          alb, 1.0, rng)
            bits = (rng.random(n_bits) < 0.5).astype(int)
            decided, _ = simulate_backscatter_bits(cfg, ch, mode, bits, alb, thr,
                                                   1.0, rng)
            rates.append(float(np.mean(decided != bits)))
        pooled = float(np.mean(rates))
        stderr = math.sqrt(max(pooled * (1 - pooled), 1e-9) / n_bits)
        # calibration varies per seed too, so allow a small extra margin
        assert all(abs(r - pooled) <= 3 * stderr + 0.01 for r in rates)


class TestModeDomainAgainstElementLevel:
    """The mode-domain draw matches the element-level oracle in distribution."""

    SYMBOLS = 2000

    @pytest.mark.parametrize("n, m, k, noise, jam, gains, variant", [
        (16, 16, 1, 1.0, 0.1, (0.5, 2.0), APPROXIMATE),
        (16, 16, 4, 100.0, 0.1, (0.0, 1.0), APPROXIMATE),
        (16, 16, 16, 1e-30, 1e-30, (0.0, 2.0), APPROXIMATE),
        (16, 16, 4, 0.37, 0.1, (0.5, 2.0), EXACT),
        (5, 5, 16, 1e-30, 0.1, (0.0, 1.0), EXACT),
        (8, 12, 4, 1.0, 0.1, (0.5, 2.0), APPROXIMATE),
        (8, 12, 16, 100.0, 1e-30, (0.0, 3.0), EXACT),
        (8, 12, 1, 1e-30, 0.1, (0.5, 2.0), EXACT),
    ])
    def test_energies_agree_per_gain_level(self, n, m, k, noise, jam, gains, variant):
        cfg = normalized_config(n_tx=n, n_rx=m, samples_per_symbol=k,
                                noise_variance_rx=noise, jam_variance_rx=jam)
        channel = build_channel_matrix(cfg, variant)
        alb = PgaAlphabet(gains)
        mode = 2
        kappa = mode_link_gains(cfg, channel)[mode_row(n, mode)]
        thr = EnergyThreshold(q_th=1.0, q0_hat=0.5, q1_hat=2.0)
        for bit, gain in enumerate(gains):
            bits = np.full(self.SYMBOLS, bit)
            rng = RandomStream(31, (n, m, k, bit)).generator()
            _, fast = simulate_backscatter_bits(cfg, channel, mode, bits, alb, thr, 1.0, rng)
            oracle = element_level_energies(
                cfg, channel, mode, bits, alb, 1.0, RandomStream(32, (n, m, k, bit)).generator())
            # K-sample mean energy: mean sigma2, standard deviation sigma2 / sqrt(K)
            sigma2 = hypothesis_variance(cfg, kappa, gain, 1.0)
            stderr = sigma2 / math.sqrt(k * self.SYMBOLS)
            for energies in (fast, oracle):
                assert abs(energies.mean() - sigma2) <= 5 * stderr
            assert stats.ks_2samp(fast, oracle).pvalue > 1e-3
