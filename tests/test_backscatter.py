"""Gain-switched reflected-jamming link: modulation, calibration, decisions."""

import math

import numpy as np
import pytest

from oam_antijam import (
    APPROXIMATE,
    CalibrationError,
    EnergyThreshold,
    LinkConfig,
    MODE,
    PgaAlphabet,
    Preamble,
    SampleBlock,
    alternating_preamble,
    average_correct_detection,
    build_channel_matrix,
    calibrate_from_preamble,
    calibrate_threshold,
    chi_square_cdf,
    correct_detection_prob,
    decide_bit,
    hypothesis_variance,
    mode_index_range,
    mode_link_gains,
    pga_modulate,
    receiver_background_variance,
    receiver_mode_energy,
    run_backscatter_symbol,
    simulate_backscatter_bits,
)
from oam_antijam.jamming import RandomStream, complex_gaussian


def normalized_config(**overrides) -> LinkConfig:
    base = dict(samples_per_symbol=16, noise_variance_rx=1.0)
    base.update(overrides)
    return LinkConfig(**base).with_unit_element_gain()


def mode_row(n, mode):
    return mode_index_range(n).index(mode)


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

    def test_alternating_preamble_balanced(self):
        pre = alternating_preamble(16)
        assert len(pre.zeros) == len(pre.ones) == 8


class TestPgaModulate:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.n = 8
        self.samples = rng.normal(size=(self.n, 12)) + 1j * rng.normal(size=(self.n, 12))
        self.block = SampleBlock(self.samples, domain=MODE)

    def test_gain_levels_applied_per_symbol(self):
        out = pga_modulate(self.block, [0, 1, 0], PgaAlphabet(), mode=2)
        row = mode_row(self.n, 2)
        expected = self.samples[row] * np.repeat([0.5, 2.0, 0.5], 4)
        assert np.allclose(out.samples[row], expected)
        others = np.delete(np.arange(self.n), row)
        assert np.allclose(out.samples[others], self.samples[others])

    def test_identity_alphabet_passes_through(self):
        out = pga_modulate(self.block, [1, 0, 1], PgaAlphabet((1.0, 1.0)), mode=0)
        assert np.allclose(out.samples, self.samples)

    def test_shape_error_on_bit_count(self):
        with pytest.raises(ValueError):
            pga_modulate(self.block, [0, 1, 1, 0, 1], PgaAlphabet(), mode=0)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            pga_modulate(self.block, [0, 1, 0], PgaAlphabet(), mode=7)


class TestReceiverModeEnergy:
    def test_zero_and_constant(self):
        block = SampleBlock(np.zeros((4, 12), dtype=complex), domain=MODE)
        assert receiver_mode_energy(block, 0, 1, 4) == 0.0
        block = SampleBlock(np.full((4, 12), 0.5j), domain=MODE)
        assert receiver_mode_energy(block, 1, 3, 4) == pytest.approx(0.25)

    def test_gaussian_moment(self):
        rng = np.random.default_rng(4)
        samples = complex_gaussian(rng, (1, 10_000), 0.8)
        block = SampleBlock(samples, domain=MODE)
        assert receiver_mode_energy(block, 0, 1, 10_000) == pytest.approx(0.8, rel=0.05)

    def test_symbol_out_of_range(self):
        block = SampleBlock(np.zeros((4, 12), dtype=complex), domain=MODE)
        with pytest.raises(IndexError):
            receiver_mode_energy(block, 0, 4, 4)


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
        thr = EnergyThreshold(q_th=1.5, q0_hat=1.0, q1_hat=2.0)
        assert decide_bit(1.5, thr) == 1  # boundary inclusive
        assert decide_bit(0.0, thr) == 0
        assert decide_bit(3.0, thr) == 1

    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        thr = EnergyThreshold(q_th=0.8, q0_hat=0.5, q1_hat=1.4)
        for scale in (0.25, 7.0):
            scaled = EnergyThreshold(q_th=0.8 * scale, q0_hat=0.5 * scale,
                                     q1_hat=1.4 * scale)
            for q in rng.uniform(0.0, 3.0, 50):
                assert decide_bit(q, thr) == decide_bit(q * scale, scaled)


class TestChiSquare:
    def test_at_origin(self):
        assert chi_square_cdf(0.0, 8) == 0.0

    def test_two_dof_closed_form(self):
        for x in (0.5, 2.0, 7.0):
            assert chi_square_cdf(x, 2) == pytest.approx(1 - math.exp(-x / 2), abs=1e-12)
        assert chi_square_cdf(2.0, 2) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_median_against_wilson_hilferty(self):
        k = 8
        dof = 2 * k
        lo, hi = 0.0, 100.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if chi_square_cdf(mid, dof) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        approx = dof * (1 - 2 / (9 * dof)) ** 3
        assert median == pytest.approx(approx, rel=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi_square_cdf(-1.0, 4)


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
        ch = build_channel_matrix(cfg, APPROXIMATE)
        alb = PgaAlphabet()
        thr = EnergyThreshold(q_th=5.0, q0_hat=1.0, q1_hat=9.0)
        rng = RandomStream(17, 0).generator()
        k, m = cfg.samples_per_symbol, cfg.n_rx
        carrier = complex_gaussian(rng, k, 1.0)
        jam = SampleBlock(complex_gaussian(rng, (m, k), cfg.jam_variance_rx))
        noise = SampleBlock(complex_gaussian(rng, (m, k), cfg.noise_variance_rx))
        bit, q = run_backscatter_symbol(cfg, ch, 3, 1, alb, thr, carrier, jam, noise)
        # independent synthesis of the same symbol
        kappa = mode_link_gains(cfg, ch)[mode_row(cfg.n_tx, 3)]
        y = kappa * 2.0 * carrier
        psi = 2 * np.pi * np.arange(m) / m
        y = y + np.exp(-1j * psi * 3) @ (jam.samples + noise.samples)
        q_expected = float(np.mean(np.abs(y) ** 2))
        assert q == pytest.approx(q_expected, rel=1e-9)
        assert bit == (1 if q >= 5.0 else 0)

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
