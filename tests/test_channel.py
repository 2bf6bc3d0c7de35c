"""Geometry, element gains, Bessel evaluation, and per-mode gain equivalence."""

import math

import numpy as np
import pytest

from oam_antijam import LinkConfig, build_channel_matrix, element_azimuths, mode_link_gains
from oam_antijam.config import ConfigurationError, mode_index_range
from oracles import (bessel_j, circulant, exact_channel_matrix, mode_channel_gain,
                     ring_sampled_bessel, row_and_matrix, sandwich_link_gains, series_bessel)

REFERENCE = LinkConfig()  # r = R = 0.75 m, d = 15 m, 5.8 GHz, N = 16

# Frozen by a 50-digit evaluation of the two distance forms over all 16x16
# element pairs of the default geometry.
MAX_DISTANCE_GAP = 4.6641718529779206e-05
# lambda / (4 pi d) for the default geometry, same precision.
ELEMENT_GAIN_MODULUS = 2.7421523903660588e-04

TINY = 1e-12  # stand-in radius for the degenerate r -> 0 limits


class TestAzimuths:
    def test_four_elements(self):
        assert np.allclose(element_azimuths(4), [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_single_element(self):
        assert np.allclose(element_azimuths(1), [0.0])

    def test_sixteen_equally_spaced(self):
        angles = element_azimuths(16)
        assert angles.size == 16
        assert np.allclose(np.diff(angles), 2 * np.pi / 16)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            element_azimuths(0)


class TestPairwiseDistance:
    """The element-pair distances behind the expanded channel and the exact-distance oracle."""

    def test_degenerate_radii_give_axial_distance(self):
        cfg = LinkConfig(r_tx=TINY, r_rx=TINY)
        lam = cfg.wavelength
        point_to_point = cfg.beta * lam * np.exp(-2j * np.pi * 15.0 / lam) / (4 * np.pi * 15.0)
        for build in (exact_channel_matrix, build_channel_matrix):
            gains = build(cfg)
            assert np.allclose(gains, point_to_point, rtol=1e-9, atol=0.0)

    def test_aligned_elements_equal_radii(self):
        # phi_1 = psi_1 = 0 and r = R collapse the exact form to d
        h = exact_channel_matrix(REFERENCE)
        distance = REFERENCE.beta * REFERENCE.wavelength / (4 * np.pi * abs(h[0, 0]))
        assert distance == pytest.approx(15.0, rel=1e-14)

    def test_max_gap_matches_high_precision_value(self):
        exact = exact_channel_matrix(REFERENCE)
        approx = circulant(build_channel_matrix(REFERENCE))
        # the two distance forms differ in phase by 2*pi*(distance gap)/lambda
        phase = np.abs(np.angle(exact * np.conj(approx)))
        max_gap = phase.max() * REFERENCE.wavelength / (2 * np.pi)
        assert max_gap == pytest.approx(MAX_DISTANCE_GAP, rel=1e-9)
        assert max_gap < REFERENCE.wavelength / 100.0


class TestElementGain:
    def test_modulus_is_index_independent(self):
        h = build_channel_matrix(REFERENCE)
        assert np.allclose(np.abs(h), ELEMENT_GAIN_MODULUS, rtol=1e-12)

    def test_tiny_radius_removes_azimuthal_dependence(self):
        cfg = LinkConfig(r_tx=TINY, r_rx=0.75)
        gains = build_channel_matrix(cfg)
        assert np.max(np.abs(np.diff(gains.ravel()))) < 1e-12

    def test_matches_matrix_entry(self):
        # transmit element n = 3 to receive element m = 5, expanded distance
        cfg = REFERENCE
        lam = cfg.wavelength
        phi, psi = 2 * np.pi * 2 / 16, 2 * np.pi * 4 / 16
        expected = (cfg.beta * lam / (4 * np.pi * cfg.axial_distance)
                    * np.exp(1j * (-2 * np.pi * cfg.diagonal_distance / lam
                                   + cfg.bessel_argument * np.cos(phi - psi))))
        h = circulant(build_channel_matrix(cfg))
        assert h[4, 2] == pytest.approx(expected, rel=1e-12)


class TestChannelMatrix:
    def test_point_to_point_entry(self):
        cfg = LinkConfig(n_tx=1, r_tx=TINY, r_rx=TINY)
        entry = exact_channel_matrix(cfg)[0, 0]
        lam = cfg.wavelength
        expected = cfg.beta * lam * np.exp(-2j * np.pi * 15.0 / lam) / (4 * np.pi * 15.0)
        assert entry == pytest.approx(expected, rel=1e-9)

    def test_approximate_matrix_is_circulant_like(self):
        # the package keeps only the first row; its circulant expansion shifts it
        # exactly, row by row
        for cfg in (REFERENCE, LinkConfig(n_tx=128)):
            row = build_channel_matrix(cfg)
            assert row.shape == (cfg.n_tx,)
            h = circulant(row)
            for m in range(cfg.n_tx):
                assert np.array_equal(h[m], np.roll(row, m))

    def test_exact_close_to_approximate(self):
        exact = exact_channel_matrix(REFERENCE)
        approx = circulant(build_channel_matrix(REFERENCE))
        rel_modulus = np.abs(np.abs(exact) - np.abs(approx)) / np.abs(exact)
        phase = np.abs(np.angle(exact * np.conj(approx)))
        assert rel_modulus.max() < 0.01
        assert phase.max() < 0.01

    def test_phase_error_loose_bound(self):
        exact = exact_channel_matrix(REFERENCE)
        approx = circulant(build_channel_matrix(REFERENCE))
        phase = np.abs(np.angle(exact * np.conj(approx)))
        assert phase.max() < 0.1


class TestBessel:
    def test_identities_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        for l in (1, 2, 5, -3):
            assert bessel_j(l, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("l", range(-8, 9))
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.4048, 4.548, 10.0, 20.0])
    def test_against_power_series(self, l, alpha):
        assert bessel_j(l, alpha) == pytest.approx(series_bessel(l, alpha), abs=1e-8)

    def test_reflection_symmetry(self):
        for l in range(1, 9):
            for alpha in (0.5, 2.0, 7.7):
                assert bessel_j(-l, alpha) == pytest.approx(
                    (-1.0) ** l * bessel_j(l, alpha), abs=1e-12)

    def test_first_zero_found_by_series_bisection(self):
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if series_bessel(0, lo) * series_bessel(0, mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404826, abs=1e-6)
        assert abs(bessel_j(0, root)) < 1e-10

    def test_recurrence(self):
        for l in range(-8, 9):
            for alpha in np.linspace(0.5, 20.0, 14):
                lhs = bessel_j(l - 1, alpha) + bessel_j(l + 1, alpha)
                rhs = 2.0 * l / alpha * bessel_j(l, alpha)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(61, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, 101.0)


class TestModeGain:
    def test_modulus_symmetric_in_mode_sign(self):
        for l in range(1, 8):
            assert abs(mode_channel_gain(REFERENCE, l)) == pytest.approx(
                abs(mode_channel_gain(REFERENCE, -l)), rel=1e-12)

    def test_small_radius_limits(self):
        cfg = LinkConfig(r_tx=TINY)
        lam = cfg.wavelength
        expected = cfg.beta * lam * math.sqrt(16) / (4 * np.pi * 15.0)
        assert abs(mode_channel_gain(cfg, 0)) == pytest.approx(expected, rel=1e-9)
        for l in (1, 4, -5):
            assert abs(mode_channel_gain(cfg, l)) < 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_matrix_sandwich_up_to_constant(self, n):
        # oracle: mode decomposition of the full expanded matrix
        cfg = LinkConfig(n_tx=n)
        h = circulant(build_channel_matrix(cfg))
        phi = element_azimuths(n)
        ratios = []
        for l in mode_index_range(n):
            sandwich = np.exp(-1j * phi * l) @ h @ np.exp(1j * phi * l) / np.sqrt(n)
            ratios.append(abs(sandwich) / abs(mode_channel_gain(cfg, l)))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 1e-9
        assert np.mean(ratios) == pytest.approx(n, rel=1e-9)

    def test_link_gain_modulus_relation(self):
        kappas = mode_link_gains(REFERENCE)
        for i, l in enumerate(REFERENCE.mode_indices()):
            assert abs(kappas[i]) == pytest.approx(
                math.sqrt(REFERENCE.n_tx) * abs(mode_channel_gain(REFERENCE, l)), rel=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16), (8,), (17,), (16, 1), (1, 16), (), (0,),
                                       (16, 16, 1)])
    def test_link_gains_reject_a_channel_of_another_shape(self, shape):
        # the channel is the (N,) first row; a full matrix is one of the wrong shapes
        with pytest.raises(ValueError, match="does not match config"):
            mode_link_gains(REFERENCE, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 128, 1024])
    @pytest.mark.parametrize("build", [build_channel_matrix, exact_channel_matrix])
    def test_link_gains_match_the_sandwich_oracle(self, n, build):
        # the FFT of the first row against the decomposition of the full matrix; the
        # exact-distance matrix is circulant only up to rounding
        cfg = LinkConfig(n_tx=n)
        row, matrix = row_and_matrix(build(cfg))
        fast = mode_link_gains(cfg, row)
        oracle = sandwich_link_gains(cfg, matrix)
        assert np.max(np.abs(fast - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_sampled_factor_converges_to_bessel(self):
        alpha = REFERENCE.bessel_argument
        for l in range(5):
            assert ring_sampled_bessel(512, l, alpha) == pytest.approx(
                bessel_j(l, alpha), abs=1e-10)

    def test_decay_beyond_bessel_argument(self):
        # alpha ~ 4.55 for the default geometry, so check |l| >= 5
        moduli = [abs(mode_channel_gain(REFERENCE, l)) for l in range(5, 9)]
        assert all(b <= a for a, b in zip(moduli, moduli[1:]))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            mode_channel_gain(REFERENCE, 9)
