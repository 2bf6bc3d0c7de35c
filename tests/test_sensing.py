"""Energy detector: mode flags, gamma CDF, and analytic/Monte Carlo agreement."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from oam_antijam import (
    average_correct_detection,
    detection_probabilities,
    gamma_cdf,
    mode_energies,
    mode_index_range,
    mode_transform,
    substream,
)
from oam_antijam.jamming import complex_gaussian
from oracles import draw_targeted_jamming_block


def flagged_modes(element_samples, e_th):
    """Modes the detector flags as jammed: block-average energy at or above E_th."""
    flags = mode_energies(element_samples) >= e_th
    return tuple(l for l, f in zip(mode_index_range(len(flags)), flags) if f)


def test_zero_block_is_all_clean():
    assert flagged_modes(np.zeros((8, 16), dtype=complex), 0.5) == ()


def test_single_injected_mode_is_isolated():
    n, k = 8, 32
    e_th = 0.5
    samples = np.zeros((n, k), dtype=complex)
    samples[mode_index_range(n).index(2)] = math.sqrt(10 * e_th)
    assert flagged_modes(mode_transform(n).conj().T @ samples, e_th) == (2,)


def test_boundary_energy_counts_as_jammed():
    n, k = 4, 8
    e_th = 0.25
    samples = np.zeros((n, k), dtype=complex)
    samples[mode_index_range(n).index(1)] = math.sqrt(e_th)  # energy == threshold
    assert 1 in flagged_modes(mode_transform(n).conj().T @ samples, e_th)


def test_targeted_detection_rate_tracks_analytic():
    n, k, sigma_t, e_th = 16, 64, 1.0, 0.5
    hits = 0
    trials = 400
    for t in range(trials):
        block = draw_targeted_jamming_block(substream(77, t), n, k, sigma_t, [3])
        hits += 3 in flagged_modes(block, e_th)
    analytic, _ = detection_probabilities(e_th, k, sigma_t)
    assert hits / trials == pytest.approx(analytic, abs=0.01)


class TestGammaCdf:
    def test_at_origin(self):
        assert gamma_cdf(0.0, 5, 1.0) == 0.0

    def test_exponential_special_case(self):
        # shape 1 has the closed form 1 - exp(-x/theta)
        theta = 0.7
        assert gamma_cdf(theta, 1, theta) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        for x in (0.1, 1.0, 3.3):
            assert gamma_cdf(x, 1, theta) == pytest.approx(1 - math.exp(-x / theta), abs=1e-12)

    def test_upper_limit(self):
        k, theta = 6, 0.4
        assert gamma_cdf(50.0 * k * theta, k, theta) == pytest.approx(1.0, abs=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            gamma_cdf(-0.1, 2, 1.0)

    def test_edges(self):
        assert gamma_cdf(0.0, 64, 1.0) == 0.0
        assert gamma_cdf(math.inf, 64, 1.0) == 1.0
        assert gamma_cdf(1.0, 64, 1e-320) == 1.0  # x / scale overflows to inf

    @pytest.mark.parametrize("shape", [2.5, 2.0, "3", math.nan, 0, -1])
    def test_non_integer_or_non_positive_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            gamma_cdf(1.0, shape, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_argument_or_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            gamma_cdf(bad, 4, 1.0)
        with pytest.raises(ValueError):
            gamma_cdf(1.0, 4, bad)

    def test_numpy_scalars_give_the_float_result(self):
        x, shape, scale = np.float64(0.5), np.int64(64), np.float64(1 / 64)
        assert type(gamma_cdf(x, shape, scale)) is float
        assert gamma_cdf(x, shape, scale) == gamma_cdf(0.5, 64, 1 / 64)

    @pytest.mark.parametrize("k", [1, 2, 8, 16, 64, 256, 1024, 4096])
    def test_relative_error_against_mpmath(self, k):
        # both branches (series below x = k + 1, continued fraction above),
        # dense around the crossover at x ~ k where both converge slowest
        xs = np.concatenate([k * np.geomspace(0.01, 10.0, 40),
                             k * np.linspace(0.95, 1.05, 21), [k + 1.0, k + 1.0 - 1e-9]])
        for x in xs:
            with mpmath.workdps(40):
                ref = mpmath.gammainc(k, 0, float(x), regularized=True)
            if ref > 1e-300:
                got = gamma_cdf(float(x), k, 1.0)
                assert abs(got - float(ref)) <= 1e-11 * float(ref), (k, x, got, ref)


@given(st.integers(1, 2048), st.floats(0.0, 50.0), st.floats(0.0, 1.0))
def test_gamma_cdf_matches_scipy_and_is_a_cdf(k, x_over_k, step):
    x = x_over_k * k
    p = gamma_cdf(x, k, 1.0)
    assert abs(p - special.gammainc(k, x)) <= 1e-11
    assert 0.0 <= p <= 1.0
    assert gamma_cdf(x + step * math.sqrt(k), k, 1.0) >= p


@pytest.mark.parametrize("q_th, k, sigma2", [(0.3, 1, 0.5), (1.2, 8, 1.0), (0.5, 64, 0.6),
                                            (-1.0, 16, 1.0), (1e9, 16, 1.0)])
def test_one_bit_correct_detection_is_a_gamma_tail(q_th, k, sigma2):
    # priors (1, 0) and (0, 1) give one bit's probability; the other variance is unused
    below = gamma_cdf(max(q_th, 0.0), k, sigma2 / k)
    assert average_correct_detection(q_th, k, sigma2, 9.0, (1.0, 0.0)) == below
    assert average_correct_detection(q_th, k, 9.0, sigma2, (0.0, 1.0)) == 1.0 - below


class TestDetectionProbabilities:
    def test_zero_threshold(self):
        assert detection_probabilities(0.0, 16, 0.1) == (1.0, 0.0)

    def test_huge_threshold(self):
        _, p_u = detection_probabilities(50 * 0.1, 16, 0.1)
        assert p_u == pytest.approx(1.0, abs=1e-9)

    def test_analytic_probabilities_sum_to_one(self):
        p_j, p_u = detection_probabilities(0.5, 64, 0.1)
        assert p_j + p_u == pytest.approx(1.0, abs=1e-15)

    def test_zero_variance_never_flags(self):
        p_j, _ = detection_probabilities(0.5, 64, 0.0)
        assert p_j == 0.0

    def test_monotone_in_threshold(self):
        thresholds = np.linspace(0.01, 1.0, 25)
        p_j, p_u = zip(*(detection_probabilities(t, 16, 0.1) for t in thresholds))
        assert all(b >= a for a, b in zip(p_u, p_u[1:]))
        assert all(b <= a for a, b in zip(p_j, p_j[1:]))

    def test_reference_setting_against_monte_carlo(self):
        _, p_u = detection_probabilities(0.5, 64, 0.1)
        samples = complex_gaussian(substream(31, 0), (100_000, 64), 0.1)
        energies = np.mean(np.abs(samples) ** 2, axis=1)
        assert np.mean(energies < 0.5) == pytest.approx(p_u, abs=0.01)


@pytest.mark.parametrize("k", [4, 16, 64])
@pytest.mark.parametrize("sigma2", [0.05, 0.1, 0.5])
def test_exceedance_grid_within_three_standard_errors(k, sigma2):
    trials = 10_000
    for factor in (0.25, 1.0, 4.0):
        e_th = factor * sigma2
        p, _ = detection_probabilities(e_th, k, sigma2)
        samples = complex_gaussian(substream(500 + k, int(factor * 4)),
                                   (trials, k), sigma2)
        p_flag = np.mean(np.mean(np.abs(samples) ** 2, axis=1) >= e_th)
        stderr = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(p_flag - p) <= 3 * stderr + 1e-9
