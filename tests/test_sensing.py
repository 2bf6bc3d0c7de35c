"""Energy detector: mode flags, gamma CDF, and analytic/Monte Carlo agreement."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from oam_antijam import detection_probabilities, mode_index_range, substream
from oam_antijam.backscatter import average_correct_detection
from oam_antijam.jamming import complex_gaussian
from oam_antijam.sensing import gamma_cdf
from oam_antijam.signals import mode_energies, mode_transform
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
        assert gamma_cdf(math.inf, 64, math.inf) == 1.0  # not inf / inf, a nan
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
        # both branches (series below x = k + 1, finite Poisson sum above),
        # dense around the crossover at x ~ k where both converge slowest
        xs = np.concatenate([k * np.geomspace(0.01, 10.0, 40),
                             k * np.linspace(0.95, 1.05, 21), [k + 1.0, k + 1.0 - 1e-9]])
        for x in xs:
            with mpmath.workdps(40):
                ref = mpmath.gammainc(k, 0, float(x), regularized=True)
            if ref > 1e-300:
                got = gamma_cdf(float(x), k, 1.0)
                assert abs(got - float(ref)) <= 1e-11 * float(ref), (k, x, got, ref)


class TestGammaCdfOnArrays:
    """The one CDF is elementwise: every array entry is its own scalar call, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 8, 64, 1024, 4096])
    def test_matches_scipy_at_the_window_edges_and_the_limits(self, k):
        # x = k +- 9 sqrt(k) are where the windowed tails are widest; above x = 745
        # e^-x alone underflows, so only the log-space terms keep the upper tail
        edge = 9.0 * math.sqrt(k)
        xs = np.array([0.0, max(k - edge, 0.5), k - 1.0, k, k + 1.0, k + edge, 746.0, 1e3,
                       1e5, 1e300, math.inf])
        got = gamma_cdf(xs, k, 1.0)
        ref = special.gammainc(k, xs)
        assert got[0] == 0.0 and got[-1] == 1.0
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("k", [1, 16, 64, 4096])
    def test_array_entries_equal_scalar_calls(self, k):
        xs = k * np.geomspace(1e-3, 30.0, 24).reshape(4, 6)
        scales = np.linspace(0.5, 2.0, 6)
        got = gamma_cdf(xs, k, scales)
        assert got.shape == (4, 6)
        assert got.tolist() == [[gamma_cdf(float(x), k, float(s)) for x, s in zip(row, scales)]
                                for row in xs]
        # at K = 4096 each tail sums 606 terms, 54 entries a block: 200 entries span 4 blocks
        wide = k * np.linspace(0.5, 1.5, 400)
        assert gamma_cdf(wide, k, 1.0).tolist() == [gamma_cdf(float(x), k, 1.0) for x in wide]

    def test_a_large_grid_peaks_below_8_mb(self):
        # summed whole, the (entries, terms) Poisson arrays of (9, 4096) entries at K = 64
        # peaked above 60 MB; a block of BLOCK_SAMPLES terms at a time leaves a few MB
        rng = np.random.default_rng(40)
        q_th = rng.uniform(0.5, 3.0, (9, 4096))
        sigma2_0, sigma2_1 = rng.uniform(0.5, 2.0, 4096), rng.uniform(3.0, 6.0, (9, 4096))
        tracemalloc.start()
        try:
            average_correct_detection(q_th, 64, sigma2_0, sigma2_1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_zero_dimensional_input_gives_a_float(self):
        p = gamma_cdf(np.array(0.5), 64, np.array(1 / 64))
        assert type(p) is float and p == gamma_cdf(0.5, 64, 1 / 64)

    @pytest.mark.parametrize("bad", [math.nan, -0.1])
    def test_a_bad_entry_is_rejected(self, bad):
        with pytest.raises(ValueError, match="gamma_cdf argument"):
            gamma_cdf(np.array([0.5, bad, 2.0]), 8, 1.0)
        with pytest.raises(ValueError, match="gamma_cdf scale"):
            gamma_cdf(np.array([0.5, 1.0]), 8, np.array([1.0, bad]))

    def test_correct_detection_entries_equal_scalar_calls(self):
        # a negative threshold counts as 0, on arrays as on scalars
        q_th = np.array([[-1.0, 0.0, 0.3], [1.2, 5.0, 1e9]])
        s0, s1 = np.array([0.5, 1.0, 2.0]), np.array([[3.0, 4.0, 9.0], [2.5, 1.5, 40.0]])
        got = average_correct_detection(q_th, 16, s0, s1, (0.3, 0.7))
        assert got.tolist() == [[average_correct_detection(float(q), 16, float(a), float(b),
                                                           (0.3, 0.7))
                                 for q, a, b in zip(row, s0, s1_row)]
                                for row, s1_row in zip(q_th, s1)]
        assert type(average_correct_detection(np.float64(0.4), 16, np.float64(1.0),
                                              np.array(2.0))) is float

    @pytest.mark.parametrize("q_th, sigma2, match", [
        # the array path would otherwise fall through both tails and return p_c = p1
        ([0.5, math.nan], [1.0, 1.0], "gamma_cdf argument"),
        ([0.5, 0.5], [1.0, -1.0], "hypothesis variances"),
        ([0.5, 0.5], [1.0, math.nan], "hypothesis variances"),
    ])
    def test_correct_detection_rejects_a_bad_entry(self, q_th, sigma2, match):
        with pytest.raises(ValueError, match=match):
            average_correct_detection(np.array(q_th), 8, np.array(sigma2), 2.0)
        with pytest.raises(ValueError, match=match):
            average_correct_detection(np.array(q_th), 8, 2.0, np.array(sigma2))


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

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_threshold_or_variance_rejected(self, bad):
        with pytest.raises(ValueError, match="gamma_cdf argument"):
            detection_probabilities(bad, 16, 0.1)
        with pytest.raises(ValueError, match="gamma_cdf scale"):
            detection_probabilities(0.5, 16, bad)

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
