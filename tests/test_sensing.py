"""Energy detector: partitions, gamma CDF, and analytic/empirical agreement."""

import math

import numpy as np
import pytest

from oam_antijam import (
    MODE,
    RandomStream,
    SampleBlock,
    detection_probabilities,
    draw_jamming_block,
    draw_targeted_jamming_block,
    empirical_detection_probabilities,
    gamma_cdf,
    mode_index_range,
    multiplex_modes,
    sense_modes,
)


def test_zero_block_is_all_clean():
    block = SampleBlock(np.zeros((8, 16), dtype=complex))
    part = sense_modes(block, 0.5)
    assert part.jammed == ()
    assert set(part.unjammed) == set(mode_index_range(8))


def test_single_injected_mode_is_isolated():
    n, k = 8, 32
    e_th = 0.5
    samples = np.zeros((n, k), dtype=complex)
    samples[mode_index_range(n).index(2)] = math.sqrt(10 * e_th)
    element = multiplex_modes(SampleBlock(samples, domain=MODE), n)
    part = sense_modes(element, e_th)
    assert part.jammed == (2,)


def test_boundary_energy_counts_as_jammed():
    n, k = 4, 8
    e_th = 0.25
    samples = np.zeros((n, k), dtype=complex)
    samples[mode_index_range(n).index(1)] = math.sqrt(e_th)  # energy == threshold
    element = multiplex_modes(SampleBlock(samples, domain=MODE), n)
    part = sense_modes(element, e_th)
    assert 1 in part.jammed


def test_mode_domain_block_rejected():
    with pytest.raises(ValueError, match="element-domain"):
        sense_modes(SampleBlock(np.zeros((4, 8), dtype=complex), domain=MODE), 0.5)


def test_partition_invariants_on_random_inputs():
    modes = mode_index_range(16)
    for trial in range(200):
        block = draw_jamming_block(RandomStream(1000, trial), 16, 8, 0.3)
        part = sense_modes(block, 0.3)
        assert sorted(part.jammed + part.unjammed) == sorted(modes)
        assert not set(part.jammed) & set(part.unjammed)
        for i, l in enumerate(part.modes):
            assert (l in part.jammed) == (part.energies[i] >= 0.3)


def test_targeted_detection_rate_tracks_analytic():
    n, k, sigma_t, e_th = 16, 64, 1.0, 0.5
    hits = 0
    trials = 400
    for t in range(trials):
        block = draw_targeted_jamming_block(RandomStream(77, t), n, k, sigma_t, [3])
        hits += 3 in sense_modes(block, e_th).jammed
    analytic = detection_probabilities(e_th, k, sigma_t).p_jammed
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


class TestDetectionProbabilities:
    def test_zero_threshold(self):
        stats = detection_probabilities(0.0, 16, 0.1)
        assert stats.p_jammed == 1.0
        assert stats.p_unjammed == 0.0

    def test_huge_threshold(self):
        stats = detection_probabilities(50 * 0.1, 16, 0.1)
        assert stats.p_unjammed == pytest.approx(1.0, abs=1e-9)

    def test_analytic_probabilities_sum_to_one(self):
        stats = detection_probabilities(0.5, 64, 0.1)
        assert stats.p_jammed + stats.p_unjammed == pytest.approx(1.0, abs=1e-15)

    def test_zero_variance_never_flags(self):
        stats = detection_probabilities(0.5, 64, 0.0)
        assert stats.p_jammed == 0.0

    def test_monotone_in_threshold(self):
        thresholds = np.linspace(0.01, 1.0, 25)
        p_u = [detection_probabilities(t, 16, 0.1).p_unjammed for t in thresholds]
        p_j = [detection_probabilities(t, 16, 0.1).p_jammed for t in thresholds]
        assert all(b >= a for a, b in zip(p_u, p_u[1:]))
        assert all(b <= a for a, b in zip(p_j, p_j[1:]))

    def test_reference_setting_against_monte_carlo(self):
        analytic = detection_probabilities(0.5, 64, 0.1)
        empirical = empirical_detection_probabilities(
            RandomStream(31, 0), 0.5, 64, 0.1, trials=100_000)
        assert empirical.p_unjammed == pytest.approx(analytic.p_unjammed, abs=0.01)
        assert empirical.source == "empirical"


@pytest.mark.parametrize("k", [4, 16, 64])
@pytest.mark.parametrize("sigma2", [0.05, 0.1, 0.5])
def test_exceedance_grid_within_three_standard_errors(k, sigma2):
    trials = 10_000
    for factor in (0.25, 1.0, 4.0):
        e_th = factor * sigma2
        p = detection_probabilities(e_th, k, sigma2).p_jammed
        emp = empirical_detection_probabilities(
            RandomStream(500 + k, int(factor * 4)), e_th, k, sigma2, trials=trials)
        stderr = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(emp.p_jammed - p) <= 3 * stderr + 1e-9
