"""Reproducibility and moment checks of the random streams and jamming sources."""

import numpy as np
import pytest
from scipy import stats

from oam_antijam import ConfigurationError, mode_index_range
from oam_antijam.jamming import complex_gaussian, gamma_energies, substream
from oam_antijam.signals import mode_energies
from oracles import draw_targeted_jamming_block


def test_same_stream_reproduces_bit_exactly():
    a = complex_gaussian(substream(123, 7), (4, 256), 0.1)
    b = complex_gaussian(substream(123, 7), (4, 256), 0.1)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(3, 5, 7), 11, (4, 0, 64), 0], ids=repr)
def test_in_place_draw_matches_the_sum_expression(shape):
    # oracle: the real part, then 1j times the imaginary part, from one stream
    variance = 0.3
    scale = np.sqrt(variance / 2.0)
    rng = substream(21, 3)
    expected = rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)
    got = complex_gaussian(substream(21, 3), shape, variance)
    assert got.dtype == np.complex128 and got.shape == expected.shape
    assert np.array_equal(got.view(np.float64), expected.view(np.float64))


def test_jamming_moments():
    k = 10_000
    row = complex_gaussian(substream(5, 0), (1, k), 0.1)[0]
    assert np.mean(np.abs(row) ** 2) == pytest.approx(0.1, rel=0.05)
    sigma = np.sqrt(0.1)
    assert abs(np.mean(row)) < 3 * sigma / np.sqrt(k)


def test_moments_within_five_standard_errors_at_large_k():
    k, variance = 100_000, 0.25
    row = complex_gaussian(substream(14, 1), (1, k), variance)[0]
    # |z|^2 is exponential with mean and std both equal to the variance
    energy_err = abs(np.mean(np.abs(row) ** 2) - variance)
    assert energy_err <= 5 * variance / np.sqrt(k)
    assert abs(np.mean(row)) <= 5 * np.sqrt(variance / k)


def test_streams_are_independent():
    k = 100_000
    a = complex_gaussian(substream(9, 0), (1, k), 1.0)[0]
    b = complex_gaussian(substream(9, 1), (1, k), 1.0)[0]
    corr = abs(np.vdot(a, b)) / k
    assert corr < 5.0 / np.sqrt(k)


@pytest.mark.parametrize("key", [(7,), (3, 1)], ids=["int", "tuple"])
def test_stream_id_keys_the_seed_sequence(key):
    # a one-int key and a (point, stage) key each give their SeedSequence spawn key
    seq = np.random.SeedSequence(entropy=42, spawn_key=key)
    expected = np.random.Generator(np.random.PCG64(seq)).random(8)
    assert np.array_equal(substream(42, *key).random(8), expected)


def test_targeted_jamming_hits_only_requested_modes():
    n, k = 16, 512
    targets = [2, -3]
    block = draw_targeted_jamming_block(substream(3, 4), n, k, 1.0, targets)
    energies = mode_energies(block)
    modes = mode_index_range(n)
    on = {l: energies[modes.index(l)] for l in targets}
    off = [energies[i] for i, l in enumerate(modes) if l not in targets]
    assert all(e > 0.5 for e in on.values())
    assert max(off) < 1e-20


def test_targeted_jamming_element_variance():
    n, k = 16, 50_000
    block = draw_targeted_jamming_block(substream(8, 0), n, k, 1.0, [0, 1, 2, 3])
    per_element = np.mean(np.abs(block) ** 2)
    assert per_element == pytest.approx(4.0 * 1.0 / n, rel=0.05)


def test_targeted_jamming_unknown_mode():
    with pytest.raises(ConfigurationError):
        draw_targeted_jamming_block(substream(1, 0), 8, 16, 1.0, [5])


@pytest.mark.parametrize("variance", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_jamming_variance(variance):
    with pytest.raises(ConfigurationError):
        draw_targeted_jamming_block(substream(1, 0), 4, 16, variance, [0])


@pytest.mark.parametrize("variance", [0.01, 1.0])
@pytest.mark.parametrize("n", [1, 5, 16])
@pytest.mark.parametrize("k", [1, 4, 64])
def test_gamma_energies_match_element_level_sensing(k, n, variance):
    # oracle: i.i.d. element jamming decomposed by the unitary transform
    trials = 4000 // n
    oracle = mode_energies(complex_gaussian(
        substream(31, k, n), (trials, n, k), variance))
    drawn = gamma_energies(substream(32, k, n), (trials, n), variance, k)
    assert drawn.shape == oracle.shape == (trials, n)
    assert stats.ks_2samp(drawn.ravel(), oracle.ravel()).pvalue > 1e-3
    # each energy is Gamma(K, sigma2/K): mean sigma2, standard deviation sigma2/sqrt(K)
    stderr = variance / np.sqrt(k * trials * n)
    for energies in (drawn, oracle):
        assert abs(energies.mean() - variance) < 5 * stderr
