"""The mode transform W: multiplexing (W^H), decomposition (W) and block energies."""

import numpy as np
import pytest

from oam_antijam import LinkConfig, mode_index_range
from oam_antijam.channel import build_channel_matrix
from oam_antijam.signals import mode_energies, mode_transform
from oracles import circulant


def random_mode_samples(n, k, rng):
    return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))


def multiplex(mode_samples):
    """Element samples of an (N, K) mode block: W^H @ s."""
    return mode_transform(mode_samples.shape[0]).conj().T @ mode_samples


def test_single_mode_zero_is_constant_across_elements():
    n = 4
    samples = np.zeros((n, 3), dtype=complex)
    samples[mode_index_range(n).index(0)] = 1.0
    assert np.allclose(multiplex(samples), 0.5)


def test_single_mode_one_has_quarter_turn_phase_steps():
    n = 4
    samples = np.zeros((n, 1), dtype=complex)
    samples[mode_index_range(n).index(1)] = 1.0
    out = multiplex(samples)
    assert np.allclose(np.abs(out), 0.5)
    phases = np.angle(out[:, 0])
    steps = np.mod(np.diff(phases), 2 * np.pi)
    assert np.allclose(steps, np.pi / 2, atol=1e-12)


def test_multiplex_preserves_energy():
    rng = np.random.default_rng(3)
    samples = random_mode_samples(8, 50, rng)
    assert np.sum(np.abs(multiplex(samples)) ** 2) == pytest.approx(
        np.sum(np.abs(samples) ** 2), rel=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_round_trip(n):
    rng = np.random.default_rng(n)
    samples = random_mode_samples(n, 25, rng)
    recovered = mode_transform(n) @ multiplex(samples)
    err = np.max(np.abs(recovered - samples)) / np.max(np.abs(samples))
    assert err < 1e-12


def test_decompose_constant_input():
    c = 0.7 - 0.2j
    n = 9
    unit = mode_transform(n) @ np.full((n, 4), c)
    modes = mode_index_range(n)
    assert unit[modes.index(0)] == pytest.approx(c * np.sqrt(n), rel=1e-12)
    off = np.delete(unit, modes.index(0), axis=0)
    assert np.max(np.abs(off)) < 1e-12


def test_parseval_under_unit_normalization():
    rng = np.random.default_rng(11)
    element = rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40))
    modes = mode_transform(16) @ element
    assert np.sum(np.abs(modes) ** 2) == pytest.approx(
        np.sum(np.abs(element) ** 2), rel=1e-12)


def test_mode_transform_is_cached_read_only():
    w = mode_transform(8)
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 0.0
    assert mode_transform(8) is w


def test_mode_orthogonality_through_expanded_channel():
    cfg = LinkConfig(beta=1.0)
    h = circulant(build_channel_matrix(cfg))
    n = cfg.n_tx
    for l in (0, 3, -5, 8):
        samples = np.zeros((n, 1), dtype=complex)
        samples[mode_index_range(n).index(l)] = 1.0
        y = h @ multiplex(samples) / np.sqrt(n)
        recovered = np.sqrt(n) * mode_transform(n) @ y   # the receiver's plain sum
        energies = np.mean(np.abs(recovered) ** 2, axis=1)
        on = energies[mode_index_range(n).index(l)]
        leakage = energies.sum() - on
        assert leakage < 1e-10 * on


class TestBlockEnergy:
    """Block-average mode energies, (1/K) * sum_k |(W x)_l[k]|^2 (``mode_energies``).

    On a one-element ring W = 1, so the energy is the row's own mean power.
    """

    def test_zero_row(self):
        assert np.array_equal(mode_energies(np.zeros((2, 5), dtype=complex)), [0.0, 0.0])

    def test_constant_modulus(self):
        row = np.full((1, 8), 0.3 * np.exp(1j))
        assert mode_energies(row)[0] == pytest.approx(0.09, rel=1e-12)

    def test_gaussian_concentration(self):
        rng = np.random.default_rng(21)
        k = 10_000
        row = (rng.normal(size=k) + 1j * rng.normal(size=k)) / np.sqrt(2)
        assert mode_energies(row[None, :])[0] == pytest.approx(1.0, abs=0.05)

    def test_mode_energies_batch_matches_each_decomposed_block(self):
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(4, 8, 16)) + 1j * rng.normal(size=(4, 8, 16))
        energies = mode_energies(batch)
        assert energies.shape == (4, 8)
        for element, row in zip(batch, energies):
            modes = mode_transform(8) @ element
            expected = np.mean(np.abs(modes) ** 2, axis=1)
            assert np.allclose(row, expected, rtol=1e-12, atol=0.0)

    def test_rows_decompose_onto_those_rows_of_w_only(self):
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(4, 8, 16)) + 1j * rng.normal(size=(4, 8, 16))
        rows = np.array([[0, 5], [7, 1], [3, 3], [6, 2]])   # one row set per trial
        got = mode_energies(batch, rows)
        assert got.shape == (4, 2)
        # oracle: the whole expression on the gathered rows, every temporary newly allocated
        w = mode_transform(8)
        for element, trial_rows, row in zip(batch, rows, got):
            assert np.array_equal(row, np.mean(np.abs(w[trial_rows] @ element) ** 2, axis=-1))


class TestValidation:
    def test_multiplex_shape_mismatch(self):
        """A 4-row mode block does not multiplex onto an 8-element ring."""
        with pytest.raises(ValueError):
            mode_transform(8).conj().T @ np.zeros((4, 2), dtype=complex)
