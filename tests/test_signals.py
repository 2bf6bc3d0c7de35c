"""Mode multiplexing/decomposition and block energy statistics."""

import numpy as np
import pytest

from oam_antijam import (
    APPROXIMATE,
    LinkConfig,
    MODE,
    SampleBlock,
    UNIT,
    UNNORMALIZED,
    build_channel_matrix,
    decompose_modes,
    mode_energies,
    mode_index_range,
    multiplex_modes,
)


def random_mode_block(n, k, rng):
    samples = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return SampleBlock(samples, domain=MODE)


def test_single_mode_zero_is_constant_across_elements():
    n = 4
    samples = np.zeros((n, 3), dtype=complex)
    samples[mode_index_range(n).index(0)] = 1.0
    out = multiplex_modes(SampleBlock(samples, domain=MODE), n)
    assert np.allclose(out.samples, 0.5)


def test_single_mode_one_has_quarter_turn_phase_steps():
    n = 4
    samples = np.zeros((n, 1), dtype=complex)
    samples[mode_index_range(n).index(1)] = 1.0
    out = multiplex_modes(SampleBlock(samples, domain=MODE), n)
    assert np.allclose(np.abs(out.samples), 0.5)
    phases = np.angle(out.samples[:, 0])
    steps = np.mod(np.diff(phases), 2 * np.pi)
    assert np.allclose(steps, np.pi / 2, atol=1e-12)


def test_multiplex_preserves_energy():
    rng = np.random.default_rng(3)
    block = random_mode_block(8, 50, rng)
    out = multiplex_modes(block, 8)
    assert np.sum(np.abs(out.samples) ** 2) == pytest.approx(
        np.sum(np.abs(block.samples) ** 2), rel=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_round_trip(n):
    rng = np.random.default_rng(n)
    block = random_mode_block(n, 25, rng)
    recovered = decompose_modes(multiplex_modes(block, n), UNIT)
    err = np.max(np.abs(recovered.samples - block.samples)) / np.max(np.abs(block.samples))
    assert err < 1e-12


def test_decompose_constant_input():
    c = 0.7 - 0.2j
    n = 9
    block = SampleBlock(np.full((n, 4), c), domain="element")
    unit = decompose_modes(block, UNIT)
    modes = mode_index_range(n)
    assert unit.samples[modes.index(0)] == pytest.approx(c * np.sqrt(n), rel=1e-12)
    off = np.delete(unit.samples, modes.index(0), axis=0)
    assert np.max(np.abs(off)) < 1e-12

    plain = decompose_modes(block, UNNORMALIZED)
    assert plain.samples[modes.index(0)] == pytest.approx(c * n, rel=1e-12)


def test_parseval_under_unit_normalization():
    rng = np.random.default_rng(11)
    element = SampleBlock(rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40)))
    modes = decompose_modes(element, UNIT)
    assert np.sum(np.abs(modes.samples) ** 2) == pytest.approx(
        np.sum(np.abs(element.samples) ** 2), rel=1e-12)


def test_mode_orthogonality_through_expanded_channel():
    cfg = LinkConfig()
    h = build_channel_matrix(cfg, APPROXIMATE).gains
    n = cfg.n_tx
    for l in (0, 3, -5, 8):
        samples = np.zeros((n, 1), dtype=complex)
        samples[cfg.mode_indices().index(l)] = 1.0
        x = multiplex_modes(SampleBlock(samples, domain=MODE), n)
        y = SampleBlock(h @ x.samples / np.sqrt(n))
        recovered = decompose_modes(y, UNNORMALIZED)
        energies = np.mean(np.abs(recovered.samples) ** 2, axis=1)
        on = energies[cfg.mode_indices().index(l)]
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
            modes = decompose_modes(SampleBlock(element), UNIT).samples
            expected = np.mean(np.abs(modes) ** 2, axis=1)
            assert np.allclose(row, expected, rtol=1e-12, atol=0.0)


class TestValidation:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            SampleBlock(np.zeros((3, 0), dtype=complex))

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            SampleBlock(np.zeros((2, 2), dtype=complex), domain="antenna")

    def test_multiplex_requires_mode_domain(self):
        with pytest.raises(ValueError):
            multiplex_modes(SampleBlock(np.zeros((4, 2), dtype=complex)), 4)

    def test_multiplex_shape_mismatch(self):
        block = SampleBlock(np.zeros((4, 2), dtype=complex), domain=MODE)
        with pytest.raises(ValueError):
            multiplex_modes(block, 8)

    def test_decompose_unknown_normalization(self):
        block = SampleBlock(np.zeros((4, 2), dtype=complex))
        with pytest.raises(ValueError):
            decompose_modes(block, "orthonormal-ish")
