"""LinkConfig invariants and derived geometry."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oam_antijam import ConfigurationError, LinkConfig, mode_index_range, wavelength_for_frequency


def test_default_matches_reference_setup():
    cfg = LinkConfig()
    assert cfg.n_tx == 16
    assert cfg.r_tx == cfg.r_rx == 0.75
    assert cfg.axial_distance == 15.0
    assert cfg.wavelength == pytest.approx(299792458.0 / 5.8e9)
    assert cfg.energy_threshold_tx == 0.5
    assert cfg.pga_gains == (0.5, 2.0)
    assert cfg.jam_variance_tx == 0.1


@pytest.mark.parametrize("n, expected", [
    (1, [0]),
    (4, [-1, 0, 1, 2]),
    (5, [-2, -1, 0, 1, 2]),
    (16, list(range(-7, 9))),
])
def test_mode_index_range(n, expected):
    assert mode_index_range(n) == expected
    assert len(mode_index_range(n)) == n


def test_mode_range_bounds_formula():
    for n in range(1, 40):
        modes = mode_index_range(n)
        assert modes[0] == math.floor((2 - n) / 2)
        assert modes[-1] == math.floor(n / 2)


@pytest.mark.parametrize("kwargs", [
    {"n_tx": 0},
    {"r_tx": 0.0},
    {"axial_distance": -2.0},
    {"wavelength": 0.0},
    {"noise_variance_rx": 0.0},
    {"transmit_power_total": 0.0},
    {"samples_per_symbol": 0},
    {"pga_gains": (2.0, 0.5)},
    {"pga_gains": (0.5, 0.5)},
    {"pga_gains": (-0.5, 2.0)},
    {"pga_priors": (0.6, 0.6)},
    {"pga_priors": (1.0, 0.0)},
    {"pga_gains": (0.5, 1.0, 2.0)},  # length mismatch with default priors
])
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        LinkConfig(**kwargs)


def test_prior_sum_tolerance_is_tight():
    LinkConfig(pga_priors=(0.5, 0.5 + 9e-13))
    with pytest.raises(ConfigurationError):
        LinkConfig(pga_priors=(0.5, 0.5 + 2e-12))


def test_wavelength_helper():
    assert wavelength_for_frequency(299792458.0) == 1.0
    with pytest.raises(ConfigurationError):
        wavelength_for_frequency(0.0)


def test_derived_geometry():
    cfg = LinkConfig()
    assert cfg.diagonal_distance == pytest.approx(math.sqrt(15.0 ** 2 + 2 * 0.75 ** 2))
    assert cfg.bessel_argument == pytest.approx(4.547109323738533, rel=1e-12)


def test_unit_element_gain_normalization():
    from oam_antijam import build_channel_matrix

    cfg = LinkConfig()
    assert cfg.beta == 4 * math.pi * 15.0 / cfg.wavelength
    assert np.allclose(np.abs(build_channel_matrix(cfg)), 1.0, rtol=1e-12, atol=0.0)
    physical = LinkConfig(beta=1.0)
    assert np.allclose(np.abs(build_channel_matrix(physical)),
                       physical.wavelength / (4 * math.pi * 15.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 8, 16, 128])
def test_default_transmit_total_is_100_watts_per_mode(n):
    assert LinkConfig(n_tx=n).transmit_power_total == 100.0 * n
    assert LinkConfig(n_tx=n, transmit_power_total=7.0).transmit_power_total == 7.0


def test_replace_keeps_the_resolved_defaults():
    cfg = replace(LinkConfig(), n_tx=8, wavelength=1.0)
    assert (cfg.transmit_power_total, cfg.beta) == (1600.0, LinkConfig().beta)
