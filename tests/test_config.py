"""LinkConfig invariants and derived geometry."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oam_antijam import (ConfigurationError, LinkConfig, Scenario, SweepAxes, SweepOptions,
                         metrics, mode_index_range, run_sweep)
from oam_antijam.backscatter import calibrate_threshold
from oam_antijam.channel import element_azimuths
from oam_antijam.cli import format_sweep_csv
from oam_antijam.config import wavelength_for_frequency
from oam_antijam.sensing import gamma_cdf


def test_default_matches_reference_setup():
    cfg = LinkConfig()
    assert cfg.n_tx == 16
    assert cfg.r_tx == cfg.r_rx == 0.75
    assert cfg.axial_distance == 15.0
    assert cfg.wavelength == pytest.approx(299792458.0 / 5.8e9)
    assert cfg.energy_threshold_tx == 0.5
    assert cfg.pga_gains == (0.5, 2.0)
    assert cfg.jam_variance_rx == 0.1


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
    {"power_per_mode": 0.0},
    {"samples_per_symbol": 0},
    {"pga_gains": (2.0, 0.5)},
    {"pga_gains": (0.5, 0.5)},
    {"pga_gains": (-0.5, 2.0)},
    {"pga_priors": (0.6, 0.6)},
    {"pga_priors": (1.0, 0.0)},
    {"pga_gains": (0.5, 1.0, 2.0)},  # length mismatch with default priors
    {"jam_variance_rx": 1e308},  # the receiver floor n_tx * (noise + jamming) overflows
    {"r_tx": True},  # was kept as the radius
    {"r_tx": "1"},  # raised TypeError
])
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ConfigurationError) as info:
        LinkConfig(**kwargs)
    for name, value in kwargs.items():
        if isinstance(value, str):   # quoted, so "1" does not read as the number 1
            assert f"{name} {value!r} is not" in str(info.value)


def test_prior_sum_tolerance_is_tight():
    LinkConfig(pga_priors=(0.5, 0.5 + 9e-13))
    with pytest.raises(ConfigurationError):
        LinkConfig(pga_priors=(0.5, 0.5 + 2e-12))


def test_wavelength_helper():
    assert wavelength_for_frequency(299792458.0) == 1.0
    with pytest.raises(ConfigurationError):
        wavelength_for_frequency(0.0)


@pytest.mark.parametrize("function, args, message", [
    pytest.param(mode_index_range, (2.5,), "element count 2.5 is not an integer", id="modes-2.5"),
    pytest.param(mode_index_range, (True,), "element count True is not an integer",
                 id="modes-True"),
    pytest.param(element_azimuths, (2.5,), "element count 2.5 is not an integer",
                 id="azimuths-2.5"),
    pytest.param(calibrate_threshold, ([1.0, 2.0], [0, 1], 2.5), "n_samples 2.5 is not an",
                 id="calibrate-2.5"),
    pytest.param(gamma_cdf, (1.0, True, 1.0), "gamma_cdf shape True is not an",
                 id="gamma_cdf-True"),
    pytest.param(wavelength_for_frequency, (math.nan,), "carrier frequency", id="frequency-nan"),
    pytest.param(wavelength_for_frequency, (math.inf,), "carrier frequency", id="frequency-inf"),
])
def test_counts_and_frequency_are_checked(function, args, message):
    # a count goes through check_count, so a fraction or a bool is refused; the
    # carrier frequency must be finite as well as positive
    with pytest.raises(ConfigurationError, match=message):
        function(*args)


def test_derived_geometry():
    cfg = LinkConfig()
    assert cfg.diagonal_distance == pytest.approx(math.sqrt(15.0 ** 2 + 2 * 0.75 ** 2))
    assert cfg.bessel_argument == pytest.approx(4.547109323738533, rel=1e-12)


def test_unit_element_gain_normalization():
    from oam_antijam.channel import build_channel_matrix

    cfg = LinkConfig()
    assert cfg.beta == 4 * math.pi * 15.0 / cfg.wavelength
    assert np.allclose(np.abs(build_channel_matrix(cfg)), 1.0, rtol=1e-12, atol=0.0)
    physical = LinkConfig(beta=1.0)
    assert np.allclose(np.abs(build_channel_matrix(physical)),
                       physical.wavelength / (4 * math.pi * 15.0), rtol=1e-12, atol=0.0)
    # every element-pair gain has the modulus the link budget reads
    for link in (cfg, physical):
        assert np.allclose(np.abs(build_channel_matrix(link)), link.element_gain,
                           rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 8, 16, 128])
def test_default_transmit_total_is_100_watts_per_mode(n):
    assert LinkConfig(n_tx=n).power_per_mode == 100.0
    assert LinkConfig(n_tx=n, power_per_mode=7.0).power_per_mode == 7.0
    # a point of N = n clean modes: a scenario link of any ring size gives the same total
    for cfg in (LinkConfig(), LinkConfig(n_tx=n)):
        assert metrics._point_config(cfg, n, 0, 0.0)[1] == 100.0 * n


def test_replace_keeps_the_resolved_defaults():
    # beta resolves at construction and is kept; power_per_mode has no such default
    cfg = replace(LinkConfig(), n_tx=8, wavelength=1.0)
    assert (cfg.power_per_mode, cfg.beta) == (100.0, LinkConfig().beta)


def test_replaced_ring_size_sweeps_as_constructed():
    # the transmit total used to resolve at construction: a replaced n_tx = 32
    # kept 1600 W, and swept at 50 W per mode
    axes = SweepAxes(snr_db=(0.0, 20.0), n_jammed=(0, 4))
    csv_text = [format_sweep_csv(run_sweep(Scenario(cfg, axes, trials=20, seed=3)))
                for cfg in (replace(LinkConfig(), n_tx=32), LinkConfig(n_tx=32))]
    assert csv_text[0] == csv_text[1]


@pytest.mark.parametrize("model, other, default", [("targeted", "iid", 1.0),
                                                    ("iid", "targeted", 0.1)])
def test_jam_variance_tx_default_follows_the_model(model, other, default):
    options = SweepOptions(jam_model=model)
    assert options.jam_variance_tx == default
    assert SweepOptions(jam_model=model, jam_variance_tx=5.0).jam_variance_tx == 5.0
    assert replace(options, jam_model=other).jam_variance_tx == default   # kept as set


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True])
def test_jam_variance_tx_must_be_positive_and_finite(value):
    with pytest.raises(ConfigurationError, match="jam_variance_tx"):
        SweepOptions(jam_variance_tx=value)


def test_numpy_magnitudes_accepted():
    cfg = LinkConfig(r_tx=np.float64(0.5), axial_distance=np.int64(15), beta=np.float32(2.0))
    assert (cfg.r_tx, cfg.axial_distance, cfg.beta) == (0.5, 15, 2.0)
    assert SweepOptions(jam_variance_tx=np.float64(2.0)).jam_variance_tx == 2.0


def with_count(name, value):
    """The object that holds the count ``name``, built at ``value`` and defaults elsewhere."""
    if name in ("n_tx", "samples_per_symbol", "preamble_length"):
        return LinkConfig(**{name: value})
    if name in ("ber_trials", "ber_symbols"):
        return SweepOptions(**{name: value})
    axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,))
    if name in ("n_jammed", "n_elements"):
        return Scenario(LinkConfig(), replace(axes, **{name: value}), trials=2)
    return Scenario(LinkConfig(), axes, **{"trials": 2, name: value})


@pytest.mark.parametrize("name, value", [
    ("n_tx", 8.0), ("samples_per_symbol", 8.5), ("preamble_length", 16.0),
    ("ber_trials", 2.0), ("ber_symbols", 1.5), ("trials", 2.5), ("seed", 1.5),
    ("n_jammed", (2.0,)), ("n_elements", (8.0,)), ("trials", True),
])
def test_non_integer_count_rejected_at_construction(name, value):
    # each used to construct and then fail mid-sweep, or run as if rounded down
    with pytest.raises(ConfigurationError, match="is not an integer"):
        with_count(name, value)


@pytest.mark.parametrize("name", ["n_tx", "preamble_length", "ber_symbols", "trials", "seed",
                                  "n_elements"])
def test_numpy_integer_count_accepted(name):
    value = np.int64(8)
    with_count(name, (value,) if name == "n_elements" else value)
