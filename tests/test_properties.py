"""Hypothesis properties: sweep invariants on small random grids of both
jamming models, the mode index range, the mode transform round trip and
LinkConfig validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oam_antijam import (BASELINE, MODE, PROPOSED, UNIT, ConfigurationError, LinkConfig,
                         SampleBlock, SweepAxes, SweepOptions, decompose_modes,
                         mode_index_range, multiplex_modes, run_sweep)

FLOAT_FIELDS = ("r_tx", "r_rx", "axial_distance", "wavelength", "beta", "noise_variance_rx",
                "jam_variance_tx", "jam_variance_rx", "energy_threshold_tx",
                "transmit_power_total")


@st.composite
def small_sweeps(draw):
    n = draw(st.sampled_from([1, 2, 3, 8]))
    jam_model = draw(st.sampled_from(["targeted", "iid"]))
    # the iid model jams no chosen modes, so it takes only l_j = 0
    n_jammed = [0] if jam_model == "iid" else draw(
        st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True))
    snr_db = draw(st.lists(st.sampled_from([-60.0, -10.0, 0.0, 17.5, 60.0]),
                           min_size=1, max_size=2, unique=True))
    # 0.5 W is the default threshold, which flags almost no iid mode at K = 64
    threshold = draw(st.sampled_from([0.05, 0.1, 0.5]))
    options = SweepOptions(jam_model=jam_model,
                           ber_trials=draw(st.integers(0, 2)), ber_symbols=2)
    cfg = replace(LinkConfig().with_unit_element_gain(), energy_threshold_tx=threshold,
                  samples_per_symbol=draw(st.sampled_from([1, 8, 64])))
    axes = SweepAxes(snr_db=tuple(snr_db), n_jammed=tuple(sorted(n_jammed)),
                     n_elements=(n,))
    return cfg, axes, options, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(small_sweeps())
def test_sweep_invariants(sweep):
    cfg, axes, options, trials, seed = sweep
    res = run_sweep(cfg, axes, trials=trials, seed=seed, options=options)
    assert len(res) == 2 * len(axes.snr_db) * len(axes.n_jammed)
    for r in res:
        assert np.isfinite(r.se_bits) and r.se_bits >= 0.0
        if options.jam_model == "iid":
            assert abs(r.p_j + r.p_u - 1.0) <= 1e-12
    for proposed, baseline in zip(res[::2], res[1::2]):
        assert (proposed.scheme, baseline.scheme) == (PROPOSED, BASELINE)
        assert proposed.se_bits >= baseline.se_bits


@given(st.integers(1, 1000))
def test_mode_index_range_is_n_consecutive_integers(n):
    start = math.floor((2 - n) / 2)
    assert mode_index_range(n) == list(range(start, start + n))


@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_multiplex_then_decompose_round_trip(n, k, seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    recovered = decompose_modes(multiplex_modes(SampleBlock(samples, MODE), n), UNIT)
    assert recovered.domain == MODE
    assert np.max(np.abs(recovered.samples - samples)) <= 1e-12 * np.max(np.abs(samples))


@given(st.sampled_from(FLOAT_FIELDS),
       st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                 st.floats(max_value=0.0, exclude_max=True, allow_infinity=True)))
def test_link_config_rejects_non_positive_or_non_finite_floats(name, value):
    with pytest.raises(ConfigurationError, match=name):
        LinkConfig(**{name: value})
