"""Sweep invariants on small random grids of both jamming models."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from oam_antijam import (BASELINE, PROPOSED, LinkConfig, SweepAxes, SweepOptions,
                         run_sweep)


@st.composite
def small_sweeps(draw):
    n = draw(st.sampled_from([1, 2, 3, 8]))
    n_jammed = draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True))
    snr_db = draw(st.lists(st.sampled_from([-60.0, -10.0, 0.0, 17.5, 60.0]),
                           min_size=1, max_size=2, unique=True))
    # 0.5 W is the default threshold, which flags almost no iid mode at K = 64
    threshold = draw(st.sampled_from([0.05, 0.1, 0.5]))
    options = SweepOptions(jam_model=draw(st.sampled_from(["targeted", "iid"])),
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
