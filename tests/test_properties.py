"""Hypothesis properties: sweep invariants on small random grids of both
jamming models, rows that depend on their grid point alone, the Monte Carlo SE
against its closed form, the mode index range, the mode transform round trip,
LinkConfig validation, scenario-file validation, the bit identity of the
sweep's per-count SNR tables and of each row of a sequence of links."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oam_antijam import (BASELINE, PROPOSED, ConfigurationError, LinkConfig, Scenario,
                         SweepAxes, SweepOptions, mode_index_range, mode_link_gains,
                         run_sweep, spectral_efficiency)
from oam_antijam.cli import SCENARIO_KEYS, format_sweep_csv, parse_scenario
from oam_antijam.signals import mode_energies, mode_transform
from oracles import elementwise_mode_snr, se_cells

FLOAT_FIELDS = ("r_tx", "r_rx", "axial_distance", "wavelength", "beta", "noise_variance_rx",
                "jam_variance_rx", "energy_threshold_tx", "power_per_mode")

# the mean PGA power gain weighs the gain levels by the priors: at equal priors
# it cannot be told from the unweighted mean
PGA_GAINS = st.sampled_from([(0.5, 2.0), (0.25, 1.5), (0.0, 3.0)])
PGA_PRIORS = st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)])


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
    cfg = LinkConfig(energy_threshold_tx=threshold,
                     samples_per_symbol=draw(st.sampled_from([1, 8, 64])),
                     pga_gains=draw(PGA_GAINS), pga_priors=draw(PGA_PRIORS))
    axes = SweepAxes(snr_db=tuple(snr_db), n_jammed=tuple(sorted(n_jammed)),
                     n_elements=(n,))
    return cfg, axes, options, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(small_sweeps())
def test_sweep_invariants(sweep):
    cfg, axes, options, trials, seed = sweep
    res = run_sweep(Scenario(cfg, axes, options, trials, seed))
    assert len(res) == 2 * len(axes.snr_db) * len(axes.n_jammed)
    for r in res:
        assert np.isfinite(r.se_bits) and r.se_bits >= 0.0
        if options.jam_model == "iid":
            assert abs(r.p_j + r.p_u - 1.0) <= 1e-12
    for proposed, baseline in zip(res[::2], res[1::2]):
        assert (proposed.scheme, baseline.scheme) == (PROPOSED, BASELINE)
        assert proposed.se_bits >= baseline.se_bits


@st.composite
def grids_and_sub_grids(draw):
    """A small scenario of either jamming model, and the same scenario on a random sub-grid."""
    jam_model = draw(st.sampled_from(["targeted", "iid"]))
    n_elements = draw(st.lists(st.sampled_from([1, 4, 8]), min_size=1, max_size=2, unique=True))
    n_jammed = [0] if jam_model == "iid" else draw(
        st.lists(st.integers(0, min(n_elements)), min_size=1, max_size=3, unique=True))
    snr_db = draw(st.lists(st.sampled_from([-10.0, 0.0, 7.5, 30.0]), min_size=1, max_size=3,
                           unique=True))
    options = SweepOptions(jam_model=jam_model, ber_trials=draw(st.integers(0, 3)),
                           ber_symbols=2)
    cfg = LinkConfig(energy_threshold_tx=0.1, samples_per_symbol=draw(st.sampled_from([1, 8])))
    axes = {"snr_db": snr_db, "n_jammed": n_jammed, "n_elements": n_elements}
    full = Scenario(cfg, SweepAxes(**{name: tuple(values) for name, values in axes.items()}),
                    options, draw(st.integers(1, 6)), draw(st.integers(0, 2**16)))
    sub_axes = {name: tuple(draw(st.lists(st.sampled_from(values), min_size=1,
                                          max_size=len(values), unique=True)))
                for name, values in axes.items()}
    return full, replace(full, axes=SweepAxes(**sub_axes))


@settings(max_examples=30, deadline=None)
@given(grids_and_sub_grids())
def test_a_row_depends_on_its_grid_point_alone(case):
    # every CSV row of the sub-grid is byte for byte the full grid's row for its point
    def rows(scenario):
        lines = format_sweep_csv(run_sweep(scenario)).splitlines()[1:]
        return {tuple(line.split(",")[:4]): line for line in lines}   # scheme, SNR, N, l_j

    full, sub = case
    sub_rows = rows(sub)
    axes = sub.axes
    assert len(sub_rows) == 2 * len(axes.snr_db) * len(axes.n_jammed) * len(axes.n_elements)
    full_rows = rows(full)
    assert {key: full_rows[key] for key in sub_rows} == sub_rows


@st.composite
def se_scenarios(draw):
    n = draw(st.sampled_from([4, 8, 16]))
    jam_model = draw(st.sampled_from(["targeted", "iid"]))
    n_jammed = [0] if jam_model == "iid" else draw(
        st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True))
    snr_db = draw(st.lists(st.sampled_from([-10.0, 0.0, 10.0, 30.0]),
                           min_size=1, max_size=2, unique=True))
    cfg = LinkConfig(n_tx=n, samples_per_symbol=draw(st.sampled_from([8, 64])),
                     energy_threshold_tx=draw(st.sampled_from([0.1, 0.5])),
                     pga_gains=draw(PGA_GAINS), pga_priors=draw(PGA_PRIORS))
    options = SweepOptions(jam_model=jam_model,
                           jam_variance_tx=draw(st.sampled_from([None, 0.3, 2.0])),
                           ber_trials=0)   # the BER probe does not touch SE
    axes = SweepAxes(snr_db=tuple(snr_db), n_jammed=tuple(sorted(n_jammed)))
    return Scenario(cfg, axes, options, draw(st.integers(200, 400)),
                    draw(st.integers(0, 2**16)))


SE_EXAMPLES = 50


@settings(max_examples=SE_EXAMPLES, derandomize=True, deadline=None)
@given(se_scenarios())
def test_monte_carlo_se_matches_closed_form(scenario):
    """|MC - E| <= 5 * stderr + 1e-4 on every cell, E from ``oracles.expected_se``.

    If the Monte Carlo mean is normal about E, a correct model fails a cell
    with probability 5.7e-7. An example has at most 2 schemes x 2 jammed
    counts x 2 SNRs = 8 cells, so the SE_EXAMPLES = 50 examples of a run hold
    at most 400 cells and fail with probability at most about 2.3e-4. The
    examples are derandomized, so every run draws the same ones.

    The mean is not normal where the detector almost always decides one way
    (at K = 64, E_th = 0.5 W and 0.3 W of jamming, a mode is flagged with
    probability 3.3e-6). If no trial decides the unlikelier way, the mean is
    that of E_major, the expectation with every decision the likelier way, and
    E sits off it by the expected count of such decisions times a mode's SE
    swing over the trial count. So a cell whose point expects fewer than 14
    such decisions also passes within the same bound of E_major; where 14 or
    more are expected, seeing none has probability below e^-14 = 8.3e-7.
    """
    bad = [(cell, mc, err, e, major) for cell, mc, err, e, major, departures
           in se_cells(scenario)
           if abs(mc - e) > 5 * err + 1e-4
           and not (departures < 14 and abs(mc - major) <= 5 * err + 1e-4)]
    assert not bad, bad[:4]


@given(st.integers(1, 1000))
def test_mode_index_range_is_n_consecutive_integers(n):
    start = math.floor((2 - n) / 2)
    assert mode_index_range(n) == list(range(start, start + n))


@given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_multiplex_then_decompose_round_trip(n, k, seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    w = mode_transform(n)
    recovered = w @ (w.conj().T @ samples)
    assert np.max(np.abs(recovered - samples)) <= 1e-12 * np.max(np.abs(samples))


@given(st.integers(1, 32), st.integers(1, 16), st.lists(st.integers(1, 3), max_size=2),
       st.data())
def test_mode_energies_on_rows_equal_the_full_energies_gathered(n, k, batch, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (*batch, n, k)
    samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rows = rng.integers(0, n, size=(*batch, data.draw(st.integers(1, n))))
    full = np.take_along_axis(mode_energies(samples), rows, axis=-1)
    np.testing.assert_allclose(mode_energies(samples, rows), full, rtol=1e-12)


@given(st.sampled_from(FLOAT_FIELDS),
       st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                 st.floats(max_value=0.0, exclude_max=True, allow_infinity=True)))
def test_link_config_rejects_non_positive_or_non_finite_floats(name, value):
    with pytest.raises(ConfigurationError, match=name):
        LinkConfig(**{name: value})


SCENARIO_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e200", "1e308", "1e-300", "abc",
                   "1,", "1" + "0" * 29)


@settings(max_examples=400, deadline=None)  # enough to try every (key, value) pair
@given(st.sampled_from(sorted(SCENARIO_KEYS)), st.sampled_from(SCENARIO_VALUES))
def test_scenario_value_is_rejected_or_runs(tmp_path_factory, section_key, value):
    section, key = section_key
    path = tmp_path_factory.mktemp("scenario") / "scenario.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    try:
        scenario = parse_scenario(str(path))
    except ConfigurationError:
        return
    # an accepted scenario runs, without a numeric failure: a tiny sweep keeps every
    # parsed value but the grid size
    axes = SweepAxes(snr_db=scenario.axes.snr_db[:1], n_elements=(4,),
                     n_jammed=tuple(j for j in scenario.axes.n_jammed if j <= 4))
    run_sweep(replace(scenario, axes=axes, trials=2))


@st.composite
def snr_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 8, 16]))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                         min_size=1, max_size=12))
    rows += [[flag] * n for flag in draw(st.lists(st.booleans(), max_size=2))]
    unit = st.floats(0.0, 1.0)
    p_c = draw(st.one_of(unit, st.lists(unit, min_size=n, max_size=n).map(np.array)))
    cfg = LinkConfig(n_tx=n, noise_variance_rx=draw(st.sampled_from([1e-3, 0.1, 10.0])))
    return (cfg, np.array(rows, dtype=bool), mode_link_gains(cfg),
            draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 10.0)), draw(unit),
            draw(st.floats(0.0, 1.0, exclude_max=True)), p_c)


def elementwise_bits(cfg, flagged, *rest):
    """(proposed, baseline) bits from the entry-by-entry SNRs of ``tests/oracles.py``.

    Each trial's rates are summed over the modes as ``spectral_efficiency`` sums them, one
    einsum over a 0/1 float mask, so the bits compare exactly.
    """
    rates = np.log2(1.0 + elementwise_mode_snr(cfg, flagged, *rest))
    flags = np.asarray(flagged, dtype=float)
    baseline = np.einsum("...n,...n->...", 1.0 - flags, rates)
    return baseline + np.einsum("...n,...n->...", flags, rates), baseline


@settings(max_examples=200, deadline=None)
@given(snr_cases())
def test_snr_tables_reduce_to_the_elementwise_bits(case):
    """The per-count tables of spectral_efficiency give the bits of the entry-by-entry SNRs.

    Batched, on one row and on an S = 3 sequence of links that differ in their noise: the
    baseline sums log2(1 + gamma) over the clean modes, the proposed scheme adds the sum over
    the flagged ones. Masks may add an all-flagged and a no-flagged row, N runs down to 1,
    p_c is scalar or per mode and p_u < 1.
    """
    cfg, flagged, *rest = case
    for mask in (flagged, flagged[0]):
        se = spectral_efficiency(cfg, mask, *rest)
        proposed, baseline = elementwise_bits(cfg, mask, *rest)
        assert np.array_equal(se[BASELINE], baseline)
        assert np.array_equal(se[PROPOSED], proposed)
    links = [replace(cfg, noise_variance_rx=noise) for noise in (1e-3, 0.1, 10.0)]
    se = spectral_efficiency(links, flagged, *rest)
    for row, link in enumerate(links):
        proposed, baseline = elementwise_bits(link, flagged, *rest)
        assert np.array_equal(se[BASELINE][row], baseline)
        assert np.array_equal(se[PROPOSED][row], proposed)


@st.composite
def link_batches(draw):
    n = draw(st.sampled_from([1, 2, 3, 8, 16, 64]))
    noises = draw(st.lists(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]), min_size=1,
                           max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flagged = rng.random((draw(st.integers(1, 40)), n)) < draw(st.floats(0.0, 1.0))
    p_c = rng.random((len(noises), n))
    unit = st.floats(0.0, 1.0)
    links = [LinkConfig(n_tx=n, noise_variance_rx=noise) for noise in noises]
    return (links, flagged, mode_link_gains(links[0]), draw(st.floats(0.0, 1e4)),
            draw(st.floats(0.0, 10.0)), draw(unit), draw(unit), p_c)


@settings(max_examples=200, deadline=None)
@given(link_batches())
def test_each_row_of_a_link_sequence_is_its_one_link_call(case):
    """spectral_efficiency on S = 1 to 4 links gives, row by row, the bits of each link alone.

    The links differ in their noise, each row weighs its modes by its own row of a (S, N)
    p_c, and the masks are random, so trials of many clean-mode counts share one call.
    """
    links, flagged, kappas, power, carrier, p_j, p_u, p_c = case
    batch = spectral_efficiency(links, flagged, kappas, power, carrier, p_j, p_u, p_c)
    for row, link in enumerate(links):
        single = spectral_efficiency(link, flagged, kappas, power, carrier, p_j, p_u, p_c[row])
        for scheme in (PROPOSED, BASELINE):
            assert batch[scheme].shape == (len(links), len(flagged))
            assert np.array_equal(batch[scheme][row], single[scheme])
