"""Per-mode SNR weighting, power allocation, spectrum efficiency, sweeps."""

import math
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oam_antijam import metrics
from oam_antijam import (
    BASELINE,
    ConfigurationError,
    LinkConfig,
    PROPOSED,
    Scenario,
    SweepAxes,
    SweepOptions,
    SweepResult,
    allocate_power,
    build_channel_matrix,
    check_trends,
    detection_probabilities,
    element_azimuths,
    mode_index_range,
    mode_link_gains,
    mode_snr,
    run_sweep,
    sense_targeted,
    spectral_efficiency,
)
from oam_antijam.jamming import complex_gaussian, substream
from oam_antijam.signals import mode_energies
from oracles import circulant, expected_se, targeted_elements

MODES_16 = tuple(mode_index_range(16))
GOLDEN = Path(__file__).parent / "golden"


def traced_peak(run) -> int:
    """Peak traced allocation, in bytes, while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def flags_for(jammed=()):
    return np.isin(MODES_16, jammed)


class TestAllocatePower:
    def test_uniform_split_when_nothing_jammed(self):
        cfg = LinkConfig(transmit_power_total=16.0)
        powers = allocate_power(cfg, flags_for())
        assert np.allclose(powers, 1.0)

    def test_all_jammed_gives_zero_allocation(self):
        cfg = LinkConfig()
        powers = allocate_power(cfg, flags_for(MODES_16))
        assert not powers.any()

    def test_four_of_sixteen(self):
        cfg = LinkConfig(transmit_power_total=12.0)
        jammed = (0, 1, 2, 3)
        powers = allocate_power(cfg, flags_for(jammed))
        for i, l in enumerate(MODES_16):
            expected = 0.0 if l in jammed else 1.0
            assert powers[i] == pytest.approx(expected)

    def test_each_trial_splits_over_its_own_clean_modes(self):
        cfg = LinkConfig(transmit_power_total=12.0)
        rows = [flags_for(), flags_for((0, 1, 2, 3)), flags_for(MODES_16)]
        powers = allocate_power(cfg, np.stack(rows))
        assert powers.shape == (3, 16)
        assert powers.sum(axis=1) == pytest.approx([12.0, 12.0, 0.0])
        for row, flagged in zip(powers, rows):
            assert np.array_equal(row, allocate_power(cfg, flagged))


class TestSpectralEfficiency:
    def test_all_zero(self):
        assert spectral_efficiency(np.zeros(16)) == 0.0

    def test_single_unit_snr(self):
        assert spectral_efficiency([1.0]) == pytest.approx(1.0)

    def test_two_modes_at_three(self):
        assert spectral_efficiency([3.0, 3.0]) == pytest.approx(4.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency([-0.5])

    def test_strictly_increasing_in_any_gamma(self):
        base = [0.3, 1.0, 2.5]
        c0 = spectral_efficiency(base)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 0.1
            assert spectral_efficiency(bumped) > c0

    def test_mask_restricts_the_sum_per_trial(self):
        gamma = np.array([[3.0, 1.0, 7.0], [1.0, 1.0, 1.0]])
        modes = np.array([[True, False, True], [False, False, False]])
        assert spectral_efficiency(gamma, modes) == pytest.approx([5.0, 0.0])
        assert spectral_efficiency(gamma, modes) + spectral_efficiency(gamma, ~modes) \
            == pytest.approx(spectral_efficiency(gamma))


class TestModeSnr:
    CFG = LinkConfig()

    def gains(self, cfg=CFG):
        return mode_link_gains(cfg)

    def test_zero_weight_annihilates(self):
        out = mode_snr(self.CFG, flags_for(), self.gains(), 1.0, p_j=1.0, p_u=0.0)
        assert not out.any()

    def test_huge_disturbance_drives_snr_to_zero(self):
        cfg = LinkConfig(noise_variance_rx=1e12, jam_variance_rx=1e12, beta=1.0)
        out = mode_snr(cfg, flags_for(), self.gains(cfg), 1.0, p_j=0.0, p_u=1.0)
        assert out.max() < 1e-9

    def test_jammed_branch_uses_reflected_power(self):
        flagged = flags_for((2,))
        row = MODES_16.index(2)
        out = mode_snr(self.CFG, flagged, self.gains(), 1.0, p_j=1.0, p_u=0.0, p_c=0.5)
        assert out[row] > 0.0
        assert not np.delete(out, row).any()
        # halving p_c halves the weighted snr
        half = mode_snr(self.CFG, flagged, self.gains(), 1.0, p_j=1.0, p_u=0.0, p_c=0.25)
        assert half[row] == pytest.approx(0.5 * out[row], rel=1e-12)
        # and the carrier variance scales it linearly
        double = mode_snr(self.CFG, flagged, self.gains(), 2.0, p_j=1.0, p_u=0.0, p_c=0.5)
        assert double[row] == pytest.approx(2.0 * out[row], rel=1e-12)

    def test_formula_against_matrix_oracle(self):
        # independent evaluation with the mode gain taken from the full matrix
        cfg = replace(self.CFG, noise_variance_rx=0.1, transmit_power_total=1600.0)
        l = 4
        gammas = mode_snr(cfg, flags_for((0, 1, 2, 3)), mode_link_gains(cfg), 1.0,
                          p_j=0.0, p_u=1.0)
        out = gammas[MODES_16.index(l)]

        h = circulant(build_channel_matrix(cfg))
        phi = element_azimuths(16)
        kappa = 0.0
        for m in range(16):
            for n in range(16):
                kappa += np.exp(-1j * phi[m] * l) * h[m, n] * np.exp(1j * phi[n] * l)
        kappa /= 16.0  # 1/N
        expected = (abs(kappa) ** 2 * (1600.0 / 12.0)
                    / (16 * (cfg.noise_variance_rx + cfg.jam_variance_rx)))
        assert out == pytest.approx(expected, rel=1e-9)

    def test_mask_must_cover_every_mode(self):
        for mask in (np.zeros(99, dtype=bool), np.zeros((4, 15), dtype=bool), True):
            with pytest.raises(ValueError, match="does not cover"):
                mode_snr(self.CFG, mask, self.gains(), 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("probs", [dict(p_c=1.5), dict(p_j=-0.1), dict(p_u=1.2)])
    def test_probability_outside_unit_interval_rejected(self, probs):
        args = dict(p_j=1.0, p_u=0.0) | probs
        with pytest.raises(ValueError, match=next(iter(probs))):
            mode_snr(self.CFG, flags_for((2,)), self.gains(), 1.0, **args)

    @pytest.mark.parametrize("name, value, message", [
        ("p_j", np.nan, "p_j"), ("p_u", np.nan, "p_u"), ("p_c", np.nan, "p_c"),
        ("p_c", np.r_[np.full(15, 0.5), np.nan], "p_c"),
        ("carrier_variance", np.nan, "carrier variance")])
    def test_nan_rejected(self, name, value, message):
        # a check for values outside [0, 1] or below 0 lets nan through to the SNRs
        args = dict(carrier_variance=1.0, p_j=1.0, p_u=0.5) | {name: value}
        with pytest.raises(ValueError, match=message):
            mode_snr(self.CFG, flags_for((2,)), self.gains(), **args)

    def test_batched_rows_match_single_trial_calls(self):
        flagged = np.random.default_rng(3).random((5, 16)) < 0.4
        p_c = np.linspace(0.5, 1.0, 16)
        batch = mode_snr(self.CFG, flagged, self.gains(), 1.0, 0.7, 0.9, p_c)
        for row, mask in zip(batch, flagged):
            assert np.array_equal(row, mode_snr(self.CFG, mask, self.gains(), 1.0,
                                                0.7, 0.9, p_c))


class TestDrawJamSets:
    @pytest.mark.parametrize("n, n_jammed", [(16, 5), (8, 8), (8, 0), (1, 1)])
    def test_rows_hold_distinct_in_range_modes(self, n, n_jammed):
        sets = metrics._draw_jam_sets(substream(6, 0), 300, n, n_jammed)
        assert sets.shape == (300, n_jammed)
        assert np.all((sets >= 0) & (sets < n))
        assert all(len(set(row)) == n_jammed for row in sets)

    def test_mode_hit_counts_are_uniform(self):
        trials, n, n_jammed = 4000, 16, 4
        sets = metrics._draw_jam_sets(substream(7, 0), trials, n, n_jammed)
        hits = np.bincount(sets.ravel(), minlength=n)
        assert hits.sum() == trials * n_jammed
        assert stats.chisquare(hits).pvalue > 1e-3

    def test_same_seed_same_sets(self):
        def draw(seed):
            return metrics._draw_jam_sets(substream(seed, 3, 1), 50, 16, 4)
        assert np.array_equal(draw(8), draw(8))
        assert not np.array_equal(draw(8), draw(9))


class TestRunSweep:
    AXES = SweepAxes(snr_db=(0.0, 10.0), n_jammed=(0, 2), n_elements=(16,))

    def test_deterministic_in_seed(self):
        from oam_antijam.cli import format_sweep_csv

        cfg = LinkConfig()
        a = run_sweep(Scenario(cfg, self.AXES, trials=30, seed=4))
        b = run_sweep(Scenario(cfg, self.AXES, trials=30, seed=4))
        assert format_sweep_csv(a) == format_sweep_csv(b)
        assert [r.se_stderr for r in a] == [r.se_stderr for r in b]
        c = run_sweep(Scenario(cfg, self.AXES, trials=30, seed=5))
        assert any(x.se_bits != y.se_bits for x, y in zip(a, c))

    def test_row_layout(self):
        cfg = LinkConfig()
        res = run_sweep(Scenario(cfg, self.AXES, trials=5, seed=1))
        assert len(res) == 2 * 2 * 2
        assert [r.scheme for r in res[:2]] == [PROPOSED, BASELINE]
        assert all(r.se_bits >= 0.0 for r in res)

    def test_baseline_never_exceeds_proposed(self):
        cfg = LinkConfig()
        res = run_sweep(Scenario(cfg, self.AXES, trials=60, seed=9))
        pairs = {(r.snr_db, r.n_jammed): {} for r in res}
        for r in res:
            pairs[(r.snr_db, r.n_jammed)][r.scheme] = r.se_bits
        for entry in pairs.values():
            assert entry[PROPOSED] >= entry[BASELINE]

    def test_trend_checks_pass_on_default_configuration(self):
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(0.0, 10.0, 20.0), n_jammed=(0, 4),
                         n_elements=(16, 20))
        res = run_sweep(Scenario(cfg, axes, trials=120, seed=2))
        for chk in check_trends(res):
            assert chk.passed, f"{chk.name}: {chk.detail}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ber_agrees_with_one_minus_p_c(self, seed):
        """Every measured BER lies within 5 sigma + 1/D of 1 - p_c.

        D = min(ber_trials, trials) x l_j probes of ber_symbols symbols each; all
        symbols of a probe share one mode's threshold, so the BER's variance is at
        most (1 - p_c) p_c / D. Under a normal approximation the chance that a
        correct probe leaves the bound is below 6e-7 per cell, and below 2e-5
        over the 27 cells of the three seeds.
        """
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(-10.0, 0.0, 10.0), n_jammed=(2, 4, 8), n_elements=(8,))
        options = SweepOptions(ber_trials=150, ber_symbols=16)
        results = run_sweep(Scenario(cfg, axes, options, trials=150, seed=seed))
        for r in [r for r in results if r.scheme == PROPOSED]:
            probes = 150 * r.n_jammed
            q = 1.0 - r.p_c
            bound = 5.0 * math.sqrt(q * (1.0 - q) / probes) + 1.0 / probes
            assert abs(r.ber - q) <= bound, (r.n_jammed, r.snr_db, r.ber, q, bound)

    def test_jammed_count_beyond_modes_rejected(self):
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(17,), n_elements=(16,))
        with pytest.raises(ConfigurationError):
            Scenario(cfg, axes, trials=2, seed=0)

    def test_broadband_model_runs(self):
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(8,))
        opts = SweepOptions(jam_model="iid", ber_trials=2, ber_symbols=2)
        res = run_sweep(Scenario(cfg, axes, opts, trials=20, seed=3))
        assert res[0].p_u == pytest.approx(
            1.0 - res[0].p_j, abs=1e-12)  # same gamma tail for both

    def test_empty_ring_rejected(self):
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(16, 0))
        with pytest.raises(ConfigurationError, match="ring size"):
            Scenario(cfg, axes, trials=2, seed=0)

    @pytest.mark.parametrize("axis", ["snr_db", "n_jammed", "n_elements"])
    def test_empty_axis_rejected(self, axis):
        # used to construct, then leave a header-only CSV and fail on min() of no rows
        with pytest.raises(ConfigurationError, match=f"the {axis} axis is empty"):
            Scenario(LinkConfig(), SweepAxes(**{axis: ()}), trials=2)

    def test_negative_jammed_count_rejected(self):
        # used to run with the power budget of N + 3 modes
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(-3,), n_elements=(16,))
        with pytest.raises(ConfigurationError, match="n_jammed -3"):
            Scenario(cfg, axes, trials=2, seed=0)

    def test_infeasible_last_snr_rejected_before_any_point(self, monkeypatch):
        # the transmit total of the last point, 1e306 W per mode on 400 modes, overflows
        computed = []
        monkeypatch.setattr(metrics, "_sweep_point",
                            lambda *args: computed.append(args))
        cfg = LinkConfig(transmit_power_total=16e306)
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,), n_elements=(16, 400))
        with pytest.raises(ConfigurationError, match="transmit_power_total"):
            run_sweep(Scenario(cfg, axes, trials=2, seed=0))
        assert computed == []

    def test_point_error_names_the_grid_point(self):
        cfg = LinkConfig(transmit_power_total=16e306)
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,), n_elements=(16, 400))
        with pytest.raises(ConfigurationError,
                           match=r"^grid point \(N=400, l_j=0, snr=0 dB\): transmit_power_total"):
            Scenario(cfg, axes, trials=2, seed=0)

    def test_negative_seed_rejected(self):
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario(LinkConfig(), axes, trials=2, seed=-1)

    @pytest.mark.parametrize("snr_db, reason", [
        (float("nan"), "not a finite number"),
        (float("inf"), "not a finite number"),
        (4000.0, "out of range"),
        (-4000.0, "out of range"),
    ])
    def test_out_of_range_snr_rejected(self, snr_db, reason):
        axes = SweepAxes(snr_db=(0.0, snr_db), n_jammed=(0,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match=reason):
            Scenario(LinkConfig(), axes, trials=2, seed=0)

    @pytest.mark.parametrize("knob", ["ber_trials", "ber_symbols"])
    def test_negative_probe_budget_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            SweepOptions(**{knob: -1})

    def test_three_level_pga_rejected_before_any_point(self):
        # the config itself refuses it, so no sweep can be given one
        with pytest.raises(ConfigurationError, match="reflected link is binary"):
            LinkConfig(pga_gains=(0.5, 1.0, 2.0), pga_priors=(0.25, 0.25, 0.5))


    @pytest.mark.parametrize("axis", ["snr_db", "n_jammed", "n_elements"])
    def test_repeated_axis_value_rejected_before_any_point(self, axis, monkeypatch):
        # a repeated value used to give several rows, each with its own SE, for one key
        computed = []
        monkeypatch.setattr(metrics, "_sweep_point", lambda *args: computed.append(args))
        grid = {"snr_db": (10.0,), "n_jammed": (2,), "n_elements": (8,)}
        grid[axis] *= 2
        with pytest.raises(ConfigurationError, match=f"{axis} axis repeats"):
            run_sweep(Scenario(LinkConfig(), SweepAxes(**grid),
                               trials=2, seed=0))
        assert computed == []

    @pytest.mark.parametrize("length", [sys.maxsize, 2 ** 62])
    def test_preamble_beyond_any_array_fails_at_once(self, length):
        # the preamble's per-symbol gains are one complex array, so a length
        # numpy cannot hold is refused before any memory is taken
        cfg = LinkConfig(preamble_length=length)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(2,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="beyond numpy"):
            Scenario(cfg, axes, trials=2, seed=0)

    @pytest.mark.parametrize("count, largest", [
        ("preamble_length", sys.maxsize // 16),     # one complex gain per symbol
        ("ber_symbols", sys.maxsize // 16),         # one complex gain per probe symbol
        ("samples_per_symbol", sys.maxsize // (16 * 16)),   # a 16-symbol link chunk
        ("trials", sys.maxsize // (16 * 2 * 64)),   # the (trials, l_j, K) sensing draw
    ])
    def test_array_bound_is_numpys_byte_limit(self, count, largest):
        # at the largest count whose arrays numpy can hold, one more is refused. One
        # probe trial on 2 jammed modes sends 16 symbols, as many as the preamble;
        # the ber_symbols case probes 1 jammed mode, so it sends ber_symbols symbols
        def validate(value):
            cfg = LinkConfig()
            options, trials, n_jammed = SweepOptions(ber_trials=1), 2, 2
            if count == "trials":
                trials = value
            elif count == "ber_symbols":
                options, n_jammed = SweepOptions(ber_trials=1, ber_symbols=value), 1
            else:
                cfg = replace(cfg, **{count: value})
            axes = SweepAxes(snr_db=(10.0,), n_jammed=(n_jammed,), n_elements=(8,))
            Scenario(cfg, axes, options, trials, 0)

        validate(largest)
        with pytest.raises(ConfigurationError, match="beyond numpy"):
            validate(largest + 1)

    def test_probe_bound_counts_every_batched_symbol(self):
        # the probe sends min(ber_trials, trials) x max(l_j) x ber_symbols symbols in
        # one batch: 3 x 4 x s complex gains, whatever the smaller l_j of the grid
        cfg = LinkConfig()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(1, 4), n_elements=(8,))
        largest = sys.maxsize // (16 * 3 * 4)

        def validate(ber_trials, trials, ber_symbols):
            options = SweepOptions(ber_trials=ber_trials, ber_symbols=ber_symbols)
            Scenario(cfg, axes, options, trials, 0)

        for ber_trials, trials in ((3, 3), (3, 50), (50, 3)):
            validate(ber_trials, trials, largest)
            with pytest.raises(ConfigurationError, match="beyond numpy"):
                validate(ber_trials, trials, largest + 1)


class TestExpectedSpectralEfficiency:
    """Every Monte Carlo SE mean lies within 5 standard errors of its closed form.

    Each (scheme, grid point) cell passes when |MC - E| <= 5 * stderr + 1e-4,
    with E from ``oracles.expected_se`` at the point's own per-mode p_c, the
    one ``_point_thresholds`` calibrates on stream (point_index, 0). The floor
    covers cells whose trials all flag the same modes (stderr 0, E off by the
    ~3e-6 chance per trial that a mode goes unflagged). If the mean is normal
    about E, a correct model fails a cell with probability 5.7e-7, and one of
    the 192 cells here with probability about 1.1e-4 at fresh seeds. At these
    seeds the worst |z| over cells with a non-rounding stderr is 2.7 on the
    targeted golden, 2.4 on the iid golden, 1.7 on the wide golden and 2.9 on
    the default grid. SE depends on |kappa|^2, so this pins the link gains to
    the model as well as the sampling.
    """

    @staticmethod
    def cells(scenario):
        """(cell, MC mean, stderr, E) for every cell of a scenario's sweep."""
        cfg0, axes, options, seed = (scenario.config, scenario.axes, scenario.options,
                                     scenario.seed)
        results = run_sweep(scenario)
        by_cell = {(r.scheme, r.n_elements, r.n_jammed, r.snr_db): r for r in results}
        iid = options.jam_model == metrics.BROADBAND
        grid = product(axes.n_elements, axes.n_jammed, axes.snr_db)
        for point_index, (n, n_jammed, snr_db) in enumerate(grid):
            cfg = metrics._point_config(cfg0, n, n_jammed, snr_db)
            kappas = mode_link_gains(cfg)
            carrier = cfg.jam_variance_tx if iid else options.mode_jam_variance
            p_j, p_u = detection_probabilities(cfg.energy_threshold_tx,
                                               cfg.samples_per_symbol, carrier)
            _, p_c = metrics._point_thresholds(
                cfg, kappas, carrier, substream(seed, point_index, 0))
            expected = expected_se(cfg, kappas, carrier, p_j, p_u if iid else 1.0, p_c,
                                   n if iid else n_jammed, p_j)
            for scheme, value in zip((PROPOSED, BASELINE), expected):
                cell = by_cell[(scheme, n, n_jammed, snr_db)]
                yield (scheme, n, n_jammed, snr_db), cell.se_bits, cell.se_stderr, value

    @pytest.mark.parametrize("golden, seed", [("targeted", None), ("iid", None), ("wide", None),
                                              (None, 1), (None, 2)])
    def test_monte_carlo_mean_matches_closed_form(self, golden, seed):
        from oam_antijam.cli import parse_scenario

        if golden is None:   # the default grid
            scenario = replace(parse_scenario(None), trials=200, seed=seed)
        else:
            scenario = parse_scenario(str(GOLDEN / f"{golden}.ini"))
        cells = list(self.cells(scenario))
        assert len(cells) == 2 * len(list(product(scenario.axes.n_elements,
                                                  scenario.axes.n_jammed,
                                                  scenario.axes.snr_db)))
        bad = [(cell, mc, err, e) for cell, mc, err, e in cells
               if abs(mc - e) > 5 * err + 1e-4]
        assert not bad, bad[:4]

    def test_closed_form_by_enumeration(self):
        # N = 3, two candidate modes: weigh every flag pattern by its probability
        cfg = LinkConfig(n_tx=3, transmit_power_total=30.0)
        kappas = mode_link_gains(cfg)
        f, p_j, p_c = 0.3, 0.9, np.array([0.6, 0.7, 0.8])
        proposed = baseline = 0.0
        for jam_set in ((0, 1), (0, 2), (1, 2)):          # uniform targeted jam sets
            for flags in product((False, True), repeat=2):
                weight = np.prod([f if x else 1 - f for x in flags]) / 3
                flagged = np.zeros(3, dtype=bool)
                flagged[[jam_set[i] for i in range(2) if flags[i]]] = True
                gamma = mode_snr(cfg, flagged, kappas, 1.0, p_j, 1.0, p_c)
                baseline += weight * spectral_efficiency(gamma, ~flagged)
                proposed += weight * spectral_efficiency(gamma)
        got = expected_se(cfg, kappas, 1.0, p_j, 1.0, p_c, 2, f)
        assert got == pytest.approx((proposed, baseline), rel=1e-12)


class TestCheckTrends:
    """Each trend check fails on a result list made to violate it, and only that check."""

    @staticmethod
    def results(changes=(), se_stderr=0.0):
        # SE grows with ring size and SNR, falls with the jammed count; baseline is 0.1 lower
        rows = []
        for n_el in (8, 16):
            for n_jam in (0, 2):
                for snr in (0.0, 10.0):
                    for scheme, offset in ((PROPOSED, 0.0), (BASELINE, -0.1)):
                        key = (scheme, n_el, n_jam, snr)
                        se = dict(changes).get(key, n_el / 8 - n_jam / 4 + snr / 10 + 1 + offset)
                        rows.append(SweepResult(scheme=scheme, snr_db=snr, n_elements=n_el,
                                                n_jammed=n_jam, se_bits=se, p_j=1.0, p_u=1.0,
                                                p_c=np.nan, ber=np.nan, trials=10, seed=0,
                                                se_stderr=se_stderr))
        return rows

    def test_monotone_results_pass_every_check(self):
        checks = check_trends(self.results())
        assert len(checks) == 4
        assert all(chk.passed for chk in checks)

    @pytest.mark.parametrize("name, changes", [
        ("proposed >= baseline at every grid point", {(BASELINE, 16, 2, 10.0): 3.55}),
        ("mean SE non-increasing in jammed-mode count", {(PROPOSED, 8, 2, 0.0): 2.2}),
        ("mean SE non-decreasing in SNR", {(PROPOSED, 16, 0, 0.0): 4.5}),
        ("mean SE non-decreasing in element count at SNR >= 0 dB",
         {(PROPOSED, 16, 2, 0.0): 1.4, (BASELINE, 16, 2, 0.0): 1.3}),
    ])
    def test_each_violation_fails_its_check(self, name, changes):
        failed = {chk.name for chk in check_trends(self.results(changes)) if chk.passed is False}
        assert failed == {name}

    def test_one_standard_error_of_slack(self):
        changes = {(PROPOSED, 16, 0, 0.0): 4.5}   # 0.5 above the 10 dB point
        assert all(chk.passed for chk in check_trends(self.results(changes, se_stderr=0.5)))
        assert not all(chk.passed for chk in check_trends(self.results(changes, se_stderr=0.3)))


class TestBroadbandSensing:
    """The iid path draws each mode's energy as Gamma(K, sigma2/K)."""

    CFG = LinkConfig(energy_threshold_tx=0.1)
    OPTS = SweepOptions(jam_model="iid", ber_trials=0)

    def test_flag_rate_matches_analytic_p_j(self, monkeypatch):
        masks = []

        def spy(cfg, flagged, *args):
            masks.append(flagged)
            return mode_snr(cfg, flagged, *args)

        monkeypatch.setattr(metrics, "mode_snr", spy)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(16,))
        res = run_sweep(Scenario(self.CFG, axes, self.OPTS, trials=2000, seed=8))
        (flagged,) = masks
        p_j = res[0].p_j
        assert 0.2 < p_j < 0.8
        sigma = np.sqrt(p_j * (1.0 - p_j) / flagged.size)
        assert abs(flagged.mean() - p_j) < 5 * sigma

    def test_p_c_reported_on_every_iid_row(self):
        axes = SweepAxes(snr_db=(-10.0, 30.0), n_jammed=(0,), n_elements=(8,))
        res = run_sweep(Scenario(self.CFG, axes, self.OPTS, trials=10, seed=3))
        assert all(0.0 < r.p_c <= 1.0 for r in res)
        # at l_j = 0 flagged modes still ride the reflected link, weighted by p_c
        at_30 = {r.scheme: r.se_bits for r in res if r.n_jammed == 0 and r.snr_db == 30.0}
        assert at_30[PROPOSED] > at_30[BASELINE]

    def test_jammed_count_rejected_before_any_point(self, monkeypatch):
        # the iid draws jam no chosen modes, so l_j would only cut the power budget
        computed = []
        monkeypatch.setattr(metrics, "_sweep_point", lambda *args: computed.append(args))
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0, 2), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="n_jammed must be 0"):
            run_sweep(Scenario(self.CFG, axes, self.OPTS, trials=2, seed=0))
        assert computed == []

    def test_p_c_is_nan_only_on_targeted_rows_without_jamming(self):
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0, 2), n_elements=(8,))
        res = run_sweep(Scenario(LinkConfig(), axes,
                                 SweepOptions(ber_trials=0), trials=10, seed=3))
        assert all(np.isnan(r.p_c) == (r.n_jammed == 0) for r in res)

    def test_sensing_memory_is_bounded_by_trials_times_modes(self):
        trials, n, k = 2000, 16, 64
        cfg = replace(self.CFG, samples_per_symbol=k)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(n,))
        peak = traced_peak(lambda: run_sweep(Scenario(cfg, axes, self.OPTS, trials=trials,
                                                      seed=1)))
        # one (trials, N, K) complex array would take 32.8 MB
        assert peak < trials * n * k * np.dtype(complex).itemsize / 8


class TestTargetedSensing:
    """Targeted sensing multiplexes only the jammed columns of W^H, in trial blocks."""

    @pytest.mark.parametrize("n", [1, 8, 128])
    @pytest.mark.parametrize("jammed", ["none", "one", "all"])
    def test_matches_the_dense_element_level_oracle(self, n, jammed):
        k, variance, threshold = 16, 1.0, 0.5
        step = max(1, metrics.SENSE_BLOCK_SAMPLES // (n * k))
        trials = 2 * step + 3     # two full blocks and a short one
        n_jammed = {"none": 0, "one": 1, "all": n}[jammed]
        jam_sets = metrics._draw_jam_sets(np.random.default_rng(4), trials, n, n_jammed)
        rng = substream(9, 1)
        got = sense_targeted(rng, jam_sets, n, k, variance)
        oracle_rng = substream(9, 1)
        samples = complex_gaussian(oracle_rng, jam_sets.shape + (k,), variance)
        # every mode of every trial at element level: the (trials, N, K) round trip
        expected = mode_energies(targeted_elements(samples, jam_sets, n))
        assert got.shape == (trials, n)
        assert np.array_equal(got >= threshold, expected >= threshold)
        # clean modes hold rounding residue (~1e-32) in both, so the relative
        # tolerance is taken against the jamming variance
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * variance)
        # the same draw, so the stream stands at the same place afterwards
        assert rng.random() == oracle_rng.random()
        if not n_jammed:
            assert not got.any()

    @pytest.mark.parametrize("jam_sets", [
        [[3, 3]],               # a repeated position would sum two draws on one mode
        [[-1]],                 # a negative position would wrap to the last mode
        [[8]],                  # past the last mode
        [[0.0, 1.0]],           # not integers
        [0, 1],                 # not one row per trial
    ])
    def test_malformed_jam_sets_rejected_before_any_draw(self, jam_sets):
        rng = substream(1, 0)
        with pytest.raises(ValueError, match="jam_sets"):
            sense_targeted(rng, np.array(jam_sets), 8, 64, 1.0)
        assert rng.random() == substream(1, 0).random()

    def test_memory_is_bounded_by_the_jammed_modes(self):
        trials, n, k = 2000, 16, 64
        cfg = LinkConfig(samples_per_symbol=k)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(2,), n_elements=(n,))
        peak = traced_peak(lambda: run_sweep(Scenario(cfg, axes, SweepOptions(ber_trials=0),
                                                      trials=trials, seed=1)))
        # half of one dense (trials, N, K) complex array: 16.4 MB
        assert peak < trials * n * k * np.dtype(complex).itemsize / 2
