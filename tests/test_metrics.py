"""Per-mode SNR weighting, power allocation, spectrum efficiency, sweeps."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from oam_antijam import metrics
from oam_antijam import (
    APPROXIMATE,
    BASELINE,
    ConfigurationError,
    LinkConfig,
    PROPOSED,
    SweepAxes,
    SweepOptions,
    allocate_power,
    build_channel_matrix,
    check_trends,
    element_azimuths,
    mode_index_range,
    mode_link_gains,
    mode_snr,
    run_sweep,
    spectral_efficiency,
)
from oam_antijam.jamming import RandomStream

MODES_16 = tuple(mode_index_range(16))


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
    CFG = LinkConfig().with_unit_element_gain()

    def gains(self, cfg=CFG):
        return mode_link_gains(cfg)

    def test_zero_weight_annihilates(self):
        out = mode_snr(self.CFG, flags_for(), self.gains(), 1.0, p_j=1.0, p_u=0.0)
        assert not out.any()

    def test_huge_disturbance_drives_snr_to_zero(self):
        cfg = LinkConfig(noise_variance_rx=1e12, jam_variance_rx=1e12)
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

        h = build_channel_matrix(cfg, APPROXIMATE).gains
        phi = element_azimuths(16)
        kappa = 0.0
        for m in range(16):
            for n in range(16):
                kappa += np.exp(-1j * phi[m] * l) * h[m, n] * np.exp(1j * phi[n] * l)
        kappa /= 16.0  # 1/sqrt(M*N)
        expected = (abs(kappa) ** 2 * (1600.0 / 12.0)
                    / (16 * (cfg.noise_variance_rx + cfg.jam_variance_rx)))
        assert out == pytest.approx(expected, rel=1e-9)

    def test_mask_must_cover_every_mode(self):
        with pytest.raises(ValueError):
            mode_snr(self.CFG, np.zeros(99, dtype=bool), self.gains(), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("probs", [dict(p_c=1.5), dict(p_j=-0.1), dict(p_u=1.2)])
    def test_probability_outside_unit_interval_rejected(self, probs):
        args = dict(p_j=1.0, p_u=0.0) | probs
        with pytest.raises(ValueError, match=next(iter(probs))):
            mode_snr(self.CFG, flags_for((2,)), self.gains(), 1.0, **args)

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
        sets = metrics._draw_jam_sets(RandomStream(6, 0).generator(), 300, n, n_jammed)
        assert sets.shape == (300, n_jammed)
        assert np.all((sets >= 0) & (sets < n))
        assert all(len(set(row)) == n_jammed for row in sets)

    def test_mode_hit_counts_are_uniform(self):
        trials, n, n_jammed = 4000, 16, 4
        sets = metrics._draw_jam_sets(RandomStream(7, 0).generator(), trials, n, n_jammed)
        hits = np.bincount(sets.ravel(), minlength=n)
        assert hits.sum() == trials * n_jammed
        assert stats.chisquare(hits).pvalue > 1e-3

    def test_same_seed_same_sets(self):
        def draw(seed):
            return metrics._draw_jam_sets(RandomStream(seed, (3, 1)).generator(), 50, 16, 4)
        assert np.array_equal(draw(8), draw(8))
        assert not np.array_equal(draw(8), draw(9))


class TestRunSweep:
    AXES = SweepAxes(snr_db=(0.0, 10.0), n_jammed=(0, 2), n_elements=(16,))

    def test_deterministic_in_seed(self):
        from oam_antijam.cli import format_sweep_csv

        cfg = LinkConfig().with_unit_element_gain()
        a = run_sweep(cfg, self.AXES, trials=30, seed=4)
        b = run_sweep(cfg, self.AXES, trials=30, seed=4)
        assert format_sweep_csv(a) == format_sweep_csv(b)
        assert [r.se_stderr for r in a] == [r.se_stderr for r in b]
        c = run_sweep(cfg, self.AXES, trials=30, seed=5)
        assert any(x.se_bits != y.se_bits for x, y in zip(a, c))

    def test_row_layout(self):
        cfg = LinkConfig().with_unit_element_gain()
        res = run_sweep(cfg, self.AXES, trials=5, seed=1)
        assert len(res) == 2 * 2 * 2
        assert [r.scheme for r in res[:2]] == [PROPOSED, BASELINE]
        assert all(r.se_bits >= 0.0 for r in res)

    def test_baseline_never_exceeds_proposed(self):
        cfg = LinkConfig().with_unit_element_gain()
        res = run_sweep(cfg, self.AXES, trials=60, seed=9)
        pairs = {(r.snr_db, r.n_jammed): {} for r in res}
        for r in res:
            pairs[(r.snr_db, r.n_jammed)][r.scheme] = r.se_bits
        for entry in pairs.values():
            assert entry[PROPOSED] >= entry[BASELINE]

    def test_trend_checks_pass_on_default_configuration(self):
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(0.0, 10.0, 20.0), n_jammed=(0, 4),
                         n_elements=(16, 20))
        res = run_sweep(cfg, axes, trials=120, seed=2)
        for chk in check_trends(res):
            assert chk.passed, f"{chk.name}: {chk.detail}"

    def test_jammed_count_beyond_modes_rejected(self):
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(17,), n_elements=(16,))
        with pytest.raises(ConfigurationError):
            run_sweep(cfg, axes, trials=2, seed=0)

    def test_broadband_model_runs(self):
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(8,))
        opts = SweepOptions(jam_model="iid", ber_trials=2, ber_symbols=2)
        res = run_sweep(cfg, axes, trials=20, seed=3, options=opts)
        assert res[0].p_u == pytest.approx(
            1.0 - res[0].p_j, abs=1e-12)  # same gamma tail for both

    def test_unknown_scheme_rejected(self):
        cfg = LinkConfig().with_unit_element_gain()
        with pytest.raises(ConfigurationError):
            run_sweep(cfg, self.AXES, schemes=("improved",), trials=2, seed=0)

    def test_snr_reference_including_jamming(self):
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,), n_elements=(16,))
        opts = SweepOptions(snr_reference="noise-plus-jamming", ber_trials=0)
        with_jam = run_sweep(cfg, axes, trials=20, seed=1, options=opts)
        plain = run_sweep(cfg, axes, trials=20, seed=1)
        # total disturbance is exactly per-mode/SNR under the alternative
        # reference, versus per-mode/SNR + jamming under the default
        assert with_jam[0].se_bits > plain[0].se_bits
        assert with_jam[0].se_bits == pytest.approx(plain[0].se_bits, rel=0.01)

    def test_snr_reference_infeasible_point_rejected(self):
        cfg = LinkConfig().with_unit_element_gain()
        # 100 W per mode at 30 dB demands a sub-jamming disturbance level
        axes = SweepAxes(snr_db=(30.0,), n_jammed=(0,), n_elements=(16,))
        opts = SweepOptions(snr_reference="noise-plus-jamming")
        with pytest.raises(ConfigurationError, match="infeasible"):
            run_sweep(cfg, axes, trials=2, seed=0, options=opts)

    def test_unknown_snr_reference(self):
        with pytest.raises(ConfigurationError):
            SweepOptions(snr_reference="sinr")

    def test_empty_ring_rejected(self):
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(16, 0))
        with pytest.raises(ConfigurationError, match="ring size"):
            run_sweep(cfg, axes, trials=2, seed=0)

    def test_negative_jammed_count_rejected(self):
        # used to run with the power budget of N + 3 modes
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(-3,), n_elements=(16,))
        with pytest.raises(ConfigurationError, match="n_jammed -3"):
            run_sweep(cfg, axes, trials=2, seed=0)

    def test_infeasible_last_snr_rejected_before_any_point(self, monkeypatch):
        computed = []
        monkeypatch.setattr(metrics, "_sweep_point",
                            lambda *args: computed.append(args))
        cfg = LinkConfig().with_unit_element_gain()
        axes = SweepAxes(snr_db=(0.0, 10.0, 30.0), n_jammed=(0,), n_elements=(16,))
        opts = SweepOptions(snr_reference="noise-plus-jamming")
        with pytest.raises(ConfigurationError, match="snr 30.0 dB infeasible"):
            run_sweep(cfg, axes, trials=2, seed=0, options=opts)
        assert computed == []

    def test_negative_seed_rejected(self):
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="seed"):
            run_sweep(LinkConfig().with_unit_element_gain(), axes, trials=2, seed=-1)

    @pytest.mark.parametrize("snr_db, reason", [
        (float("nan"), "not a finite number"),
        (float("inf"), "not a finite number"),
        (4000.0, "out of range"),
        (-4000.0, "out of range"),
    ])
    def test_out_of_range_snr_rejected(self, snr_db, reason):
        axes = SweepAxes(snr_db=(0.0, snr_db), n_jammed=(0,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match=reason):
            run_sweep(LinkConfig().with_unit_element_gain(), axes, trials=2, seed=0)

    @pytest.mark.parametrize("knob", ["ber_trials", "ber_symbols"])
    def test_negative_probe_budget_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            SweepOptions(**{knob: -1})

    def test_three_level_pga_rejected_before_any_point(self, monkeypatch):
        computed = []
        monkeypatch.setattr(metrics, "_sweep_point", lambda *args: computed.append(args))
        cfg = replace(LinkConfig().with_unit_element_gain(),
                      pga_gains=(0.5, 1.0, 2.0), pga_priors=(0.25, 0.25, 0.5))
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="reflected link is binary"):
            run_sweep(cfg, axes, trials=2, seed=0)
        assert computed == []


class TestBroadbandSensing:
    """The iid path draws each mode's energy as Gamma(K, sigma2/K)."""

    CFG = replace(LinkConfig().with_unit_element_gain(), energy_threshold_tx=0.1)
    OPTS = SweepOptions(jam_model="iid", ber_trials=0)

    def test_flag_rate_matches_analytic_p_j(self, monkeypatch):
        masks = []

        def spy(cfg, flagged, *args):
            masks.append(flagged)
            return mode_snr(cfg, flagged, *args)

        monkeypatch.setattr(metrics, "mode_snr", spy)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(16,))
        res = run_sweep(self.CFG, axes, trials=2000, seed=8, options=self.OPTS)
        (flagged,) = masks
        p_j = res[0].p_j
        assert 0.2 < p_j < 0.8
        sigma = np.sqrt(p_j * (1.0 - p_j) / flagged.size)
        assert abs(flagged.mean() - p_j) < 5 * sigma

    def test_p_c_reported_on_every_iid_row(self):
        axes = SweepAxes(snr_db=(-10.0, 30.0), n_jammed=(0,), n_elements=(8,))
        res = run_sweep(self.CFG, axes, trials=10, seed=3, options=self.OPTS)
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
            run_sweep(self.CFG, axes, trials=2, seed=0, options=self.OPTS)
        assert computed == []

    def test_p_c_is_nan_only_on_targeted_rows_without_jamming(self):
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0, 2), n_elements=(8,))
        res = run_sweep(LinkConfig().with_unit_element_gain(), axes, trials=10, seed=3,
                        options=SweepOptions(ber_trials=0))
        assert all(np.isnan(r.p_c) == (r.n_jammed == 0) for r in res)

    def test_sensing_memory_is_bounded_by_trials_times_modes(self):
        trials, n, k = 2000, 16, 64
        cfg = replace(self.CFG, samples_per_symbol=k)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(0,), n_elements=(n,))
        tracemalloc.start()
        try:
            run_sweep(cfg, axes, trials=trials, seed=1, options=self.OPTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (trials, N, K) complex array would take 32.8 MB
        assert peak < trials * n * k * np.dtype(complex).itemsize / 8
