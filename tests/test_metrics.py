"""Power split, per-mode SNR weighting and spectrum efficiency, sweeps."""

import math
import sys
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oam_antijam import jamming, metrics
from oam_antijam import (
    BASELINE,
    ConfigurationError,
    LinkConfig,
    PROPOSED,
    Scenario,
    SweepAxes,
    SweepOptions,
    SweepResult,
    check_trends,
    mode_index_range,
    mode_link_gains,
    run_sweep,
    sense_targeted,
    spectral_efficiency,
)
from oam_antijam.backscatter import (average_correct_detection, calibrate_from_preamble,
                                     hypothesis_variance)
from oam_antijam.channel import build_channel_matrix, element_azimuths
from oam_antijam.jamming import complex_gaussian, substream
from oam_antijam.signals import mode_energies, mode_transform
from oracles import (circulant, expected_se, point_key, se_cells, selftest_scenario,
                     targeted_elements)

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


def clean_powers(transmit_power, flagged, cfg=LinkConfig()):
    """Per-mode transmit power of every trial, read off the baseline bits one mode at a time.

    At p_u = 1 a link with unit gain on mode i alone carries log2(1 + P_i / floor)
    baseline bits, P_i the mode's share of ``transmit_power`` (0 if flagged).
    """
    bits = [spectral_efficiency(cfg, flagged, unit, transmit_power, 1.0, 0.0, 1.0)[BASELINE]
            for unit in np.eye(cfg.n_tx)]
    return (2.0 ** np.stack(bits, axis=-1) - 1.0) * cfg.receiver_floor


def rate_sum(gamma):
    """Baseline bits of one trial on a link whose clean modes have the SNRs ``gamma``."""
    gamma = np.asarray(gamma, dtype=float)
    cfg = LinkConfig(n_tx=gamma.size)
    floor = cfg.receiver_floor   # a share of floor at unit p_u gives |kappa|^2
    return spectral_efficiency(cfg, np.zeros(gamma.size, dtype=bool), np.sqrt(gamma),
                               gamma.size * floor, 1.0, 0.0, 1.0)[BASELINE]


class TestAllocatePower:
    """The split of the transmit total over each trial's clean modes."""

    def test_uniform_split_when_nothing_jammed(self):
        powers = clean_powers(16.0, flags_for())
        assert np.allclose(powers, 1.0)

    def test_all_jammed_gives_zero_allocation(self):
        powers = clean_powers(1600.0, flags_for(MODES_16))
        assert not powers.any()

    def test_four_of_sixteen(self):
        jammed = (0, 1, 2, 3)
        powers = clean_powers(12.0, flags_for(jammed))
        for i, l in enumerate(MODES_16):
            expected = 0.0 if l in jammed else 1.0
            assert powers[i] == pytest.approx(expected)

    def test_each_trial_splits_over_its_own_clean_modes(self):
        rows = [flags_for(), flags_for((0, 1, 2, 3)), flags_for(MODES_16)]
        powers = clean_powers(12.0, np.stack(rows))
        assert powers.shape == (3, 16)
        assert powers.sum(axis=1) == pytest.approx([12.0, 12.0, 0.0])
        for row, flagged in zip(powers, rows):
            assert np.array_equal(row, clean_powers(12.0, flagged))

    @pytest.mark.parametrize("power", [np.nan, -1.0])
    def test_negative_or_nan_total_rejected(self, power):
        # checked before the split, so also where every mode is flagged and none takes a share
        cfg = LinkConfig()
        with pytest.raises(ValueError, match="transmit power"):
            spectral_efficiency(cfg, flags_for(MODES_16), mode_link_gains(cfg), power, 1.0,
                                1.0, 1.0)


class TestSpectralEfficiency:
    """The rate sum log2(1 + gamma) over the modes each scheme counts."""

    def test_all_zero(self):
        assert rate_sum(np.zeros(16)) == 0.0

    def test_single_unit_snr(self):
        assert rate_sum([1.0]) == pytest.approx(1.0)

    def test_two_modes_at_three(self):
        assert rate_sum([3.0, 3.0]) == pytest.approx(4.0)

    def test_negative_rejected(self):
        # a negative carrier variance would make the jammed-mode SNR negative
        cfg = LinkConfig()
        with pytest.raises(ValueError, match="carrier variance"):
            spectral_efficiency(cfg, flags_for((2,)), mode_link_gains(cfg), 1600.0, -0.5,
                                1.0, 1.0)

    def test_strictly_increasing_in_any_gamma(self):
        base = [0.3, 1.0, 2.5]
        c0 = rate_sum(base)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 0.1
            assert rate_sum(bumped) > c0

    def test_mask_restricts_the_sum_per_trial(self):
        # jammed-mode SNRs |kappa|^2 = (3, 1, 7); one clean mode at SNR 1 in trial 0
        gamma = np.array([3.0, 1.0, 7.0])
        modes = np.array([[True, False, True], [False, False, False]])
        cfg = LinkConfig(n_tx=3)
        floor = cfg.receiver_floor
        mean_power_gain = sum(p * g * g for g, p in zip(cfg.pga_gains, cfg.pga_priors))
        se = spectral_efficiency(cfg, modes, np.sqrt(gamma), floor, floor / mean_power_gain,
                                 1.0, 1.0)
        assert se[PROPOSED] - se[BASELINE] == pytest.approx([5.0, 0.0])
        assert se[BASELINE][0] == pytest.approx(1.0)
        assert se[BASELINE][1] == pytest.approx(rate_sum(gamma / 3.0))


class TestModeSnr:
    """The detection-weighted per-mode SNRs behind the bits of both schemes."""

    CFG = LinkConfig()
    POWER = 1600.0   # the default 100 W per mode on all 16 modes

    def gains(self, cfg=CFG):
        return mode_link_gains(cfg)

    def test_zero_weight_annihilates(self):
        se = spectral_efficiency(self.CFG, flags_for(), self.gains(), self.POWER, 1.0,
                                 p_j=1.0, p_u=0.0)
        assert se[PROPOSED] == se[BASELINE] == 0.0

    def test_huge_disturbance_drives_snr_to_zero(self):
        cfg = LinkConfig(noise_variance_rx=1e12, jam_variance_rx=1e12, beta=1.0)
        se = spectral_efficiency(cfg, flags_for(), self.gains(cfg), self.POWER, 1.0,
                                 p_j=0.0, p_u=1.0)
        assert se[PROPOSED] < 16 * np.log2(1.0 + 1e-9)

    def test_jammed_branch_uses_reflected_power(self):
        args = self.CFG, flags_for((2,)), self.gains(), self.POWER

        def jammed_snr(carrier_variance, p_c):
            # one flagged mode at p_u = 0: the proposed bits are log2(1 + gamma_jam)
            se = spectral_efficiency(*args, carrier_variance, p_j=1.0, p_u=0.0, p_c=p_c)
            assert se[BASELINE] == 0.0
            return 2.0 ** se[PROPOSED] - 1.0

        out = jammed_snr(1.0, 0.5)
        assert out > 0.0
        # halving p_c halves the weighted snr
        assert jammed_snr(1.0, 0.25) == pytest.approx(0.5 * out, rel=1e-12)
        # and the carrier variance scales it linearly
        assert jammed_snr(2.0, 0.5) == pytest.approx(2.0 * out, rel=1e-12)

    def test_formula_against_matrix_oracle(self):
        # independent evaluation with each mode gain taken from the full matrix
        cfg = replace(self.CFG, noise_variance_rx=0.1)
        jammed = (0, 1, 2, 3)
        se = spectral_efficiency(cfg, flags_for(jammed), mode_link_gains(cfg), 1600.0, 1.0,
                                 p_j=0.0, p_u=1.0)

        h = circulant(build_channel_matrix(cfg))
        phi = element_azimuths(16)
        expected = 0.0
        for l in MODES_16:
            if l in jammed:
                continue
            kappa = 0.0
            for m in range(16):
                for n in range(16):
                    kappa += np.exp(-1j * phi[m] * l) * h[m, n] * np.exp(1j * phi[n] * l)
            kappa /= 16.0  # 1/N
            expected += np.log2(1.0 + abs(kappa) ** 2 * (1600.0 / 12.0)
                                / (16 * (cfg.noise_variance_rx + cfg.jam_variance_rx)))
        assert se[BASELINE] == pytest.approx(expected, rel=1e-9)
        assert se[PROPOSED] == se[BASELINE]

    def test_mask_must_cover_every_mode(self):
        for mask in (np.zeros(99, dtype=bool), np.zeros((4, 15), dtype=bool), True):
            with pytest.raises(ValueError, match="does not cover"):
                spectral_efficiency(self.CFG, mask, self.gains(), self.POWER, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("probs", [dict(p_c=1.5), dict(p_j=-0.1), dict(p_u=1.2)])
    def test_probability_outside_unit_interval_rejected(self, probs):
        args = dict(p_j=1.0, p_u=0.0) | probs
        with pytest.raises(ValueError, match=next(iter(probs))):
            spectral_efficiency(self.CFG, flags_for((2,)), self.gains(), self.POWER, 1.0,
                                **args)

    @pytest.mark.parametrize("name, value, message", [
        ("p_j", np.nan, "p_j"), ("p_u", np.nan, "p_u"), ("p_c", np.nan, "p_c"),
        ("p_c", np.r_[np.full(15, 0.5), np.nan], "p_c"),
        ("carrier_variance", np.nan, "carrier variance"),
        ("transmit_power", np.nan, "transmit power"),
        ("link_gains", np.r_[np.nan, np.ones(15)], "link gains must be finite"),
        ("link_gains", np.r_[np.inf, np.ones(15)], "link gains must be finite"),
        ("link_gains", np.r_[1e200, np.ones(15)], "link gains must be finite"),
        ("transmit_power", -1.0, "transmit power"),
        ("transmit_power", np.inf, "transmit power"),
        ("carrier_variance", np.inf, "carrier variance")])
    def test_nan_rejected(self, name, value, message):
        # a check for values outside [0, 1] or below 0 lets nan through to the SNRs, an
        # infinite power at p_u = 0 would give a nan SNR, and so would an infinite carrier
        # variance on a flagged mode (inf * False in the mask product), or an infinite link gain
        args = dict(link_gains=self.gains(), transmit_power=self.POWER, carrier_variance=1.0,
                    p_j=1.0, p_u=0.5) | {name: value}
        with pytest.raises(ValueError, match=message):
            spectral_efficiency(self.CFG, flags_for((2,)), **args)

    def test_all_flagged_row_computes_no_clean_snr(self):
        # P / 1 on a clean mode would overflow; an all-flagged trial has no clean mode to take it
        cfg = LinkConfig(n_tx=2)
        flagged = np.array([[True, True], [False, False]])
        with np.errstate(over="raise"):
            se = spectral_efficiency(cfg, flagged, mode_link_gains(cfg), 3e307, 1.0, 1.0, 1.0)
        assert np.all(np.isfinite(se[PROPOSED])) and np.all(np.isfinite(se[BASELINE]))

    def test_batched_rows_match_single_trial_calls(self):
        flagged = np.random.default_rng(3).random((5, 16)) < 0.4
        p_c = np.linspace(0.5, 1.0, 16)
        batch = spectral_efficiency(self.CFG, flagged, self.gains(), self.POWER, 1.0, 0.7, 0.9,
                                    p_c)
        for t, mask in enumerate(flagged):
            single = spectral_efficiency(self.CFG, mask, self.gains(), self.POWER, 1.0, 0.7,
                                         0.9, p_c)
            assert single[PROPOSED].shape == ()
            for scheme in (PROPOSED, BASELINE):
                assert batch[scheme][t] == single[scheme]

    def test_rows_past_one_mask_block_match_single_trial_calls(self):
        # N = 1024 casts 32 rows at a time: 70 trials of one clean count span three blocks
        n = 1024
        step = jamming.BLOCK_SAMPLES // n
        cfgs = [replace(self.CFG, n_tx=n, noise_variance_rx=noise) for noise in (1.0, 0.01)]
        flagged = np.zeros((2 * step + 6, n), dtype=bool)
        np.put_along_axis(flagged, metrics._draw_jam_sets(np.random.default_rng(5),
                                                          len(flagged), n, 256), True, axis=1)
        kappas, p_c = mode_link_gains(cfgs[0]), np.linspace(0.5, 1.0, n)
        batch = spectral_efficiency(cfgs, flagged, kappas, self.POWER, 1.0, 0.7, 0.9, p_c)
        for row, cfg in enumerate(cfgs):
            for t, mask in enumerate(flagged):
                single = spectral_efficiency(cfg, mask, kappas, self.POWER, 1.0, 0.7, 0.9, p_c)
                for scheme in (PROPOSED, BASELINE):
                    assert batch[scheme][row, t] == single[scheme], (row, t)

    @pytest.mark.parametrize("other", [
        LinkConfig(n_tx=8), LinkConfig(pga_gains=(0.5, 3.0)),
        LinkConfig(pga_priors=(0.3, 0.7))])
    def test_links_of_two_ring_sizes_or_pgas_rejected(self, other):
        # a sequence shares one mask, one set of link gains and one mean PGA power gain
        with pytest.raises(ValueError, match="one ring size and one PGA"):
            spectral_efficiency([self.CFG, other], flags_for((2,)), self.gains(), self.POWER,
                                1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="one ring size and one PGA"):
            spectral_efficiency([], flags_for((2,)), self.gains(), self.POWER, 1.0, 0.5, 0.5)

    def test_pair_call_memory_is_bounded(self):
        # one (N, l_j) at N = 1024, l_j = 256, 9 SNR points and 1000 trials, every jammed
        # mode flagged, as the default detector flags them: one clean-mode count, cast to
        # float 32 rows (0.26 MB) at a time, neither as one (trials, N) mask (8.2 MB, the
        # kernel peaked at 9.6 MB) nor as a (trials, S, N) array (74 MB); it peaks at 1.0 MB
        n, l_j, trials = 1024, 256, 1000
        links = [metrics._point_config(self.CFG, n, l_j, snr) for snr in SweepAxes().snr_db]
        flagged = np.zeros((trials, n), dtype=bool)
        jam_sets = metrics._draw_jam_sets(np.random.default_rng(1), trials, n, l_j)
        np.put_along_axis(flagged, jam_sets, True, axis=1)
        p_c = np.random.default_rng(2).random((len(links), n))
        cfgs, kappas = [cfg for cfg, _ in links], mode_link_gains(links[0][0])
        peak = traced_peak(lambda: spectral_efficiency(cfgs, flagged, kappas, links[0][1], 1.0,
                                                       0.99, 1.0, p_c))
        assert peak <= 2e6, peak


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

    def test_every_subset_is_equally_likely(self):
        trials, n, n_jammed = 6000, 4, 2
        sets = metrics._draw_jam_sets(substream(11, 0), trials, n, n_jammed)
        counts = Counter(tuple(sorted(row)) for row in sets.tolist())
        subsets = list(combinations(range(n), n_jammed))   # all six, each ascending
        assert set(counts) == set(subsets)
        assert stats.chisquare([counts[subset] for subset in subsets]).pvalue > 1e-3

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

    @pytest.mark.parametrize("seed, priors", [
        *(pytest.param(seed, (0.5, 0.5), id=str(seed)) for seed in (0, 1, 2)),
        *(pytest.param(seed, (0.3, 0.7), id=f"{seed}-priors-0.3-0.7") for seed in (0, 1, 2))])
    def test_ber_agrees_with_one_minus_p_c(self, monkeypatch, seed, priors):
        """Every measured BER lies within 5 sigma + 1/D of 1 - p_c.

        D = min(ber_trials, trials) x l_j probes of ber_symbols symbols each; all
        symbols of a probe share one mode's threshold, so the BER's variance is at
        most (1 - p_c) p_c / D. Under a normal approximation the chance that a
        correct probe leaves the bound is below 6e-7 per cell, and below 4e-5
        over the 54 cells of the six cases.

        p_c weighs the two error tails by the priors, so the probe must send bit 1
        with probability priors[1]. At the calibrated thresholds the two tails are
        close, so a probe that swapped the priors would stay inside the BER bound;
        its bits are checked directly, within 5 sigma over every probe symbol.
        """
        sent = []
        draw = metrics.simulate_backscatter_bits   # the sweep's probe: the 4th argument is the bits

        def record(*args):
            sent.append(np.array(args[3]))
            return draw(*args)

        monkeypatch.setattr(metrics, "simulate_backscatter_bits", record)
        cfg = LinkConfig(pga_priors=priors)
        axes = SweepAxes(snr_db=(-10.0, 0.0, 10.0), n_jammed=(2, 4, 8), n_elements=(8,))
        options = SweepOptions(ber_trials=150, ber_symbols=16)
        results = run_sweep(Scenario(cfg, axes, options, trials=150, seed=seed))
        for r in [r for r in results if r.scheme == PROPOSED]:
            probes = 150 * r.n_jammed
            q = 1.0 - r.p_c
            bound = 5.0 * math.sqrt(q * (1.0 - q) / probes) + 1.0 / probes
            assert abs(r.ber - q) <= bound, (r.n_jammed, r.snr_db, r.ber, q, bound)
        bits = np.concatenate(sent)
        assert bits.size == 150 * (2 + 4 + 8) * 3 * 16
        assert abs(bits.mean() - priors[1]) <= 5.0 * math.sqrt(
            priors[0] * priors[1] / bits.size), bits.mean()

    @pytest.mark.parametrize("per_trial, stderr", [
        # mean 7/3, squared deviations 42/9 over 3 - 1 = 2: sqrt(7/3) / sqrt(3)
        pytest.param(np.array([1.0, 2.0, 4.0]), math.sqrt(7.0) / 3.0, id="3-trials"),
        # mean 1, squared deviations 6 over 2: sqrt(3) / sqrt(3)
        pytest.param(np.array([0.0, 0.0, 3.0]), 1.0, id="3-trials-one-apart"),
        # two trials still have a spread: sqrt(2) / sqrt(2)
        pytest.param(np.array([1.0, 3.0]), 1.0, id="2-trials"),
        pytest.param(np.array([2.0]), 0.0, id="1-trial")])
    def test_se_stderr_is_the_sample_standard_error(self, monkeypatch, per_trial, stderr):
        # one (SNR points, trials) array per scheme; the 10 dB row doubles every trial,
        # which doubles its mean and standard error exactly
        per_point = np.stack([per_trial, 2.0 * per_trial])
        monkeypatch.setattr(metrics, "spectral_efficiency", lambda *args: {
            PROPOSED: per_point, BASELINE: per_point[:, ::-1]})
        axes = SweepAxes(snr_db=(0.0, 10.0), n_jammed=(2,), n_elements=(8,))
        for r in run_sweep(Scenario(LinkConfig(), axes, trials=len(per_trial), seed=1)):
            scale = 1.0 if r.snr_db == 0.0 else 2.0
            assert r.se_bits == pytest.approx(scale * per_trial.mean(), rel=1e-15)
            assert r.se_stderr == pytest.approx(scale * stderr, rel=1e-15)

    def test_noise_below_the_floor_sweeps_as_the_floor(self, monkeypatch):
        # 3020 dB sets 1e-300 W of noise beside 1e-300 W of receiver jamming; both
        # vanish against the 1e-30 W noise floor, as the 1e-31 W of noise at 330 dB does
        from oam_antijam.cli import format_sweep_csv

        # both SNRs draw the streams of one key, so only the noise can move a row: a point
        # key (N, l_j, snr_key, stage) draws the snr_key 0 stream, and the sensing key
        # (N, l_j, 1), which holds no SNR, passes through as it is
        def one_snr(seed, n, n_jammed, *rest):
            assert len(rest) == 2 or rest == (1,), rest
            return substream(seed, n, n_jammed, *((0, rest[1]) if len(rest) == 2 else rest))

        monkeypatch.setattr(metrics, "substream", one_snr)
        cfg = LinkConfig(jam_variance_rx=1e-300)
        rows = []
        for snr_db in (330.0, 3020.0):
            axes = SweepAxes(snr_db=(snr_db,), n_jammed=(0, 2, 8), n_elements=(8,))
            csv_rows = format_sweep_csv(run_sweep(Scenario(cfg, axes, trials=20, seed=3)))
            rows.append([line.split(",") for line in csv_rows.splitlines()[1:]])
            assert {row[1] for row in rows[-1]} == {f"{snr_db:g}"}
        assert [row[:1] + row[2:] for row in rows[0]] == [row[:1] + row[2:] for row in rows[1]]

    @pytest.mark.parametrize("jam_model, n_jammed, threshold", [
        pytest.param(metrics.TARGETED, (2, 4), 0.5, id="targeted"),
        # near the iid energy's mean 0.1, so about half the flags are up
        pytest.param(metrics.BROADBAND, (0,), 0.1, id="iid")])
    def test_every_snr_of_a_ring_size_and_jammed_count_shares_the_flags(
            self, monkeypatch, jam_model, n_jammed, threshold):
        # the transmitter senses the jamming alone, so the flags do not depend on the SNR:
        # one SE call per (N, l_j) on all its SNR points' links, in grid order, with one
        # mask, a new one for each jammed count and each ring size
        calls, reduce = [], metrics.spectral_efficiency

        def record(cfgs, flagged, *args):
            calls.append((list(cfgs), flagged.copy()))
            return reduce(cfgs, flagged, *args)

        monkeypatch.setattr(metrics, "spectral_efficiency", record)
        axes = SweepAxes(snr_db=(-10.0, 0.0, 20.0), n_jammed=n_jammed, n_elements=(8, 16))
        scenario = Scenario(LinkConfig(energy_threshold_tx=threshold), axes,
                            SweepOptions(jam_model=jam_model), trials=40, seed=3)
        run_sweep(scenario)
        by_pair = defaultdict(list)
        for (n, l_j, _), (cfg, _) in scenario._links:
            by_pair[(n, l_j)].append(cfg)
        assert [cfgs for cfgs, _ in calls] == list(by_pair.values())
        masks = dict(zip(by_pair, (mask for _, mask in calls)))
        for pair, mask in masks.items():
            assert mask.shape == (40, pair[0]) and mask.any() and not mask.all(), pair
        for a, b in combinations(masks, 2):
            assert not np.array_equal(masks[a], masks[b]), (a, b)

    @pytest.mark.parametrize("snr_db", [(10.0,), SweepAxes().snr_db])
    def test_one_spectrum_efficiency_call_per_ring_size_and_jammed_count(self, monkeypatch,
                                                                          snr_db):
        # the calls per pair do not grow with the SNR count: 1 at S = 1 and at S = 9
        calls, reduce = [], metrics.spectral_efficiency

        def record(cfgs, *args):
            calls.append(len(cfgs))
            return reduce(cfgs, *args)

        monkeypatch.setattr(metrics, "spectral_efficiency", record)
        axes = SweepAxes(snr_db=snr_db, n_jammed=(0, 2, 4), n_elements=(8, 16))
        rows = run_sweep(Scenario(LinkConfig(), axes, trials=20, seed=5))
        assert calls == [len(snr_db)] * 6
        assert len(rows) == 2 * 6 * len(snr_db)

    def test_negative_zero_snr_draws_the_zero_snr_streams(self):
        from oam_antijam.cli import format_sweep_csv

        rows = []
        for snr_db in (-0.0, 0.0):
            axes = SweepAxes(snr_db=(snr_db,), n_jammed=(0, 2), n_elements=(16,))
            csv_rows = format_sweep_csv(run_sweep(Scenario(LinkConfig(), axes, trials=20,
                                                           seed=6)))
            # every column but the SNR, which prints its sign
            rows.append([line.split(",")[:1] + line.split(",")[2:]
                         for line in csv_rows.splitlines()[1:]])
        assert rows[0] == rows[1]

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
        monkeypatch.setattr(metrics, "calibrate_from_preamble",
                            lambda *args: computed.append(args))
        cfg = LinkConfig(power_per_mode=1e306)
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,), n_elements=(16, 400))
        with pytest.raises(ConfigurationError, match="transmit total"):
            run_sweep(Scenario(cfg, axes, trials=2, seed=0))
        assert computed == []

    @pytest.mark.parametrize("config, options, snr_db, name", [
        (LinkConfig(), SweepOptions(jam_variance_tx=1e160), 0.0, "jam_variance_tx"),
        # a link this weak keeps the hypothesis variance small, but the gain level
        # squared alone raised OverflowError, a traceback out of the CLI
        (LinkConfig(beta=1e-300, pga_gains=(0.5, 1e200)), SweepOptions(), 0.0,
         "top PGA gain"),
        (LinkConfig(beta=1e150), SweepOptions(), 0.0, "top hypothesis variance"),
        (LinkConfig(jam_variance_rx=1e200), SweepOptions(), 0.0, "top hypothesis variance"),
        # the SNR sets the noise, so only a noise at its floor leaves a huge SNR
        (LinkConfig(power_per_mode=1e120, jam_variance_rx=1e-300), SweepOptions(), 3000.0,
         "clean-mode SNR"),
        (LinkConfig(pga_gains=(0.5, 1e70), jam_variance_rx=1e-300), SweepOptions(), 3000.0,
         "jammed-mode SNR"),
    ])
    def test_magnitude_beyond_the_limit_rejected(self, config, options, snr_db, name):
        # each used to pass the parse-time checks; 1e160 W of jamming overflowed the
        # product of the two preamble level energies, so calibration fell back to the
        # preamble mean and p_c read 0.5 with no error
        axes = SweepAxes(snr_db=(snr_db,), n_jammed=(2,), n_elements=(8,))
        with pytest.raises(ConfigurationError,
                           match=rf"^grid point \(N=8, l_j=2, snr={snr_db:g} dB\): .*{name}"):
            Scenario(config, axes, options, trials=2)

    def test_magnitude_within_the_limit_calibrates(self):
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(2,), n_elements=(8,))
        rows = run_sweep(Scenario(LinkConfig(), axes, SweepOptions(jam_variance_tx=1e140),
                                  trials=20, seed=3))
        assert rows[0].p_c == 1.0 and rows[0].ber == 0.0

    def test_point_error_names_the_grid_point(self):
        cfg = LinkConfig(power_per_mode=1e306)
        axes = SweepAxes(snr_db=(0.0,), n_jammed=(0,), n_elements=(16, 400))
        with pytest.raises(ConfigurationError, match=r"^grid point \(N=400, l_j=0, snr=0 dB\): "
                                                     r"power_per_mode 1e\+306 times 400 clean"):
            Scenario(cfg, axes, trials=2, seed=0)

    def test_numeric_failure_names_the_point_or_its_pair(self, monkeypatch):
        # calibration runs per point and p_c once per (N, l_j): each failure names its own
        scenario = Scenario(LinkConfig(), SweepAxes(snr_db=(0.0, 10.0), n_jammed=(2,),
                                                    n_elements=(8,)), trials=2, seed=0)
        calibrate = metrics.calibrate_from_preamble

        def failing_at_10_db(cfg, *args):   # 10 dB sets the noise to 10 W per mode
            if cfg.noise_variance_rx < 50.0:
                raise FloatingPointError("overflow")
            return calibrate(cfg, *args)

        def failing(*args):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(metrics, "calibrate_from_preamble", failing_at_10_db)
        with pytest.raises(FloatingPointError,
                           match=r"^grid point \(N=8, l_j=2, snr=10 dB\): overflow$"):
            run_sweep(scenario)
        monkeypatch.setattr(metrics, "calibrate_from_preamble", calibrate)
        monkeypatch.setattr(metrics, "average_correct_detection", failing)
        with pytest.raises(FloatingPointError, match=r"^grid point \(N=8, l_j=2\): overflow$"):
            run_sweep(scenario)

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
        monkeypatch.setattr(metrics, "calibrate_from_preamble",
                            lambda *args: computed.append(args))
        grid = {"snr_db": (10.0,), "n_jammed": (2,), "n_elements": (8,)}
        grid[axis] *= 2
        with pytest.raises(ConfigurationError, match=f"{axis} axis repeats"):
            run_sweep(Scenario(LinkConfig(), SweepAxes(**grid),
                               trials=2, seed=0))
        assert computed == []

    @pytest.mark.parametrize("length", [sys.maxsize, 2 ** 62])
    def test_preamble_beyond_any_array_fails_at_once(self, length):
        # the bound counts 16 bytes per preamble symbol, so a length numpy
        # cannot hold is refused before any memory is taken
        cfg = LinkConfig(preamble_length=length)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(2,), n_elements=(8,))
        with pytest.raises(ConfigurationError, match="beyond numpy"):
            Scenario(cfg, axes, trials=2, seed=0)

    @pytest.mark.parametrize("count, largest", [
        ("preamble_length", sys.maxsize // 16),     # counted as complex per symbol
        ("ber_symbols", sys.maxsize // 16),         # one complex gain per probe symbol
        ("samples_per_symbol", sys.maxsize // (16 * 8)),    # a sensing block row (N, K)
        ("trials", sys.maxsize // (8 * 8)),         # the (trials, N) draws
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

    def test_array_bound_counts_the_pair_se_arrays(self):
        # a pair reduces its SE on (SNR points, trials) arrays of 8 bytes an entry: at N = 1
        # and l_j = 0 these are the largest once the SNR axis is longer than the ring
        axes = SweepAxes(snr_db=(0.0, 10.0, 20.0), n_jammed=(0,), n_elements=(1,))
        largest = sys.maxsize // (8 * 3)
        Scenario(LinkConfig(), axes, trials=largest, seed=0)
        with pytest.raises(ConfigurationError, match="3 SNR points .* beyond numpy"):
            Scenario(LinkConfig(), axes, trials=largest + 1, seed=0)

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


class TestStoredLinks:
    """The sweep runs the point links that Scenario construction built and checked."""

    AXES = SweepAxes(snr_db=(0.0, 10.0), n_jammed=(0, 2), n_elements=(8, 16))

    @staticmethod
    def point_configs(scenario):
        axes = scenario.axes
        return tuple((point, metrics._point_config(scenario.config, *point))
                     for point in product(axes.n_elements, axes.n_jammed, axes.snr_db))

    def test_links_are_the_point_configs_in_grid_order(self):
        scenario = Scenario(LinkConfig(), self.AXES, trials=5)
        assert scenario._links == self.point_configs(scenario)

    @pytest.mark.parametrize("change", [
        dict(axes=replace(AXES, snr_db=(5.0,))),
        dict(axes=replace(AXES, n_elements=(4,))),
        dict(config=LinkConfig(power_per_mode=10.0)),
    ], ids=["snr_db", "n_elements", "config"])
    def test_replace_rebuilds_the_links(self, change):
        scenario = Scenario(LinkConfig(), self.AXES, trials=5)
        changed = replace(scenario, **change)
        assert changed._links == self.point_configs(changed) != scenario._links

    def test_the_sweep_builds_no_point_config(self, monkeypatch):
        from oam_antijam.cli import format_sweep_csv

        scenario = Scenario(LinkConfig(), self.AXES, trials=5, seed=2)
        plain = format_sweep_csv(run_sweep(scenario))
        point_config, calls = metrics._point_config, []
        monkeypatch.setattr(metrics, "_point_config",
                            lambda *args: calls.append(args) or point_config(*args))
        assert format_sweep_csv(run_sweep(scenario)) == plain
        assert calls == []


class RecordingGenerator:
    """A numpy Generator that adds the size of every draw to ``counts[method]``."""

    def __init__(self, rng, counts):
        self.rng, self.counts = rng, counts

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            result = method(*args, **kwargs)
            self.counts[name] += np.size(result)
            return result
        return draw


@pytest.mark.parametrize("name", ["mini_targeted", "mini_iid"])
def test_each_stage_draws_its_closed_form_variate_count(name, tmp_path, monkeypatch):
    # point substreams (N, l_j, IEEE-754 bits of the SNR, stage): 0 calibrates N preambles
    # of I symbols, K complex normals each; 2 probes D = min(ber_trials, trials) x l_j x
    # ber_symbols symbols, D uniform bits and D x K complex normals. Sensing runs once per
    # (N, l_j), on substream (N, l_j, 1): the jam sets (trials x N uniforms) and the sensing
    # energies (trials x l_j x K complex normals, or trials x N Gammas under iid). A
    # complex normal is two standard normals.
    from oam_antijam.cli import format_sweep_csv, parse_scenario

    path = tmp_path / f"{name}.ini"
    path.write_text(selftest_scenario(name), encoding="utf-8")
    scenario = parse_scenario(str(path))
    plain = format_sweep_csv(run_sweep(scenario))
    ledger, substream = defaultdict(Counter), metrics.substream
    monkeypatch.setattr(metrics, "substream",
                        lambda seed, *key: RecordingGenerator(substream(seed, *key), ledger[key]))
    assert format_sweep_csv(run_sweep(scenario)) == plain

    cfg, axes, options, trials = (scenario.config, scenario.axes, scenario.options,
                                  scenario.trials)
    k, i = cfg.samples_per_symbol, cfg.preamble_length
    expected = {}
    for n, l_j in product(axes.n_elements, axes.n_jammed):
        d = min(options.ber_trials, trials) * l_j * options.ber_symbols
        sense = ({"standard_gamma": trials * n} if options.jam_model == metrics.BROADBAND
                 else {"random": trials * n, "standard_normal": 2 * trials * l_j * k})
        point_stages = {0: {"standard_normal": 2 * n * i * k},
                        2: {"random": d, "standard_normal": 2 * d * k}}
        stages = [((n, l_j, 1), sense)] + [((*point_key(n, l_j, snr_db), stage), counts)
                                           for snr_db in axes.snr_db
                                           for stage, counts in point_stages.items()]
        for key, counts in stages:
            expected[key] = Counter({m: c for m, c in counts.items() if c})
    assert dict(ledger) == expected


class TestExpectedSpectralEfficiency:
    """Every Monte Carlo SE mean lies within 5 standard errors of its closed form.

    Each (scheme, grid point) cell passes when |MC - E| <= 5 * stderr + 1e-4,
    with E from ``oracles.expected_se`` at the point's own per-mode p_c (see
    ``oracles.se_cells``). The floor covers cells whose trials all flag the
    same modes (stderr 0, E off by the ~3e-6 chance per trial that a mode goes
    unflagged). If the mean is normal about E, a correct model fails a cell
    with probability 5.7e-7, and one of the 192 cells here with probability
    about 1.1e-4 at fresh seeds. At these
    seeds the worst |z| over cells with a non-rounding stderr is 2.7 on the
    targeted golden, 2.4 on the iid golden, 1.7 on the wide golden and 2.9 on
    the default grid. SE depends on |kappa|^2, so this pins the link gains to
    the model as well as the sampling.
    """

    @pytest.mark.parametrize("golden, seed", [("targeted", None), ("iid", None), ("wide", None),
                                              (None, 1), (None, 2)])
    def test_monte_carlo_mean_matches_closed_form(self, golden, seed):
        from oam_antijam.cli import parse_scenario

        if golden is None:   # the default grid
            scenario = replace(parse_scenario(None), trials=200, seed=seed)
        else:
            scenario = parse_scenario(str(GOLDEN / f"{golden}.ini"))
        cells = list(se_cells(scenario))
        assert len(cells) == 2 * len(list(product(scenario.axes.n_elements,
                                                  scenario.axes.n_jammed,
                                                  scenario.axes.snr_db)))
        bad = [(cell, mc, err, e) for cell, mc, err, e, *_ in cells
               if abs(mc - e) > 5 * err + 1e-4]
        assert not bad, bad[:4]

    def test_closed_form_by_enumeration(self):
        # N = 3, two candidate modes: weigh every flag pattern by its probability
        cfg = LinkConfig(n_tx=3, power_per_mode=10.0)
        kappas = mode_link_gains(cfg)
        f, p_j, p_c = 0.3, 0.9, np.array([0.6, 0.7, 0.8])
        proposed = baseline = 0.0
        for jam_set in ((0, 1), (0, 2), (1, 2)):          # uniform targeted jam sets
            for flags in product((False, True), repeat=2):
                weight = np.prod([f if x else 1 - f for x in flags]) / 3
                flagged = np.zeros(3, dtype=bool)
                flagged[[jam_set[i] for i in range(2) if flags[i]]] = True
                se = spectral_efficiency(cfg, flagged, kappas, 30.0, 1.0, p_j, 1.0, p_c)
                baseline += weight * se[BASELINE]
                proposed += weight * se[PROPOSED]
        got = expected_se(cfg, kappas, 30.0, 1.0, p_j, 1.0, p_c, 2, f)
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
        masks, original = [], metrics.spectral_efficiency

        def spy(cfg, flagged, *args):
            masks.append(flagged)
            return original(cfg, flagged, *args)

        monkeypatch.setattr(metrics, "spectral_efficiency", spy)
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
        monkeypatch.setattr(metrics, "calibrate_from_preamble",
                            lambda *args: computed.append(args))
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
        step = max(1, jamming.BLOCK_SAMPLES // (n * k))
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
        # the oracle's clean modes hold rounding residue (~1e-32), so the relative
        # tolerance is taken against the jamming variance
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * variance)
        # only the jammed rows of W are decomposed: every clean mode reads exactly 0.0
        clean = np.ones((trials, n), dtype=bool)
        np.put_along_axis(clean, jam_sets, False, axis=1)
        assert not got[clean].any()
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

    @pytest.mark.parametrize("n", [0, -1, 16.0, True])
    def test_ring_size_rejected_before_any_draw(self, n):
        # unchecked, 0 returned a (2, 0) array, -1 and 16.0 raised numpy's errors
        rng = substream(1, 0)
        with pytest.raises(ValueError, match="ring size"):
            sense_targeted(rng, np.empty((2, 0), int), n, 64, 1.0)
        assert rng.random() == substream(1, 0).random()

    def test_consecutive_calls_match_the_per_block_arithmetic(self):
        # the sweep's path: one call per (N, l_j), a ring's jammed counts in a row. At N = 16
        # a block holds 32 trials (l_j = N included); at N = 1024, N * K passes the block
        # and each block is one trial
        k, variance = 64, 1.0
        for n, counts in ((16, (8, 2, 16)), (1024, (256, 1))):
            step = max(1, jamming.BLOCK_SAMPLES // (n * k))
            trials = 2 * step + 3     # two full blocks and a ragged one, or five of one trial
            w, w_h = mode_transform(n), mode_transform(n).conj().T
            for point, n_jammed in enumerate(counts):
                jam_sets = metrics._draw_jam_sets(np.random.default_rng(point), trials, n,
                                                  n_jammed)
                got = sense_targeted(substream(9, point), jam_sets, n, k, variance)
                # oracle: one (trials, l_j, K) draw, then each block's arithmetic, the jammed
                # columns of a full W^H out and the jammed rows of W back, the rest 0
                samples = complex_gaussian(substream(9, point), jam_sets.shape + (k,), variance)
                expected = np.zeros((trials, n))
                for start in range(0, trials, step):
                    jammed = jam_sets[start:start + step]
                    elements = w_h[:, jammed].transpose(1, 0, 2) @ samples[start:start + step]
                    np.put_along_axis(expected[start:start + step], jammed,
                                      np.mean(np.abs(w[jammed] @ elements) ** 2, axis=-1),
                                      axis=1)
                assert np.array_equal(got, expected), (n, n_jammed)

    @pytest.mark.parametrize("n_jammed", [4, 16])
    def test_sensing_memory_is_bounded_by_trials_times_modes(self, n_jammed):
        # the targeted twin of the iid bound: each block of trials draws its own samples, so
        # no (trials, l_j, K) draw is held, which alone would take 8.2 MB at l_j = 4 and
        # 32.8 MB at l_j = 16
        trials, n, k = 2000, 16, 64
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(n_jammed,), n_elements=(n,))
        peak = traced_peak(lambda: run_sweep(Scenario(LinkConfig(samples_per_symbol=k), axes,
                                                      trials=trials, seed=1)))
        assert peak < trials * n * k * np.dtype(complex).itemsize / 8

    def test_wide_ring_call_holds_no_copy_of_w(self):
        # one trial a block at N = 1024: a block gathers and conjugates only the l_j jammed
        # rows of the cached W (4.2 MB), never a copy of the whole W^H (16.8 MB)
        n, l_j, trials = 1024, 256, 8
        jam_sets = metrics._draw_jam_sets(np.random.default_rng(2), trials, n, l_j)
        w = mode_transform(n)   # built and cached outside the traced call
        peak = traced_peak(lambda: sense_targeted(substream(3, 1), jam_sets, n, 64, 1.0))
        assert peak < w.nbytes

    def test_concurrent_callers_share_no_work_array(self):
        # a work array shared between calls would mix blocks of calls that overlap;
        # matmul releases the interpreter lock, so the threads do overlap
        n, k, trials = 16, 64, 100
        jam_sets = metrics._draw_jam_sets(np.random.default_rng(5), trials, n, 8)

        def call(seed):
            return sense_targeted(substream(seed, 1), jam_sets, n, k, 1.0)

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {seed: pool.submit(call, seed) for seed in range(8)}
            for seed, future in futures.items():
                assert np.array_equal(future.result(timeout=60), call(seed))

    def test_the_sweep_runs_the_readme_chain(self):
        # each row is the public chain on the point's link: draw the jam sets, sense_targeted
        # on the pair's sensing stream, threshold; calibrate every mode on the point's
        # preamble stream, average_correct_detection between the two PGA levels'
        # hypothesis variances; spectral_efficiency of both schemes
        scenario = Scenario(LinkConfig(), SweepAxes(snr_db=(0.0, 10.0), n_jammed=(0, 3),
                                                    n_elements=(8, 16)), trials=40, seed=7)
        variance, rows = scenario.options.jam_variance_tx, run_sweep(scenario)
        assert len(rows) == 2 * len(scenario._links) == 16
        for pair, ((n, n_jam, snr_db), (cfg, power)) in zip(zip(rows[::2], rows[1::2]),
                                                            scenario._links):
            assert [(r.scheme, r.n_elements, r.n_jammed, r.snr_db) for r in pair] == [
                (scheme, n, n_jam, snr_db) for scheme in (PROPOSED, BASELINE)]
            rng = substream(scenario.seed, n, n_jam, 1)
            jam_sets = metrics._draw_jam_sets(rng, scenario.trials, n, n_jam)
            flagged = sense_targeted(rng, jam_sets, n, cfg.samples_per_symbol,
                                     variance) >= cfg.energy_threshold_tx
            kappas = mode_link_gains(cfg)
            stream = substream(scenario.seed, *point_key(n, n_jam, snr_db), 0)
            q_th = np.array([calibrate_from_preamble(cfg, kappa, variance, stream)
                             for kappa in kappas])
            p_c = average_correct_detection(
                q_th, cfg.samples_per_symbol,
                *(hypothesis_variance(cfg, kappas, gain, variance) for gain in cfg.pga_gains),
                cfg.pga_priors)
            se = spectral_efficiency(cfg, flagged, kappas, power, variance, pair[0].p_j, 1.0,
                                     p_c)
            for row, scheme in zip(pair, (PROPOSED, BASELINE)):
                assert se[scheme].mean() == row.se_bits, (scheme, n, n_jam, snr_db)
                # a pair with no jammed mode reports no p_c
                assert (row.p_c == p_c.mean()) if n_jam else math.isnan(row.p_c)

    def test_memory_is_bounded_by_the_jammed_modes(self):
        trials, n, k = 2000, 16, 64
        cfg = LinkConfig(samples_per_symbol=k)
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(2,), n_elements=(n,))
        peak = traced_peak(lambda: run_sweep(Scenario(cfg, axes, SweepOptions(ber_trials=0),
                                                      trials=trials, seed=1)))
        # half of one dense (trials, N, K) complex array: 16.4 MB
        assert peak < trials * n * k * np.dtype(complex).itemsize / 2

    def test_a_threshold_below_rounding_residue_flags_only_the_jammed_modes(self):
        # the W round trip of every mode left ~1e-30 on the clean ones, so a 1e-35
        # threshold flagged all 16 modes: baseline SE 0 and proposed 3.834 at p_u = 1
        axes = SweepAxes(snr_db=(10.0,), n_jammed=(2,), n_elements=(16,))
        sweeps = [run_sweep(Scenario(LinkConfig(energy_threshold_tx=threshold), axes,
                                     trials=50))
                  for threshold in (1e-35, LinkConfig().energy_threshold_tx)]
        (proposed, baseline), (_, default_baseline) = sweeps
        assert proposed.p_u == 1.0 and proposed.p_j == 1.0
        # the same flags as the default threshold, which no clean mode reaches
        assert baseline.se_bits == default_baseline.se_bits
        assert baseline.se_bits == pytest.approx(37.985, abs=1e-3)
        assert proposed.se_bits == pytest.approx(38.487, abs=1e-3)
