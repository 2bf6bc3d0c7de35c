"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed criterion fails its test before printing). The slowest
entries are the two full trend sweeps; the whole module stays well inside its
stated runtime budgets on a laptop-class machine.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oam_antijam import (
    BASELINE,
    LinkConfig,
    PROPOSED,
    Scenario,
    SweepAxes,
    SweepOptions,
    detection_probabilities,
    mode_index_range,
    mode_link_gains,
    run_sweep,
    substream,
)
from oam_antijam.backscatter import (
    average_correct_detection,
    calibrate_from_preamble,
    calibrate_threshold,
    hypothesis_variance,
    simulate_backscatter_bits,
)
from oam_antijam.channel import build_channel_matrix, element_azimuths
from oam_antijam.cli import main
from oam_antijam.jamming import complex_gaussian
from oam_antijam.signals import mode_energies, mode_transform
from oracles import bessel_j, circulant, exact_channel_matrix, mode_channel_gain, series_bessel

REFERENCE = LinkConfig(beta=1.0)   # the physical free-space scale


def report(number: int, message: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS: {message} ({elapsed:.2f}s)")


def test_criterion_01_round_trip_and_parseval():
    started = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32):
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            s = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
            w = mode_transform(n)
            element = w.conj().T @ s
            recovered = w @ element
            scale = np.max(np.abs(s))
            worst = max(worst, np.max(np.abs(recovered - s)) / scale)
            e_modes = np.sum(np.abs(s) ** 2)
            e_elements = np.sum(np.abs(element) ** 2)
            worst = max(worst, abs(e_elements - e_modes) / e_modes)
    assert worst <= 1e-12
    report(1, f"transform round-trip and energy preservation (max rel err {worst:.2e})",
           started, 1.0)


def test_criterion_02_bessel_oracle():
    started = time.perf_counter()
    worst = 0.0
    for l in range(-8, 9):
        for alpha in (0.0, 0.5, 1.0, 2.4048, 4.548, 10.0, 20.0):
            worst = max(worst, abs(bessel_j(l, alpha) - series_bessel(l, alpha)))
    assert worst <= 1e-8
    rec = 0.0
    for l in range(-8, 9):
        for alpha in np.linspace(0.5, 20.0, 14):
            lhs = bessel_j(l - 1, alpha) + bessel_j(l + 1, alpha)
            rec = max(rec, abs(lhs - 2.0 * l / alpha * bessel_j(l, alpha)))
    assert rec <= 1e-8
    report(2, f"power-series agreement {worst:.1e}, recurrence residual {rec:.1e}",
           started, 1.0)


def test_criterion_03_channel_gain_equivalence():
    started = time.perf_counter()
    spreads = {}
    for n in (8, 16):
        cfg = LinkConfig(n_tx=n, beta=1.0)
        h = circulant(build_channel_matrix(cfg))
        phi = element_azimuths(n)
        ratios = []
        for l in mode_index_range(n):
            sandwich = np.exp(-1j * phi * l) @ h @ np.exp(1j * phi * l) / np.sqrt(n)
            ratios.append(abs(sandwich) / abs(mode_channel_gain(cfg, l)))
        spreads[n] = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spreads[n] < 1e-9

    exact = exact_channel_matrix(REFERENCE)
    approx = circulant(build_channel_matrix(REFERENCE))
    modulus_err = float(np.max(np.abs(np.abs(exact) - np.abs(approx)) / np.abs(exact)))
    phase_err = float(np.max(np.abs(np.angle(exact * np.conj(approx)))))
    assert modulus_err < 0.01
    assert phase_err < 0.01
    report(3, "mode gain matches matrix decomposition "
              f"(spread N=8 {spreads[8]:.1e}, N=16 {spreads[16]:.1e}; "
              f"exact-vs-expanded {100 * modulus_err:.2f}% / {phase_err:.4f} rad)",
           started, 5.0)


def test_criterion_04_detector_calibration():
    started = time.perf_counter()
    n_el = 4
    trials_per_cell = 10_000
    blocks = trials_per_cell // n_el
    settings = [(0.1, 0.5), (0.1, 0.1), (0.05, 0.0375)]
    checked = 0
    for k in (4, 16, 64):
        for sigma2, e_th in settings:
            rng = np.random.default_rng(2_000_000 + 17 * k + int(1000 * e_th))
            flags = 0
            for _ in range(blocks):
                samples = complex_gaussian(rng, (n_el, k), sigma2)
                flags += int(np.sum(mode_energies(samples) >= e_th))
            empirical = flags / trials_per_cell
            analytic, _ = detection_probabilities(e_th, k, sigma2)
            stderr = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / trials_per_cell)
            assert abs(empirical - analytic) <= 3 * stderr, (
                f"K={k} sigma2={sigma2} E_th={e_th}: "
                f"empirical {empirical:.5f} vs analytic {analytic:.5f}")
            checked += 1
    report(4, f"{checked} detector cells within 3 standard errors of the gamma tail",
           started, 30.0)


def test_criterion_05_chi_square_statistic():
    started = time.perf_counter()
    cfg = REFERENCE  # noise 0.1 W, jamming 0.1 W at the receiver
    m = cfg.n_tx
    trials = 10_000
    psi = 2.0 * np.pi * np.arange(m) / m
    for k in (8, 16):
        rng = np.random.default_rng(300 + k)
        noise = complex_gaussian(rng, (trials, m, k), cfg.noise_variance_rx)
        jam = complex_gaussian(rng, (trials, m, k), cfg.jam_variance_rx)
        y_mode = np.einsum("m,tmk->tk", np.exp(-1j * psi * 2), noise + jam)
        q = np.mean(np.abs(y_mode) ** 2, axis=1)
        sigma2_k = m * (cfg.noise_variance_rx + cfg.jam_variance_rx)
        stat = 2.0 * k * q / sigma2_k
        mean_err = abs(stat.mean() - 2 * k) / (2 * k)
        var_err = abs(stat.var(ddof=1) - 4 * k) / (4 * k)
        assert mean_err < 0.02, f"K={k}: mean off by {100 * mean_err:.2f}%"
        assert var_err < 0.05, f"K={k}: variance off by {100 * var_err:.2f}%"
    report(5, "normalized receiver energy has chi-square moments at K in {8, 16}",
           started, 10.0)


def test_criterion_06_threshold_equals_likelihood_crossing():
    started = time.perf_counter()
    q0, q1 = 1.0, 2.0
    hand = calibrate_threshold([q0, q1], (0, 1), n_samples=1)
    assert hand == pytest.approx(2 * math.log(2), rel=1e-12)

    for k in (1, 8, 32):
        for p0 in (0.5, 0.75):  # prior ratios 1 and 3
            p1 = 1.0 - p0
            n_pre = 4
            bits = [0] * int(round(p0 * n_pre)) + [1] * int(round(p1 * n_pre))
            energies = [q0 if b == 0 else q1 for b in bits]
            q_th = calibrate_threshold(energies, bits, n_samples=k)

            def log_diff(q):
                return (math.log(p0) - k * math.log(q0) - q * k / q0
                        - math.log(p1) + k * math.log(q1) + q * k / q1)

            lo, hi = 1e-12, 100.0
            for _ in range(220):
                mid = 0.5 * (lo + hi)
                if log_diff(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            crossing = 0.5 * (lo + hi)
            assert q_th == pytest.approx(crossing, rel=1e-9), (
                f"K={k}, p0={p0}: threshold {q_th} vs crossing {crossing}")
    report(6, "calibrated threshold equals the bisection likelihood crossing "
              "(K in {1, 8, 32}, prior ratios {1, 3}; hand value 2 ln 2)",
           started, 1.0)


def _backscatter_config(noise_variance: float) -> LinkConfig:
    return LinkConfig(samples_per_symbol=16,
                      noise_variance_rx=noise_variance)


def test_criterion_07_backscatter_link_sanity():
    started = time.perf_counter()
    mode = 3
    carrier_variance = 1.0
    # per-mode power 100 W at SNRs {0, 10, 20} dB -> noise 100, 10, 1 W
    for i, noise_var in enumerate((100.0, 10.0, 1.0)):
        cfg = _backscatter_config(noise_var)
        kappa = mode_link_gains(cfg)[mode_index_range(cfg.n_tx).index(mode)]
        gains = cfg.pga_gains   # (0.5, 2.0), over the 16-symbol preamble
        rng = substream(4200 + i, 0)
        q_th = calibrate_from_preamble(cfg, kappa, carrier_variance, rng)
        bits = (rng.random(100_000) < 0.5).astype(int)
        energies = simulate_backscatter_bits(cfg, kappa, gains, bits, carrier_variance, rng)
        ber = float(np.mean((energies >= q_th) != bits))
        s2k0 = hypothesis_variance(cfg, kappa, 0.5, carrier_variance)
        s2k1 = hypothesis_variance(cfg, kappa, 2.0, carrier_variance)
        analytic = 1.0 - average_correct_detection(q_th, cfg.samples_per_symbol,
                                                   s2k0, s2k1)
        assert abs(ber - analytic) <= 0.01, (
            f"noise {noise_var}: BER {ber:.4f} vs analytic {analytic:.4f}")

    cfg = _backscatter_config(10.0)
    kappa = mode_link_gains(cfg)[mode_index_range(cfg.n_tx).index(mode)]
    bers = []
    for ratio in (1.0, 2.0, 4.0, 8.0):
        gains = (0.5, 0.5 * ratio)
        rng = substream(4300 + int(ratio), 0)
        if ratio == 1.0:
            # identical hypotheses: any threshold halves the symbols
            q_th = cfg.n_tx * 10.0
        else:
            q_th = calibrate_from_preamble(replace(cfg, pga_gains=gains), kappa,
                                           carrier_variance, rng)
        bits = (rng.random(20_000) < 0.5).astype(int)
        energies = simulate_backscatter_bits(cfg, kappa, gains, bits, carrier_variance, rng)
        bers.append(float(np.mean((energies >= q_th) != bits)))
    assert abs(bers[0] - 0.5) <= 0.02, f"ratio-1 error rate {bers[0]:.3f}"
    assert all(b <= a for a, b in zip(bers, bers[1:])), f"not monotone: {bers}"
    report(7, "error rate matches analytic within 0.01 and falls with the gain ratio "
              f"(ratio sweep {['%.3f' % b for b in bers]})",
           started, 60.0)


def _by_key(results):
    return {(r.scheme, r.n_elements, r.n_jammed, r.snr_db): r for r in results}


def test_criterion_08_jammed_count_trends():
    started = time.perf_counter()
    cfg = LinkConfig()
    axes = SweepAxes(snr_db=tuple(float(s) for s in range(-10, 31, 5)),
                     n_jammed=(0, 2, 4, 8), n_elements=(16,))
    results = run_sweep(Scenario(cfg, axes, SweepOptions(ber_trials=10, ber_symbols=4),
                                 trials=1000, seed=88))
    table = _by_key(results)
    for snr in axes.snr_db:
        for lj in axes.n_jammed:
            assert table[(PROPOSED, 16, lj, snr)].se_bits >= \
                table[(BASELINE, 16, lj, snr)].se_bits, f"(l_j={lj}, snr={snr})"
    for scheme in (PROPOSED, BASELINE):
        for snr in axes.snr_db:
            cells = [table[(scheme, 16, lj, snr)] for lj in axes.n_jammed]
            for a, b in zip(cells, cells[1:]):
                slack = math.hypot(a.se_stderr, b.se_stderr)
                assert b.se_bits <= a.se_bits + slack, (
                    f"{scheme} snr={snr}: SE rose {a.n_jammed}->{b.n_jammed} "
                    f"({a.se_bits:.3f} -> {b.se_bits:.3f})")
    report(8, "scheme dominates the baseline and SE degrades with jammed-mode "
              "count over the 9x4 grid at 1000 trials/point",
           started, 120.0)


def test_criterion_09_ring_size_trends():
    started = time.perf_counter()
    cfg = LinkConfig()
    axes = SweepAxes(snr_db=tuple(float(s) for s in range(-10, 31, 5)),
                     n_jammed=(4,), n_elements=(16, 20, 24, 28))
    results = run_sweep(Scenario(cfg, axes, SweepOptions(ber_trials=10, ber_symbols=4),
                                 trials=1000, seed=89))
    table = _by_key(results)
    for snr in [s for s in axes.snr_db if s >= 0.0]:
        cells = [table[(PROPOSED, n, 4, snr)] for n in axes.n_elements]
        for a, b in zip(cells, cells[1:]):
            slack = math.hypot(a.se_stderr, b.se_stderr)
            assert b.se_bits >= a.se_bits - slack, (
                f"snr={snr}: SE fell {a.n_elements}->{b.n_elements} "
                f"({a.se_bits:.3f} -> {b.se_bits:.3f})")
    for n in axes.n_elements:
        cells = [table[(PROPOSED, n, 4, snr)] for snr in axes.snr_db]
        for a, b in zip(cells, cells[1:]):
            slack = math.hypot(a.se_stderr, b.se_stderr)
            assert b.se_bits > a.se_bits - slack, (
                f"N={n}: SE not increasing {a.snr_db}->{b.snr_db} dB "
                f"({a.se_bits:.3f} -> {b.se_bits:.3f})")
    report(9, "SE grows with ring size (SNR >= 0 dB) and with SNR for "
              "N in {16, 20, 24, 28} at l_j = 4",
           started, 120.0)


def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("""
[sweep]
snr_db = -10, 0, 10, 20, 30
n_jammed = 0, 4
trials = 50
seed = 31415
ber_trials = 5
ber_symbols = 4
""")
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["--config", str(scenario), "--output", str(out1)]) == 0
    assert main(["--config", str(scenario), "--output", str(out2)]) == 0
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    assert len(blob1.splitlines()) == 1 + 5 * 2 * 2
    report(10, f"repeated sweep produced byte-identical CSV ({len(blob1)} bytes)",
           started, 120.0)
