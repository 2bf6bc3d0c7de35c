"""Per-mode SNR, spectrum efficiency, and Monte Carlo sweeps.

The proposed scheme senses which modes are jammed, splits the total transmit
power over the clean modes, and rides the reflected jamming on the jammed
ones; the baseline is the identical system with the jammed-mode contribution
forced to zero. Sweeps iterate (SNR, jammed-mode count, ring size) grids and
record spectrum efficiency plus the detector and decoder probabilities.

SNR axis semantics: ``snr_db`` fixes the receiver noise variance as
(allocated per-mode transmit power) / SNR. With the default unit-modulus
element channel this coincides with the per-mode received SNR, so sweeps are
independent of the absolute free-space scale. Total transmit power at each
grid point is per-mode power times the number of clean modes, keeping the
per-mode allocation constant across the jammed-count and ring-size axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .backscatter import (CalibrationError, EnergyThreshold, PgaAlphabet,
                          alternating_preamble, average_correct_detection,
                          calibrate_from_preamble, hypothesis_variance,
                          receiver_background_variance, simulate_backscatter_bits)
from .channel import APPROXIMATE, build_channel_matrix, mode_link_gains
from .config import ConfigurationError, LinkConfig
from .jamming import NOISE_VARIANCE_FLOOR, RandomStream, complex_gaussian, gamma_energies
from .sensing import DetectionStats, detection_probabilities
from .signals import mode_energies, mode_transform

PROPOSED = "proposed"
BASELINE = "baseline"

TARGETED = "targeted"
BROADBAND = "iid"


@dataclass(frozen=True)
class SweepResult:
    """Averaged outcome of one (scheme, grid point) cell."""

    scheme: str
    snr_db: float
    n_elements: int
    n_jammed: int
    se_bits: float
    p_j: float
    p_u: float
    p_c: float
    ber: float
    trials: int
    seed: int
    se_stderr: float = 0.0


@dataclass(frozen=True)
class SweepAxes:
    snr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_jammed: tuple[int, ...] = (0, 2, 4, 8)
    n_elements: tuple[int, ...] = (16,)


SNR_OVER_NOISE = "noise"
SNR_OVER_NOISE_PLUS_JAMMING = "noise-plus-jamming"


@dataclass(frozen=True)
class SweepOptions:
    """Knobs of the Monte Carlo sweep beyond the physical link parameters."""

    jam_model: str = TARGETED
    mode_jam_variance: float = 1.0   # per-jammed-mode variance of targeted jamming
    ber_trials: int = 25
    ber_symbols: int = 8
    verbatim_means: bool = False
    snr_reference: str = SNR_OVER_NOISE  # what the SNR axis divides the signal by

    def __post_init__(self) -> None:
        if self.jam_model not in (TARGETED, BROADBAND):
            raise ConfigurationError(f"unknown jamming model {self.jam_model!r}")
        if not 0.0 < self.mode_jam_variance < math.inf:
            raise ConfigurationError(f"mode_jam_variance must be positive and finite, "
                                     f"got {self.mode_jam_variance}")
        if self.snr_reference not in (SNR_OVER_NOISE, SNR_OVER_NOISE_PLUS_JAMMING):
            raise ConfigurationError(f"unknown snr_reference {self.snr_reference!r}")
        for name in ("ber_trials", "ber_symbols"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")


def allocate_power(config: LinkConfig, flagged) -> np.ndarray:
    """Per-mode transmit power, shaped like the jammed-mode mask ``flagged``.

    ``flagged`` is (..., N), one row per trial. The total budget is split
    evenly over each row's clean modes; jammed modes carry no transmit power
    (their signal rides on the reflected jamming). An all-jammed row gets an
    all-zero allocation.
    """
    flagged = np.asarray(flagged, dtype=bool)
    n_clean = flagged.shape[-1] - flagged.sum(axis=-1, keepdims=True)
    share = np.where(n_clean > 0,
                     config.transmit_power_total / np.maximum(n_clean, 1), 0.0)
    return np.where(flagged, 0.0, share)


def mode_snr(config: LinkConfig, flagged, link_gains: np.ndarray,
             carrier_variance: float, p_j: float, p_u: float,
             p_c=1.0) -> np.ndarray:
    """Detection-weighted power-ratio SNR of every mode, shaped like ``flagged``.

    gamma = w * |kappa|^2 * P / (M * (noise + jamming variance)), where kappa
    is the composite through-link mode gain (``link_gains``, canonical mode
    order). A clean mode has w = p_u and P its :func:`allocate_power` share;
    a jammed mode has w = p_j * p_c (``p_c`` scalar or per mode) and P the
    mean reflected jamming power, mean PGA power gain * ``carrier_variance``.
    """
    if np.shape(flagged)[-1] != len(link_gains):
        raise ValueError(f"flag mask of shape {np.shape(flagged)} does not cover "
                         f"the {len(link_gains)} link-gain modes")
    p_c = np.asarray(p_c, dtype=float)
    for name, p in (("p_j", p_j), ("p_u", p_u), ("p_c", p_c)):
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if carrier_variance < 0.0:
        raise ValueError(f"carrier variance must be >= 0, got {carrier_variance}")
    kappa2 = np.abs(link_gains) ** 2
    floor = receiver_background_variance(config)
    gamma_clean = p_u * kappa2 * allocate_power(config, flagged) / floor
    gamma_jam = p_j * p_c * kappa2 \
        * PgaAlphabet.from_config(config).mean_power_gain * carrier_variance / floor
    return np.where(flagged, gamma_jam, gamma_clean)


def spectral_efficiency(gamma, modes=None):
    """Rate sum C = sum_l log2(1 + gamma_l) in bits/s/Hz over the last axis.

    ``modes``, a boolean mask broadcastable to ``gamma``, restricts the sum to
    the selected modes (e.g. the clean ones of a trial).
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError(f"negative SNR in {gamma}")
    terms = np.log2(1.0 + gamma)
    if modes is not None:
        terms = np.where(modes, terms, 0.0)
    return terms.sum(axis=-1)


def _power_and_disturbance(config: LinkConfig, snr_db: float,
                           options: SweepOptions) -> tuple[float, float]:
    """Per-mode transmit power and the receiver noise variance it implies at one SNR."""
    per_mode = config.transmit_power_total / config.n_tx
    snr_linear = 10.0 ** (snr_db / 10.0)
    disturbance = per_mode / snr_linear
    if options.snr_reference == SNR_OVER_NOISE_PLUS_JAMMING:
        # the fixed receiver jamming power is part of the SNR denominator
        disturbance -= config.jam_variance_rx
    return per_mode, disturbance


def validate_axes(axes: SweepAxes) -> None:
    """Reject a grid whose SNRs, ring sizes or jammed-mode counts cannot run.

    Every SNR must be finite, every ring size must be >= 1 and every
    jammed-mode count must lie in 0..N for every ring size N.
    """
    for snr_db in axes.snr_db:
        if not math.isfinite(snr_db):
            raise ConfigurationError(f"snr {snr_db} dB is not a finite number")
    for n_el in axes.n_elements:
        if n_el < 1:
            raise ConfigurationError(f"ring size must be >= 1, got {n_el}")
        for n_jam in axes.n_jammed:
            if not 0 <= n_jam <= n_el:
                raise ConfigurationError(
                    f"n_jammed {n_jam} outside 0..{n_el} for N={n_el}")


def validate_grid(config: LinkConfig, axes: SweepAxes, options: SweepOptions) -> None:
    """Reject a sweep grid that holds a point which cannot run.

    On top of :func:`validate_axes`, every SNR must imply a finite noise
    variance that stays positive (the noise-plus-jamming reference subtracts
    the receiver jamming power from the disturbance the SNR implies), the
    PGA must have exactly two gain levels, one per bit of the reflected link,
    and the iid model, which jams no chosen modes, takes only n_jammed = 0.
    """
    validate_axes(axes)
    if options.jam_model == BROADBAND and any(axes.n_jammed):
        raise ConfigurationError(
            f"the iid model jams no chosen modes: n_jammed must be 0, got {axes.n_jammed}")
    if len(config.pga_gains) != 2:
        raise ConfigurationError(
            f"the reflected link is binary: its PGA needs exactly two gain levels "
            f"(bits 0 and 1), got {len(config.pga_gains)}")
    for snr_db in axes.snr_db:
        try:
            per_mode, disturbance = _power_and_disturbance(config, snr_db, options)
        except (OverflowError, ZeroDivisionError):
            disturbance = math.inf
        if not math.isfinite(disturbance):
            raise ConfigurationError(
                f"snr {snr_db} dB out of range: the noise variance it implies "
                f"is not a finite number")
        if disturbance <= 0.0:
            raise ConfigurationError(
                f"snr {snr_db} dB infeasible: per-mode power {per_mode} W over "
                f"noise+jamming requires noise below 0 at jamming "
                f"{config.jam_variance_rx} W")


def _point_thresholds(cfg: LinkConfig, channel, kappas: np.ndarray, alphabet: PgaAlphabet,
                      carrier_variance: float, rng: np.random.Generator,
                      options: SweepOptions) -> tuple[list[EnergyThreshold], np.ndarray]:
    """Per-mode calibrated thresholds and analytic correct-decision probabilities."""
    preamble = alternating_preamble(cfg.preamble_length)
    k = cfg.samples_per_symbol
    thresholds: list[EnergyThreshold] = []
    p_c = np.empty(len(kappas))
    for i, kappa in enumerate(kappas):
        s2k0 = hypothesis_variance(cfg, kappa, alphabet.gains[0], carrier_variance)
        s2k1 = hypothesis_variance(cfg, kappa, alphabet.gains[-1], carrier_variance)
        try:
            thr = calibrate_from_preamble(cfg, channel, cfg.mode_indices()[i], preamble,
                                          alphabet, carrier_variance, rng,
                                          verbatim_means=options.verbatim_means)
        except CalibrationError:
            # deep-noise fallback: pooled mean energy; averaged P_c is ~0.5 anyway
            pooled = 0.5 * (s2k0 + s2k1)
            thr = EnergyThreshold(q_th=pooled, q0_hat=pooled, q1_hat=2.0 * pooled)
        thresholds.append(thr)
        p_c[i] = average_correct_detection(thr.q_th, k, s2k0, s2k1,
                                           (alphabet.priors[0], alphabet.priors[-1]))
    return thresholds, p_c


def _measure_ber(cfg: LinkConfig, channel, alphabet: PgaAlphabet,
                 thresholds: list[EnergyThreshold], carrier_variance: float,
                 jam_sets: np.ndarray, rng: np.random.Generator,
                 options: SweepOptions) -> float:
    """Empirical symbol error rate of the reflected link on a probe budget."""
    if jam_sets.size == 0 or options.ber_trials == 0 or options.ber_symbols == 0:
        return float("nan")
    modes = cfg.mode_indices()
    errors = 0
    total = 0
    for row in jam_sets[:options.ber_trials]:
        for idx in row:
            bits = (rng.random(options.ber_symbols) < alphabet.priors[-1]).astype(int)
            decided, _ = simulate_backscatter_bits(
                cfg, channel, modes[idx], bits, alphabet, thresholds[idx],
                carrier_variance, rng)
            errors += int(np.sum(decided != bits))
            total += bits.size
    return errors / total if total else float("nan")


def _draw_jam_sets(rng: np.random.Generator, trials: int, n: int, n_jammed: int) -> np.ndarray:
    """(trials, n_jammed) mode rows, each a uniformly random subset of range(n)."""
    return np.argsort(rng.random((trials, n)), axis=1)[:, :n_jammed]


def _sweep_point(config: LinkConfig, n_elements: int, n_jammed: int, snr_db: float,
                 trials: int, seed: int, point_index: int,
                 options: SweepOptions) -> dict:
    """All Monte Carlo work for one grid point; schemes share the trials."""
    per_mode, disturbance = _power_and_disturbance(config, snr_db, options)
    cfg = replace(config, n_tx=n_elements, n_rx=n_elements,
                  noise_variance_rx=max(disturbance, NOISE_VARIANCE_FLOOR),
                  transmit_power_total=per_mode * max(n_elements - n_jammed, 1))
    channel = build_channel_matrix(cfg, APPROXIMATE)
    kappas = mode_link_gains(cfg, channel)
    alphabet = PgaAlphabet.from_config(cfg)
    carrier_variance = (options.mode_jam_variance if options.jam_model == TARGETED
                        else cfg.jam_variance_tx)
    k_sense = cfg.samples_per_symbol

    det_jam = detection_probabilities(cfg.energy_threshold_tx, k_sense, carrier_variance)
    if options.jam_model == TARGETED:
        det_clean = DetectionStats(p_jammed=0.0, p_unjammed=1.0)
    else:
        det_clean = detection_probabilities(cfg.energy_threshold_tx, k_sense,
                                            cfg.jam_variance_tx)

    rng_cal = RandomStream(seed, (point_index, 0)).generator()
    thresholds, p_c_modes = _point_thresholds(cfg, channel, kappas, alphabet,
                                              carrier_variance, rng_cal, options)

    # the unitary W keeps iid element jamming iid per mode, so draw iid energies directly
    rng_trials = RandomStream(seed, (point_index, 1)).generator()
    n = cfg.n_tx
    jam_sets = np.empty((trials, 0), dtype=int)
    if options.jam_model == BROADBAND:
        energies = gamma_energies(rng_trials, (trials, n), carrier_variance, k_sense)
    else:
        jam_sets = _draw_jam_sets(rng_trials, trials, n, n_jammed)
        source = np.zeros((trials, n, k_sense), dtype=complex)
        source[np.arange(trials)[:, None], jam_sets] = complex_gaussian(
            rng_trials, jam_sets.shape + (k_sense,), carrier_variance)
        energies = mode_energies(mode_transform(n).conj().T @ source)
    flagged = energies >= cfg.energy_threshold_tx   # (trials, N)

    gamma = mode_snr(cfg, flagged, kappas, carrier_variance,
                     det_jam.p_jammed, det_clean.p_unjammed, p_c_modes)
    se_baseline = spectral_efficiency(gamma, ~flagged)
    se_proposed = se_baseline + spectral_efficiency(gamma, flagged)

    rng_ber = RandomStream(seed, (point_index, 2)).generator()
    ber = _measure_ber(cfg, channel, alphabet, thresholds, carrier_variance,
                       jam_sets, rng_ber, options)

    def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
        err = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return float(values.mean()), err

    return {
        PROPOSED: mean_and_stderr(se_proposed),
        BASELINE: mean_and_stderr(se_baseline),
        "p_j": det_jam.p_jammed,
        "p_u": det_clean.p_unjammed,
        "p_c": float(p_c_modes.mean()) if n_jammed or options.jam_model == BROADBAND else np.nan,
        "ber": ber,
    }


def run_sweep(config: LinkConfig, axes: SweepAxes,
              schemes: tuple[str, ...] = (PROPOSED, BASELINE),
              trials: int = 1000, seed: int = 0,
              options: SweepOptions | None = None) -> list[SweepResult]:
    """Monte Carlo sweep over the requested grid, deterministic in the seed.

    Grid order is n_elements, then n_jammed, then snr_db; each point runs
    ``trials`` independent sense/partition/allocate/decide trials on its own
    substream, and both schemes are evaluated on the same realizations.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    for s in schemes:
        if s not in (PROPOSED, BASELINE):
            raise ConfigurationError(f"unknown scheme {s!r}")
    options = options or SweepOptions()
    validate_grid(config, axes, options)
    results: list[SweepResult] = []
    point_index = 0
    for n_elements in axes.n_elements:
        for n_jammed in axes.n_jammed:
            for snr_db in axes.snr_db:
                point = _sweep_point(config, n_elements, n_jammed, snr_db,
                                     trials, seed, point_index, options)
                for scheme in schemes:
                    se_mean, se_err = point[scheme]
                    if not np.isfinite(se_mean):
                        raise FloatingPointError(
                            f"non-finite spectrum efficiency at "
                            f"(N={n_elements}, l_j={n_jammed}, snr={snr_db})")
                    results.append(SweepResult(
                        scheme=scheme, snr_db=snr_db, n_elements=n_elements,
                        n_jammed=n_jammed, se_bits=se_mean,
                        p_j=point["p_j"], p_u=point["p_u"], p_c=point["p_c"],
                        ber=point["ber"] if scheme == PROPOSED else float("nan"),
                        trials=trials, seed=seed, se_stderr=se_err))
                point_index += 1
    return results


@dataclass(frozen=True)
class TrendCheck:
    name: str
    passed: bool
    detail: str


def check_trends(results: list[SweepResult]) -> list[TrendCheck]:
    """Property checks of the sweep trends, each with 1-standard-error slack.

    Covers scheme dominance, monotone degradation with more jammed modes,
    monotone improvement with SNR, and (when the ring-size axis is swept)
    monotone improvement with element count at non-negative SNR.
    """
    by_key = {(r.scheme, r.n_elements, r.n_jammed, r.snr_db): r for r in results}
    schemes = sorted({r.scheme for r in results})
    n_els = sorted({r.n_elements for r in results})
    n_jams = sorted({r.n_jammed for r in results})
    snrs = sorted({r.snr_db for r in results})
    checks: list[TrendCheck] = []

    def slack(a: SweepResult, b: SweepResult) -> float:
        return math.hypot(a.se_stderr, b.se_stderr)

    if PROPOSED in schemes and BASELINE in schemes:
        bad = [k for k in by_key if k[0] == PROPOSED
               and by_key[k].se_bits < by_key[(BASELINE,) + k[1:]].se_bits]
        checks.append(TrendCheck(
            "proposed >= baseline at every grid point", not bad,
            "ok" if not bad else f"violated at {sorted(bad)[:4]}"))

    if len(n_jams) > 1:
        bad = []
        for scheme in schemes:
            for n_el in n_els:
                for snr in snrs:
                    rs = [by_key[(scheme, n_el, j, snr)] for j in n_jams]
                    for a, b in zip(rs, rs[1:]):
                        if b.se_bits > a.se_bits + slack(a, b):
                            bad.append((scheme, n_el, snr, a.n_jammed, b.n_jammed))
        checks.append(TrendCheck(
            "mean SE non-increasing in jammed-mode count", not bad,
            "ok" if not bad else f"violated at {bad[:4]}"))

    bad = []
    for scheme in schemes:
        for n_el in n_els:
            for j in n_jams:
                rs = [by_key[(scheme, n_el, j, s)] for s in snrs]
                for a, b in zip(rs, rs[1:]):
                    if b.se_bits < a.se_bits - slack(a, b):
                        bad.append((scheme, n_el, j, a.snr_db, b.snr_db))
    checks.append(TrendCheck(
        "mean SE non-decreasing in SNR", not bad,
        "ok" if not bad else f"violated at {bad[:4]}"))

    if len(n_els) > 1:
        bad = []
        for scheme in schemes:
            for j in n_jams:
                for snr in [s for s in snrs if s >= 0.0]:
                    rs = [by_key[(scheme, n, j, snr)] for n in n_els]
                    for a, b in zip(rs, rs[1:]):
                        if b.se_bits < a.se_bits - slack(a, b):
                            bad.append((scheme, j, snr, a.n_elements, b.n_elements))
        checks.append(TrendCheck(
            "mean SE non-decreasing in element count at SNR >= 0 dB", not bad,
            "ok" if not bad else f"violated at {bad[:4]}"))

    return checks
