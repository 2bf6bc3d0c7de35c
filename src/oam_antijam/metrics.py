"""Spectrum efficiency, targeted sensing, and Monte Carlo sweeps.

The proposed scheme senses which modes are jammed, splits the point's transmit power over
the clean modes, and rides the reflected jamming on the jammed ones; the baseline is the
identical system with the jammed-mode contribution forced to zero.
:func:`spectral_efficiency`, the one SNR and rate formula of the package, gives both
schemes' bits per trial of a flag mask. Sweeps iterate (SNR, jammed-mode count, ring size)
grids and record spectrum efficiency plus the detector and decoder probabilities. A
:class:`Scenario` is the one description of a sweep (link, grid, knobs, trial count, seed);
constructing it checks every grid point, so :func:`run_sweep` takes it as it is and no
point runs of a sweep that cannot finish.

SNR axis semantics: ``snr_db`` fixes the receiver noise variance as ``power_per_mode`` /
SNR. With the default unit-modulus element channel this coincides with the per-mode
received SNR, so sweeps are independent of the absolute free-space scale. Total transmit
power at each grid point is ``power_per_mode`` times max(N - l_j, 1) clean modes, keeping
the per-mode allocation constant across the jammed-count and ring-size axes. The
transmitter senses the jamming alone, never the receiver noise, so the points of one
(N, l_j) share its trials' jam sets and flags: rows along the SNR axis are paired (common
random numbers), and each row keeps its own distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .backscatter import (SYMBOL_CHUNK, average_correct_detection, calibrate_from_preamble,
                          hypothesis_variance, simulate_backscatter_bits)
from .channel import build_channel_matrix, mode_link_gains
from .config import (ConfigurationError, LinkConfig, check_count, check_nonnegative,
                     check_positive)
from .jamming import complex_gaussian, gamma_energies, substream
from .sensing import detection_probabilities
from .signals import mode_energies, mode_transform

PROPOSED = "proposed"
BASELINE = "baseline"

TARGETED = "targeted"
BROADBAND = "iid"

DEFAULT_SEED = 1234

# Complex samples per targeted-sensing block: 32 trials at N = 16, K = 64 (0.5 MB).
# On the default sweep (2-core AMD EPYC, 1 MB L2 per core, one BLAS thread), with
# only the jammed rows decomposed, blocks of 16, 64 and 128 trials took +1.9 %,
# -0.4 % and -1.5 % of the time at 32 (medians of 3 runs, each run within +-3 %):
# flat, so the smaller block is kept. A block's work array (_sense_work) is the
# sweep's, allocated once per ring size and reused by every block of every (N, l_j);
# sense_targeted allocates its own per call.
SENSE_BLOCK_SAMPLES = 32768

# The largest closed-form magnitude a grid point may reach (_check_magnitudes).
# Preamble calibration multiplies two level energies, so each must stay below
# sqrt(float max) ~ 1.3e154; 1e150 leaves a factor 1e4 for the Gamma tail of a draw.
MAGNITUDE_LIMIT = 1e150


@dataclass(frozen=True)
class SweepResult:
    """Averaged outcome of one (scheme, grid point) cell.

    ``se_stderr`` is over the row's trials only: it leaves out the one calibration draw that
    they all share (a row whose trials all flag the same modes reports 0). Rows along the
    SNR axis share their trials' sensing, so :func:`check_trends`' slack is conservative there.
    """

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
    n_elements: tuple[int, ...] | None = None   # None: the scenario link's (n_tx,)


@dataclass(frozen=True)
class SweepOptions:
    """Knobs of the Monte Carlo sweep beyond the physical link parameters.

    ``jam_variance_tx``, the jamming variance per jammed mode at the transmitter
    (per element too under iid, which jams every mode), is what the detector
    senses and the reflected link carries. None sets 1 W targeted and 0.1 W iid;
    a :func:`dataclasses.replace` keeps it as set, whatever else it changes.
    """

    jam_model: str = TARGETED
    jam_variance_tx: float | None = None
    ber_trials: int = 25
    ber_symbols: int = 8

    def __post_init__(self) -> None:
        if self.jam_model not in (TARGETED, BROADBAND):
            raise ConfigurationError(f"unknown jamming model {self.jam_model!r}")
        if self.jam_variance_tx is None:
            object.__setattr__(self, "jam_variance_tx",
                               0.1 if self.jam_model == BROADBAND else 1.0)
        check_positive("jam_variance_tx", self.jam_variance_tx)
        for name in ("ber_trials", "ber_symbols"):
            check_count(name, getattr(self, name), 0)


def spectral_efficiency(config: LinkConfig, flagged, link_gains: np.ndarray,
                        transmit_power: float, carrier_variance: float, p_j: float,
                        p_u: float, p_c=1.0) -> dict[str, np.ndarray]:
    """Per-trial rate sums sum_l log2(1 + gamma_l) of both schemes, in bits/s/Hz.

    ``flagged`` is the (..., N) jammed-mode mask, one row per trial (a 1-D mask
    is one trial). Returns ``{PROPOSED: ..., BASELINE: ...}``, each shaped like
    ``flagged`` without its mode axis: the baseline sums the clean modes, the
    proposed scheme the flagged ones too. The detection-weighted SNR is
    gamma = w * |kappa|^2 * P / (N * (noise + jamming variance)), kappa the
    composite through-link mode gain (``link_gains``, canonical mode order). A
    clean mode has w = p_u and P the trial's ``transmit_power`` split evenly
    over its clean modes; a jammed mode has w = p_j * p_c (``p_c`` scalar or
    per mode) and P the mean reflected jamming power, mean PGA power gain *
    ``carrier_variance``. A probability outside [0, 1], a transmit power or
    carrier variance not finite and >= 0, a nan among them, or a negative or
    nan SNR (from a nan link gain) raises ValueError.
    """
    if np.shape(flagged)[-1:] != (len(link_gains),):   # a 0-d mask has no mode axis
        raise ValueError(f"flag mask of shape {np.shape(flagged)} does not cover "
                         f"the {len(link_gains)} link-gain modes")
    p_c = np.asarray(p_c, dtype=float)
    for name, p in (("p_j", p_j), ("p_u", p_u), ("p_c", p_c)):
        if not np.all((p >= 0.0) & (p <= 1.0)):   # nan fails too
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    # inf would give a nan SNR: inf * False in the mask product, or inf * p_u at p_u = 0
    check_nonnegative("carrier variance", carrier_variance)
    check_nonnegative("transmit power", transmit_power)
    flagged = np.asarray(flagged, dtype=bool)
    n_clean = flagged.shape[-1] - flagged.sum(axis=-1)
    # a clean mode's SNR depends on its trial only through the clean count: one row per count
    counts, rows = np.unique(n_clean, return_inverse=True)
    # a row with no clean mode keeps SNR 0, so the full total on one mode cannot overflow
    share = np.where(counts > 0, transmit_power / np.maximum(counts, 1), 0.0)[:, None]
    kappa2 = np.abs(link_gains) ** 2
    floor = config.receiver_floor
    mean_power_gain = sum(p * g * g for g, p in zip(config.pga_gains, config.pga_priors))
    clean = p_u * kappa2 * share / floor
    jammed = p_j * p_c * kappa2 * mean_power_gain * carrier_variance / floor
    if not (np.all(clean >= 0.0) and np.all(jammed >= 0.0)):   # nan fails too
        raise ValueError(f"negative or nan SNR from the link gains {link_gains}")
    # the rates are finite and >= 0, so the mask product zeroes what np.where would
    baseline = (np.log2(1.0 + clean)[rows.reshape(n_clean.shape)] * ~flagged).sum(axis=-1)
    return {PROPOSED: baseline + (np.log2(1.0 + jammed) * flagged).sum(axis=-1),
            BASELINE: baseline}


def _point_config(config: LinkConfig, n_elements: int, n_jammed: int,
                  snr_db: float) -> tuple[LinkConfig, float]:
    """Link and transmit total of grid point (N, l_j, SNR), as the sweep and its checks build them.

    The link has N elements per ring and receiver noise variance
    ``power_per_mode`` / SNR; the total is ``power_per_mode`` times
    max(N - l_j, 1) clean modes. Raises :class:`ConfigurationError` for an SNR
    that is not finite or overflows 10**(SNR/10), a total that is not finite,
    and any value :class:`LinkConfig` rejects.
    """
    if not math.isfinite(snr_db):
        raise ConfigurationError(f"snr {snr_db} dB is not a finite number")
    try:
        noise = config.power_per_mode / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"snr {snr_db} dB out of range: the noise variance it "
                                 f"implies is not a finite number") from exc
    n_clean = max(n_elements - n_jammed, 1)
    transmit_power = config.power_per_mode * n_clean
    if not math.isfinite(transmit_power):
        raise ConfigurationError(f"power_per_mode {config.power_per_mode} times {n_clean} "
                                 f"clean modes is not a finite transmit total")
    return replace(config, n_tx=n_elements, noise_variance_rx=noise), transmit_power


def _check_magnitudes(cfg: LinkConfig, transmit_power: float, carrier_variance: float) -> None:
    """Refuse a point link whose closed-form magnitudes could overflow a draw or a product.

    Every link gain obeys |kappa_l| <= N * element_gain, so these bound what
    the point computes: the jamming variance the detector senses, the squared
    top PGA gain a, the top hypothesis variance (N * element_gain * a)^2 *
    jam_variance_tx + receiver floor, and the clean and jammed SNRs, their
    numerators (N * element_gain)^2 * transmit total and (N * element_gain *
    a)^2 * jam_variance_tx over the receiver floor. Raises
    :class:`ConfigurationError` naming the first that exceeds MAGNITUDE_LIMIT.
    """
    kappa, top, floor = cfg.n_tx * cfg.element_gain, cfg.pga_gains[-1], cfg.receiver_floor
    # float products overflow to inf, where ** would raise OverflowError
    reflected = kappa * top * (kappa * top) * carrier_variance
    clean = kappa * kappa * transmit_power
    for name, value in (("jam_variance_tx", carrier_variance),
                        (f"the top PGA gain {top:g} squared", top * top),
                        ("the top hypothesis variance", reflected + floor),
                        ("the clean-mode SNR bound", max(clean, clean / floor)),
                        ("the jammed-mode SNR bound", max(reflected, reflected / floor))):
        if not value <= MAGNITUDE_LIMIT:
            raise ConfigurationError(f"{name} is {value:.3g}, beyond {MAGNITUDE_LIMIT:g}")


@dataclass(frozen=True)
class Scenario:
    """One sweep: the link, the grid, the knobs, the trial count and the seed.

    Construction, and so every :func:`dataclasses.replace`, sets ring sizes of
    None to ``(config.n_tx,)``, then rejects a sweep that holds a point which
    cannot run. ``trials`` must be an integer >= 1 and ``seed`` one >= 0. No
    axis may be empty or repeat a value. Every ring size must be an integer
    >= 1 and every jammed-mode count one in 0..N for every ring size N; the
    iid model, which jams no chosen modes, takes only n_jammed = 0. Every
    array a point allocates must fit numpy's limit of sys.maxsize bytes,
    which also bounds the trial count and the ring sizes. Last, every grid
    point's link is built by :func:`_point_config`, so a finite SNR, a finite
    transmit total and a noise variance that :class:`LinkConfig` accepts are
    checked at every point; then every point's closed-form magnitudes are
    bounded (:func:`_check_magnitudes`). The error names the first point that
    fails. The sweep runs the links built here, kept in grid order.
    """

    config: LinkConfig
    axes: SweepAxes
    options: SweepOptions = SweepOptions()
    trials: int = 1000
    seed: int = DEFAULT_SEED
    schemes = (PROPOSED, BASELINE)   # not a field: every sweep writes both, in this order

    def __post_init__(self) -> None:
        if self.axes.n_elements is None:
            object.__setattr__(self, "axes", replace(self.axes, n_elements=(self.config.n_tx,)))
        config, axes, options, trials = self.config, self.axes, self.options, self.trials
        check_count("trials", trials, 1)
        check_count("seed", self.seed, 0, math.inf)
        for name in ("snr_db", "n_jammed", "n_elements"):
            values = getattr(axes, name)
            if not values:
                raise ConfigurationError(f"the {name} axis is empty")
            if len(set(values)) < len(values):
                raise ConfigurationError(f"the {name} axis repeats a value: {values}")
        for n_el in axes.n_elements:
            check_count("ring size", n_el, 1)
            for n_jam in axes.n_jammed:
                check_count("n_jammed", n_jam, 0, n_el)
        # the largest arrays at 16 bytes an entry: the per-symbol variances of the preamble
        # and of the p probe symbols (one batch per point; the probe's per-symbol link gains
        # are complex), a link chunk's unit draw, the sensing draw, a sensing block row, the
        # (N, N) mode transform W of sense_targeted; at 8 bytes: the (trials, N) draws
        i, k, n, l_j = (config.preamble_length, config.samples_per_symbol,
                        max(axes.n_elements), max(axes.n_jammed))
        p = min(options.ber_trials, trials) * l_j * options.ber_symbols
        largest = max(16 * max(i, p, min(max(i, p), SYMBOL_CHUNK) * k, trials * l_j * k,
                               n * k, n * n), 8 * trials * n)
        if largest > sys.maxsize:
            raise ConfigurationError(
                f"preamble_length {i}, {p} probe symbols, samples_per_symbol {k}, trials "
                f"{trials} and ring size {n} size an array of {largest} bytes, beyond numpy's "
                f"limit of {sys.maxsize}")
        if options.jam_model == BROADBAND and any(axes.n_jammed):
            raise ConfigurationError(
                f"the iid model jams no chosen modes: n_jammed must be 0, got {axes.n_jammed}")
        points = list(product(axes.n_elements, axes.n_jammed, axes.snr_db))
        links = [_at_point(point, _point_config, config, *point) for point in points]
        for point, link in zip(points, links):
            _at_point(point, _check_magnitudes, *link, options.jam_variance_tx)
        object.__setattr__(self, "_links", tuple(zip(points, links)))   # ((N, l_j, SNR), link)


def _at_point(point: tuple, check, *args):
    """``check(*args)``, its :class:`ConfigurationError` prefixed with the grid point."""
    try:
        return check(*args)
    except ConfigurationError as exc:
        n_el, n_jam, snr_db = point
        raise ConfigurationError(
            f"grid point (N={n_el}, l_j={n_jam}, snr={snr_db:g} dB): {exc}") from exc


def _point_thresholds(cfg: LinkConfig, kappas: np.ndarray, carrier_variance: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode calibrated thresholds q_th and analytic correct-decision probabilities."""
    gains, priors = cfg.pga_gains, cfg.pga_priors
    q_th = np.array([calibrate_from_preamble(cfg, kappa, carrier_variance, rng)
                     for kappa in kappas])
    sigma2_0, sigma2_1 = (hypothesis_variance(cfg, kappas, gain, carrier_variance)
                          for gain in (gains[0], gains[-1]))
    p_c = np.array([average_correct_detection(q, cfg.samples_per_symbol, s0, s1,
                                              (priors[0], priors[-1]))
                    for q, s0, s1 in zip(q_th, sigma2_0, sigma2_1)])
    return q_th, p_c


def _measure_ber(cfg: LinkConfig, kappas: np.ndarray, q_th: np.ndarray,
                 carrier_variance: float, jam_sets: np.ndarray,
                 rng: np.random.Generator, options: SweepOptions) -> float:
    """Empirical symbol error rate of the reflected link on a probe budget.

    Each jammed mode of the first ``options.ber_trials`` rows of ``jam_sets``
    is a probe of ``options.ber_symbols`` symbols. One ``rng`` draw gives every
    bit and one :func:`simulate_backscatter_bits` call sends every symbol at its
    mode's link gain, decided against its mode's ``q_th``. nan if nothing is probed.
    """
    modes = np.repeat(jam_sets[:options.ber_trials].ravel(), options.ber_symbols)
    if modes.size == 0:
        return float("nan")
    bits = (rng.random(modes.size) < cfg.pga_priors[-1]).astype(int)
    energies = simulate_backscatter_bits(cfg, kappas[modes], cfg.pga_gains, bits,
                                         carrier_variance, rng)
    return float(np.mean((energies >= q_th[modes]) != bits))


def _draw_jam_sets(rng: np.random.Generator, trials: int, n: int, n_jammed: int) -> np.ndarray:
    """(trials, n_jammed) mode rows, each a uniformly random subset of range(n)."""
    return np.argsort(rng.random((trials, n)), axis=1)[:, :n_jammed]


def _sense_work(trials: int, n: int, k: int) -> np.ndarray:
    """(rows, n, k) complex element samples of one sensing block, rows in 1..trials."""
    return np.empty((min(trials, max(1, SENSE_BLOCK_SAMPLES // (n * k))), n, k), dtype=complex)


def sense_targeted(rng: np.random.Generator, jam_sets: np.ndarray, n: int, k: int,
                   variance: float) -> np.ndarray:
    """(trials, n) detector energies of CN(0, variance) jamming on the modes ``jam_sets``.

    ``jam_sets`` is a (trials, l_j) integer array: row t lists the positions,
    in canonical mode order (``mode_index_range(n)``), of the modes jammed in
    trial t. Each jammed mode carries K samples of one (trials, l_j, K)
    :func:`complex_gaussian` draw from ``rng``; every other mode carries none.
    The draw goes through the jammed columns of W^H and back through the jammed
    rows of W (:func:`mode_energies`), a block of trials at a time, on a work
    array of its own; a clean mode's energy is exactly 0 and l_j = 0 draws
    nothing. Raises ValueError, before any draw, unless the ring size ``n`` and
    ``k`` are integers >= 1, ``jam_sets`` is a 2-D integer array of positions
    in 0..n-1 with no position repeated within a row and the variance finite
    and >= 0, even if nothing is drawn.
    """
    return _sense_targeted(rng, jam_sets, n, k, variance, None)


def _sense_targeted(rng: np.random.Generator, jam_sets: np.ndarray, n: int, k: int,
                    variance: float, work: np.ndarray | None) -> np.ndarray:
    """:func:`sense_targeted` on the caller's :func:`_sense_work` array (None: a new one).

    The returned energies are a new array; the work array only passes a block on.
    """
    check_count("ring size", n, 1)
    check_count("samples per symbol k", k, 1)
    check_nonnegative("variance", variance)
    jam_sets = np.asarray(jam_sets)
    if jam_sets.ndim != 2 or not np.issubdtype(jam_sets.dtype, np.integer):
        raise ValueError(f"jam_sets must be a 2-D integer array, got {jam_sets.dtype} "
                         f"of shape {jam_sets.shape}")
    if jam_sets.size and not 0 <= jam_sets.min() <= jam_sets.max() < n:
        raise ValueError(f"jam_sets positions must lie in 0..{n - 1}")
    if np.any(np.diff(np.sort(jam_sets, axis=1), axis=1) == 0):
        raise ValueError("jam_sets repeats a position within a row")
    energies = np.zeros((len(jam_sets), n))
    if jam_sets.size:
        samples = complex_gaussian(rng, jam_sets.shape + (k,), variance)
        elements = _sense_work(len(jam_sets), n, k) if work is None else work
        w_h, step = mode_transform(n).conj().T, len(elements)
        for start in range(0, len(jam_sets), step):
            jammed = jam_sets[start:start + step]
            columns = w_h[:, jammed].transpose(1, 0, 2)   # (block, N, l_j)
            block = elements[:len(jammed)]   # a short last block uses the leading rows
            np.matmul(columns, samples[start:start + step], out=block)
            np.put_along_axis(energies[start:start + step], jammed,
                              mode_energies(block, jammed), axis=1)
    return energies


def _sweep_point(scenario: Scenario, n_jammed: int, snr_db: float,
                 cfg: LinkConfig, transmit_power: float, kappas: np.ndarray,
                 jam_sets: np.ndarray, flagged: np.ndarray, p_j: float,
                 p_u: float) -> list[SweepResult]:
    """Calibration, SE and BER probe of one grid point: one row per scheme, on shared trials.

    ``cfg`` and ``transmit_power`` are the point's :func:`_point_config`;
    ``kappas`` are the link gains of its ring size, ``jam_sets`` and ``flagged`` the
    trials' sensing at its (N, l_j); ``p_j`` and ``p_u`` weigh flagged and unflagged modes.
    """
    options, trials, seed = scenario.options, scenario.trials, scenario.seed
    n_elements, carrier_variance = cfg.n_tx, options.jam_variance_tx
    # stage substreams (key, 0|2) of the point itself, its SNR as IEEE-754 bits, -0.0 as 0.0
    key = n_elements, n_jammed, int(np.float64(float(snr_db) + 0.0).view(np.uint64))

    q_th, p_c_modes = _point_thresholds(cfg, kappas, carrier_variance, substream(seed, *key, 0))
    se = spectral_efficiency(cfg, flagged, kappas, transmit_power, carrier_variance, p_j, p_u,
                             p_c_modes)
    se_mean = {scheme: float(values.mean()) for scheme, values in se.items()}
    if not all(map(math.isfinite, se_mean.values())):
        raise FloatingPointError("non-finite spectrum efficiency")

    ber = _measure_ber(cfg, kappas, q_th, carrier_variance, jam_sets,
                       substream(seed, *key, 2), options)
    p_c = float(p_c_modes.mean()) if n_jammed or options.jam_model == BROADBAND else np.nan
    return [SweepResult(
        scheme=scheme, snr_db=snr_db, n_elements=n_elements, n_jammed=n_jammed,
        se_bits=se_mean[scheme], p_j=p_j, p_u=p_u, p_c=p_c,
        ber=ber if scheme == PROPOSED else float("nan"), trials=trials, seed=seed,
        se_stderr=float(se[scheme].std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0)
        for scheme in scenario.schemes]


def run_sweep(scenario: Scenario) -> list[SweepResult]:
    """Monte Carlo sweep over the scenario's grid, deterministic in its seed.

    Grid order is n_elements, then n_jammed, then snr_db; each point runs ``scenario.trials``
    independent sense/partition/allocate/decide trials, both schemes on the same realizations.
    A point calibrates and probes on substreams keyed by the point alone; each (N, l_j) senses
    its trials once, on substream (N, l_j, 1), and every SNR of it reuses the flags.
    An overflow or invalid operation in a point raises FloatingPointError naming the point.
    """
    config, options, trials, rows = scenario.config, scenario.options, scenario.trials, []
    kappas = work = pair = None
    targeted, variance = options.jam_model == TARGETED, options.jam_variance_tx
    k = config.samples_per_symbol
    # the detector's p_j, p_u depend only on its threshold, K and the jamming variance; iid
    # jamming hits every mode with the carrier's variance, targeted leaves clean modes silent
    p_j, p_u = detection_probabilities(config.energy_threshold_tx, k, variance)
    p_u = 1.0 if targeted else p_u
    jam_sets = np.empty((trials, 0), dtype=int)   # iid jamming chooses no modes
    with np.errstate(over="raise", invalid="raise"):
        for (n, n_jam, snr_db), (cfg, transmit_power) in scenario._links:
            try:
                if kappas is None or len(kappas) != n:   # a new ring size
                    # the channel row does not depend on the noise variance
                    kappas = mode_link_gains(cfg, build_channel_matrix(cfg))
                    if targeted:
                        work = _sense_work(trials, n, k)
                if pair != (n, n_jam):   # the grid keeps the SNRs of each (N, l_j) together
                    pair, rng = (n, n_jam), substream(scenario.seed, n, n_jam, 1)
                    if targeted:
                        jam_sets = _draw_jam_sets(rng, trials, n, n_jam)
                        energies = _sense_targeted(rng, jam_sets, n, k, variance, work)
                    else:   # the unitary W keeps iid element jamming iid per mode
                        energies = gamma_energies(rng, (trials, n), variance, k)
                    flagged = energies >= cfg.energy_threshold_tx   # (trials, N)
                    del energies
                rows += _sweep_point(scenario, n_jam, snr_db, cfg, transmit_power, kappas,
                                     jam_sets, flagged, p_j, p_u)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"grid point (N={n}, l_j={n_jam}, snr={snr_db:g} dB): {exc}") from exc
    return rows


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
    checks: list[TrendCheck] = []

    def along(name: str, axis: int, increasing: bool, keep=lambda key: True) -> TrendCheck:
        """Mean SE along key position ``axis`` with the other positions held fixed."""
        lines: dict[tuple, list[tuple]] = {}
        for key in sorted(k for k in by_key if keep(k)):
            lines.setdefault(key[:axis] + key[axis + 1:], []).append(key)
        bad = []
        for line in sorted(lines):
            for ka, kb in zip(lines[line], lines[line][1:]):
                a, b = by_key[ka], by_key[kb]
                slack = math.hypot(a.se_stderr, b.se_stderr)
                if (b.se_bits < a.se_bits - slack if increasing
                        else b.se_bits > a.se_bits + slack):
                    bad.append(line + (ka[axis], kb[axis]))
        return TrendCheck(name, not bad, "ok" if not bad else f"violated at {bad[:4]}")

    if {PROPOSED, BASELINE} <= {r.scheme for r in results}:
        bad = [k for k in by_key if k[0] == PROPOSED
               and by_key[k].se_bits < by_key[(BASELINE,) + k[1:]].se_bits]
        checks.append(TrendCheck(
            "proposed >= baseline at every grid point", not bad,
            "ok" if not bad else f"violated at {sorted(bad)[:4]}"))
    if len({r.n_jammed for r in results}) > 1:
        checks.append(along("mean SE non-increasing in jammed-mode count", 2, False))
    checks.append(along("mean SE non-decreasing in SNR", 3, True))
    if len({r.n_elements for r in results}) > 1:
        checks.append(along("mean SE non-decreasing in element count at SNR >= 0 dB", 1,
                            True, keep=lambda key: key[3] >= 0.0))
    return checks
