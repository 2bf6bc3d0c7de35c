"""Spectrum efficiency, targeted sensing, and Monte Carlo sweeps.

The proposed scheme senses which modes are jammed, splits the point's transmit power over
the clean modes, and rides the reflected jamming on the jammed ones; the baseline is the
identical system with the jammed-mode contribution forced to zero. :func:`spectral_efficiency`,
the one SNR and rate formula of the package, gives both schemes' bits per trial of a flag
mask, on one link or on the SNR points of a (ring size, jammed count) at once. Sweeps iterate
(SNR, jammed-mode count, ring size) grids and record spectrum efficiency plus the detector
and decoder probabilities. A :class:`Scenario` is the one description of a sweep (link,
grid, knobs, trial count, seed); constructing it checks every grid point, so
:func:`run_sweep` takes it as it is and no point runs of a sweep that cannot finish.

SNR axis semantics: ``snr_db`` fixes the receiver noise variance as ``power_per_mode`` /
SNR. With the default unit-modulus element channel this coincides with the per-mode
received SNR, so sweeps are independent of the absolute free-space scale. Total transmit
power at each grid point is ``power_per_mode`` times max(N - l_j, 1) clean modes, keeping
the per-mode allocation constant across the jammed-count and ring-size axes. The
transmitter senses the jamming alone, never the receiver noise, so the points of one
(N, l_j) share its trials' jam sets and flags, and one SE call: rows along the SNR axis are
paired (common random numbers), and each row keeps its own distribution.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby, product

import numpy as np

from .backscatter import (average_correct_detection, calibrate_from_preamble,
                          hypothesis_variance, simulate_backscatter_bits)
from .channel import build_channel_matrix, mode_link_gains
from .config import (ConfigurationError, LinkConfig, check_count, check_nonnegative,
                     check_positive)
from .jamming import BLOCK_SAMPLES, complex_gaussian, gamma_energies, substream
from .sensing import detection_probabilities
from .signals import mode_energies, mode_transform

PROPOSED = "proposed"
BASELINE = "baseline"

TARGETED = "targeted"
BROADBAND = "iid"

DEFAULT_SEED = 1234

# The largest closed-form magnitude a grid point may reach (_check_magnitudes).
# Preamble calibration multiplies two level energies, so each must stay below
# sqrt(float max) ~ 1.3e154; 1e150 leaves a factor 1e4 for the Gamma tail of a draw.
MAGNITUDE_LIMIT = 1e150


@dataclass(frozen=True)
class SweepResult:
    """Averaged outcome of one (scheme, grid point) cell.

    ``se_bits`` and ``se_stderr`` reduce the row's slice of its (N, l_j)'s (SNR points, trials)
    SE arrays. ``se_stderr`` counts the row's trials only, leaving out the one calibration draw
    they all share (a row whose trials all flag the same modes reports 0). Rows along the SNR
    axis share their trials' sensing, so :func:`check_trends`' slack is conservative there.
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


def spectral_efficiency(config: LinkConfig | Sequence[LinkConfig], flagged,
                        link_gains: np.ndarray, transmit_power: float, carrier_variance: float,
                        p_j: float, p_u: float, p_c=1.0) -> dict[str, np.ndarray]:
    """Per-trial rate sums sum_l log2(1 + gamma_l) of both schemes, in bits/s/Hz.

    ``flagged`` is the (..., N) jammed-mode mask, one row per trial (a 1-D mask is one trial).
    Returns ``{PROPOSED: ..., BASELINE: ...}`` shaped like ``flagged`` without its mode axis:
    the baseline sums the clean modes, the proposed scheme the flagged ones too. A ``config``
    sequence of S links of one ring size and PGA (the SNR points of an (N, l_j)) adds a
    leading S axis, each row the bits of its one-link call. The SNR is gamma = w * |kappa|^2
    * P / (N * (noise + jamming variance)), kappa the composite through-link mode gain
    (``link_gains``, canonical mode order). A clean mode has w = p_u and P the trial's
    ``transmit_power`` split evenly over its clean modes; a jammed mode has w = p_j * p_c
    (``p_c`` scalar, per mode or (S, N)) and P the mean reflected jamming power, mean PGA
    power gain * ``carrier_variance``. Mixed links, a probability outside [0, 1], a transmit
    power or carrier variance not finite and >= 0, a nan among them, or a link gain for which
    |kappa|^2 times that power is not finite raises ValueError, so that no SNR is nan.
    """
    links = [config] if isinstance(config, LinkConfig) else list(config)
    if len({(cfg.n_tx, cfg.pga_gains, cfg.pga_priors) for cfg in links}) != 1:
        raise ValueError("the links must be one or more of one ring size and one PGA")
    if np.shape(flagged)[-1:] != (len(link_gains),):   # a 0-d mask has no mode axis
        raise ValueError(f"flag mask of shape {np.shape(flagged)} does not cover "
                         f"the {len(link_gains)} link-gain modes")
    p_c = np.asarray(p_c, dtype=float)
    for name, p in (("p_j", p_j), ("p_u", p_u), ("p_c", p_c)):
        if not np.all((p >= 0.0) & (p <= 1.0)):   # nan fails too
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    # inf would give a nan SNR: inf * 0 in the mask product, or inf * p_u at p_u = 0
    check_nonnegative("carrier variance", carrier_variance)
    check_nonnegative("transmit power", transmit_power)
    mean_power_gain = sum(p * g * g for g, p in zip(links[0].pga_gains, links[0].pga_priors))
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow or inf * 0 fails the check
        kappa2 = np.abs(link_gains) ** 2
        reflected = kappa2 * mean_power_gain * carrier_variance
    if not np.all(np.isfinite(reflected)):
        raise ValueError(f"link gains must be finite, their reflected powers too: {link_gains}")
    flagged = np.asarray(flagged, dtype=bool)
    shape, flagged = flagged.shape[:-1], flagged.reshape(-1, flagged.shape[-1])
    n_clean = flagged.shape[-1] - flagged.sum(axis=-1)
    floors = np.array([[cfg.receiver_floor] for cfg in links])   # (S, 1)
    jammed_rates = np.log2(1.0 + p_j * p_c * kappa2 * mean_power_gain * carrier_variance / floors)
    baseline, flagged_rates = np.empty((2, len(links), len(flagged)))
    # a clean mode's SNR depends on its trial only through the clean count: one table and one
    # 0/1 float mask per count (the rates are finite and >= 0, so it zeroes what np.where
    # would). Unlike BLAS, einsum sums a (link, trial) in an order blind to its neighbours.
    # np.bincount finds the counts: numpy 2.4's np.unique takes ~10 ms on its first call.
    # The masks are cast BLOCK_SAMPLES entries at a time, whatever the trial count.
    step = max(1, BLOCK_SAMPLES // max(1, flagged.shape[-1]))
    for count in np.flatnonzero(np.bincount(n_clean)):
        group = np.flatnonzero(n_clean == count)
        # a row with no clean mode keeps SNR 0, so the full total on one mode cannot overflow
        clean_rates = np.log2(1.0 + p_u * kappa2 * (transmit_power / count if count else 0.0)
                              / floors)
        for rows in (group[start:start + step] for start in range(0, len(group), step)):
            mask = flagged[rows].astype(float)
            flagged_rates[:, rows] = np.einsum("tn,sn->st", mask, jammed_rates)
            baseline[:, rows] = np.einsum("tn,sn->st", np.subtract(1.0, mask, out=mask),
                                          clean_rates)
    shape = shape if isinstance(config, LinkConfig) else (len(links),) + shape
    return {PROPOSED: (baseline + flagged_rates).reshape(shape), BASELINE: baseline.reshape(shape)}


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

    Construction, and so every :func:`dataclasses.replace`, sets ring sizes of None to
    ``(config.n_tx,)``, then rejects a sweep that holds a point which cannot run. ``trials``
    must be an integer >= 1 and ``seed`` one >= 0. No axis may be empty or repeat a value.
    Every ring size must be an integer >= 1 and every jammed-mode count one in 0..N for every
    ring size N; the iid model, which jams no chosen modes, takes only n_jammed = 0. Every
    array a point or a (ring size, jammed count) allocates must fit numpy's limit of
    sys.maxsize bytes, which also bounds the trial count, the ring sizes and the SNR count.
    Last, every grid point's link is built by :func:`_point_config`, so a finite SNR, a finite
    transmit total and a noise variance that :class:`LinkConfig` accepts are checked at every
    point; then every point's closed-form magnitudes are bounded (:func:`_check_magnitudes`).
    The error names the first point that fails. The sweep runs the links built here, kept in
    grid order.
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
        # the largest arrays at 16 bytes an entry: the per-symbol variances of the preamble and
        # of the p probe symbols (one batch per point; the probe's per-symbol gains are complex),
        # a sensing block row (N, K), the (N, N) transform W of sense_targeted; at 8 bytes: the
        # (trials, N) draws, a pair's (S, trials) SE arrays. Every other array is one block,
        # sized from BLOCK_SAMPLES and these terms, never from the trials or the symbol count
        i, k, n, l_j, s = (config.preamble_length, config.samples_per_symbol,
                           max(axes.n_elements), max(axes.n_jammed), len(axes.snr_db))
        p = min(options.ber_trials, trials) * l_j * options.ber_symbols
        largest = max(16 * max(i, p, n * k, n * n), 8 * trials * max(n, s))
        if largest > sys.maxsize:
            raise ConfigurationError(
                f"preamble_length {i}, {p} probe symbols, samples_per_symbol {k}, {trials} "
                f"trials, ring size {n} and {s} SNR points size an array of {largest} bytes, "
                f"beyond numpy's limit of {sys.maxsize}")
        if options.jam_model == BROADBAND and any(axes.n_jammed):
            raise ConfigurationError(
                f"the iid model jams no chosen modes: n_jammed must be 0, got {axes.n_jammed}")
        points = list(product(axes.n_elements, axes.n_jammed, axes.snr_db))
        links = []
        for point in points:
            with _at_point(point):
                links.append(_point_config(config, *point))
        for point, link in zip(points, links):
            with _at_point(point):
                _check_magnitudes(*link, options.jam_variance_tx)
        object.__setattr__(self, "_links", tuple(zip(points, links)))   # ((N, l_j, SNR), link)


@contextmanager
def _at_point(point: tuple, error=ConfigurationError):
    """Prefix an ``error`` raised in the block with the grid point; (N, l_j) names a pair."""
    try:
        yield
    except error as exc:
        snr = f", snr={point[2]:g} dB" if len(point) > 2 else ""
        raise error(f"grid point (N={point[0]}, l_j={point[1]}{snr}): {exc}") from exc


def _point_key(n_elements: int, n_jammed: int, snr_db: float) -> tuple[int, int, int]:
    """Substream key of a grid point before its stage: the SNR as IEEE-754 bits, -0.0 as 0.0."""
    return n_elements, n_jammed, int(np.float64(float(snr_db) + 0.0).view(np.uint64))


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


def sense_targeted(rng: np.random.Generator, jam_sets: np.ndarray, n: int, k: int,
                   variance: float) -> np.ndarray:
    """(trials, n) detector energies of CN(0, variance) jamming on the modes ``jam_sets``.

    ``jam_sets`` is a (trials, l_j) integer array: row t lists the positions,
    in canonical mode order (``mode_index_range(n)``), of the modes jammed in
    trial t. Blocks of max(1, ``jamming.BLOCK_SAMPLES`` // (n * K)) trials each draw their
    (block, l_j, K) :func:`complex_gaussian` samples from ``rng`` (the values of one whole
    draw), send them out through the conjugated jammed rows of W and back through those rows
    (:func:`mode_energies`): memory is the (trials, n) result plus one block. A clean mode's
    energy is exactly 0; l_j = 0 draws nothing. Raises ValueError, before any draw, unless
    the ring size ``n`` and ``k`` are integers >= 1, ``jam_sets`` is a 2-D integer array of
    positions in 0..n-1 with no position repeated within a row and the variance
    finite and >= 0, even if nothing is drawn.
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
        w, step = mode_transform(n), max(1, BLOCK_SAMPLES // (n * k))
        for start in range(0, len(jam_sets), step):
            block = slice(start, start + step)
            jammed = jam_sets[block]
            samples = complex_gaussian(rng, jammed.shape + (k,), variance)
            w_h = w[jammed]   # (block, l_j, N), conjugated in place: W^H's jammed columns
            elements = np.conj(w_h, out=w_h).transpose(0, 2, 1) @ samples   # (block, N, K)
            np.put_along_axis(energies[block], jammed, mode_energies(elements, jammed), axis=1)
    return energies


def run_sweep(scenario: Scenario) -> list[SweepResult]:
    """Monte Carlo sweep over the scenario's grid, deterministic in its seed.

    Grid order is n_elements, then n_jammed, then snr_db; each point runs ``scenario.trials``
    independent sense/partition/allocate/decide trials, both schemes on the same realizations.
    Each (N, l_j), whose SNRs the grid keeps together, is one pass: sense its trials once on
    substream (N, l_j, 1); calibrate each SNR point on (key, 0); one
    :func:`average_correct_detection` call on (SNR points, N) :func:`hypothesis_variance` arrays
    gives all their p_c and one :func:`spectral_efficiency` call their (SNR points, trials) SE,
    reduced along trials; then each point's finite-SE check, BER probe on (key, 2) and rows.
    A FloatingPointError names its point, or the (N, l_j) of a shared step.
    """
    config, options, trials, rows = scenario.config, scenario.options, scenario.trials, []
    targeted, variance = options.jam_model == TARGETED, options.jam_variance_tx
    k = config.samples_per_symbol
    # the detector's p_j, p_u depend only on its threshold, K and the jamming variance; iid
    # jamming hits every mode with the carrier's variance, targeted leaves clean modes silent
    p_j, p_u = detection_probabilities(config.energy_threshold_tx, k, variance)
    p_u = 1.0 if targeted else p_u
    with np.errstate(over="raise", invalid="raise"):
        for (n, n_jam), group in groupby(scenario._links, key=lambda link: link[0][:2]):
            points, links = zip(*group)   # the SNR points of one (N, l_j), in grid order
            cfgs = [cfg for cfg, _ in links]
            with _at_point((n, n_jam), FloatingPointError):
                # the channel row does not depend on the noise variance
                kappas = mode_link_gains(cfgs[0], build_channel_matrix(cfgs[0]))
                rng = substream(scenario.seed, n, n_jam, 1)
                if targeted:
                    jam_sets = _draw_jam_sets(rng, trials, n, n_jam)
                    energies = sense_targeted(rng, jam_sets, n, k, variance)
                else:   # the unitary W keeps iid element jamming iid per mode
                    jam_sets = np.empty((trials, 0), dtype=int)   # iid jamming chooses no modes
                    energies = gamma_energies(rng, (trials, n), variance, k)
                flagged = energies >= config.energy_threshold_tx   # (trials, N)
                del energies
            q_th = np.empty((len(points), n))
            for row, (point, cfg) in enumerate(zip(points, cfgs)):
                with _at_point(point, FloatingPointError):
                    rng = substream(scenario.seed, *_point_key(*point), 0)
                    q_th[row] = [calibrate_from_preamble(cfg, kappa, variance, rng)
                                 for kappa in kappas]
            with _at_point((n, n_jam), FloatingPointError):
                # (SNR points, N) variances of the PGA's two levels, the bits 0 and 1
                sigma2_0, sigma2_1 = (np.array([hypothesis_variance(cfg, kappas, gain, variance)
                                                for cfg in cfgs]) for gain in config.pga_gains)
                p_c = average_correct_detection(q_th, k, sigma2_0, sigma2_1, config.pga_priors)
                bits = spectral_efficiency(cfgs, flagged, kappas, links[0][1], variance, p_j,
                                           p_u, p_c)   # the pair's points share one total
            # (SNR points, 2) SE mean and stderr per scheme; ddof 0 gives one trial a stderr of 0
            with np.errstate(invalid="ignore"):   # a mean that is not finite fails its point
                se = {s: np.column_stack([b.mean(axis=1), b.std(axis=1, ddof=int(trials > 1))
                                          / math.sqrt(trials)]) for s, b in bits.items()}
            for row, (point, cfg) in enumerate(zip(points, cfgs)):
                with _at_point(point, FloatingPointError):
                    if not all(math.isfinite(v[row, 0]) for v in se.values()):
                        raise FloatingPointError("non-finite spectrum efficiency")
                    ber = _measure_ber(cfg, kappas, q_th[row], variance, jam_sets,
                                       substream(scenario.seed, *_point_key(*point), 2), options)
                # a targeted pair with no jammed mode has no reflected link to report
                rows += [SweepResult(
                    scheme=s, snr_db=point[2], n_elements=n, n_jammed=n_jam,
                    se_bits=float(se[s][row, 0]), p_j=p_j, p_u=p_u,
                    p_c=float(p_c[row].mean()) if n_jam or not targeted else np.nan,
                    ber=ber if s == PROPOSED else float("nan"), trials=trials,
                    seed=scenario.seed, se_stderr=float(se[s][row, 1])) for s in scenario.schemes]
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
