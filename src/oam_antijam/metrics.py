"""Per-mode SNR, spectrum efficiency, and Monte Carlo sweeps.

The proposed scheme senses which modes are jammed, splits the total transmit
power over the clean modes, and rides the reflected jamming on the jammed
ones; the baseline is the identical system with the jammed-mode contribution
forced to zero. Sweeps iterate (SNR, jammed-mode count, ring size) grids and
record spectrum efficiency plus the detector and decoder probabilities. A
:class:`Scenario` is the one description of a sweep (link, grid, knobs, trial
count, seed); constructing it checks every grid point, so :func:`run_sweep`
takes it as it is and no point runs of a sweep that cannot finish.

SNR axis semantics: ``snr_db`` fixes the receiver noise variance as
(allocated per-mode transmit power) / SNR. With the default unit-modulus
element channel this coincides with the per-mode received SNR, so sweeps are
independent of the absolute free-space scale. Total transmit power at each
grid point is per-mode power times the number of clean modes, keeping the
per-mode allocation constant across the jammed-count and ring-size axes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .backscatter import (SYMBOL_CHUNK, average_correct_detection, calibrate_from_preamble,
                          hypothesis_variance, receiver_background_variance,
                          simulate_backscatter_bits)
from .channel import build_channel_matrix, mode_link_gains
from .config import ConfigurationError, LinkConfig, check_count
from .jamming import complex_gaussian, gamma_energies, substream
from .sensing import detection_probabilities
from .signals import mode_energies, mode_transform

PROPOSED = "proposed"
BASELINE = "baseline"

TARGETED = "targeted"
BROADBAND = "iid"

DEFAULT_SEED = 1234

# Complex samples per targeted-sensing block: 32 trials at N = 16, K = 64 (0.5 MB).
# On the default sweep (2-core Xeon, 2 MB L2 per core) blocks of 16 and 64 trials
# were ~5 % slower and 128 trials ~27 % slower, as the block outgrows the cache.
SENSE_BLOCK_SAMPLES = 32768


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
    n_elements: tuple[int, ...] | None = None   # None: the scenario link's (n_tx,)


@dataclass(frozen=True)
class SweepOptions:
    """Knobs of the Monte Carlo sweep beyond the physical link parameters."""

    jam_model: str = TARGETED
    mode_jam_variance: float = 1.0   # per-jammed-mode variance of targeted jamming
    ber_trials: int = 25
    ber_symbols: int = 8

    def __post_init__(self) -> None:
        if self.jam_model not in (TARGETED, BROADBAND):
            raise ConfigurationError(f"unknown jamming model {self.jam_model!r}")
        if not 0.0 < self.mode_jam_variance < math.inf:
            raise ConfigurationError(f"mode_jam_variance must be positive and finite, "
                                     f"got {self.mode_jam_variance}")
        for name in ("ber_trials", "ber_symbols"):
            check_count(name, getattr(self, name), 0)


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

    gamma = w * |kappa|^2 * P / (N * (noise + jamming variance)), where kappa
    is the composite through-link mode gain (``link_gains``, canonical mode
    order). A clean mode has w = p_u and P its :func:`allocate_power` share;
    a jammed mode has w = p_j * p_c (``p_c`` scalar or per mode) and P the
    mean reflected jamming power, mean PGA power gain * ``carrier_variance``.
    """
    if np.shape(flagged)[-1:] != (len(link_gains),):   # a 0-d mask has no mode axis
        raise ValueError(f"flag mask of shape {np.shape(flagged)} does not cover "
                         f"the {len(link_gains)} link-gain modes")
    p_c = np.asarray(p_c, dtype=float)
    for name, p in (("p_j", p_j), ("p_u", p_u), ("p_c", p_c)):
        if not np.all((p >= 0.0) & (p <= 1.0)):   # nan fails too
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if not carrier_variance >= 0.0:
        raise ValueError(f"carrier variance must be >= 0, got {carrier_variance}")
    kappa2 = np.abs(link_gains) ** 2
    floor = receiver_background_variance(config)
    gamma_clean = p_u * kappa2 * allocate_power(config, flagged) / floor
    mean_power_gain = sum(p * g * g for g, p in zip(config.pga_gains, config.pga_priors))
    gamma_jam = p_j * p_c * kappa2 * mean_power_gain * carrier_variance / floor
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


def _point_config(config: LinkConfig, n_elements: int, n_jammed: int,
                  snr_db: float) -> LinkConfig:
    """The link of grid point (N, l_j, SNR), as both the sweep and its validation build it.

    With per-mode power the scenario's transmit total over its ring size, the
    point has N elements per ring, receiver noise variance per-mode power /
    SNR, and transmit total per-mode power times max(N - l_j, 1) clean modes.
    Raises :class:`ConfigurationError` for an SNR that is not finite or
    overflows 10**(SNR/10), and for any value :class:`LinkConfig` rejects.
    """
    if not math.isfinite(snr_db):
        raise ConfigurationError(f"snr {snr_db} dB is not a finite number")
    per_mode = config.transmit_power_total / config.n_tx
    try:
        noise = per_mode / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"snr {snr_db} dB out of range: the noise variance it "
                                 f"implies is not a finite number") from exc
    return replace(config, n_tx=n_elements, noise_variance_rx=noise,
                   transmit_power_total=per_mode * max(n_elements - n_jammed, 1))


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
    point's link is built by :func:`_point_config`, the builder the sweep
    runs, so a finite SNR, a noise variance and a transmit total that
    :class:`LinkConfig` accepts are checked at every point; the error names
    the first point that fails.
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
        # the largest complex arrays: per-symbol gains of the preamble and of the p probe
        # symbols (one batch per point), a link chunk, the sensing draw, a sensing block
        # row, the (N, N) mode transform W of sense_targeted; the largest float ones: the
        # (trials, N) draws
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
        for n_el, n_jam, snr_db in product(axes.n_elements, axes.n_jammed, axes.snr_db):
            try:
                _point_config(config, n_el, n_jam, snr_db)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"grid point (N={n_el}, l_j={n_jam}, snr={snr_db:g} dB): {exc}") from exc


def _point_thresholds(cfg: LinkConfig, kappas: np.ndarray, carrier_variance: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode calibrated thresholds q_th and analytic correct-decision probabilities."""
    gains, priors = cfg.pga_gains, cfg.pga_priors
    q_th = np.empty(len(kappas))
    p_c = np.empty(len(kappas))
    for i, kappa in enumerate(kappas):
        q_th[i] = calibrate_from_preamble(cfg, kappa, carrier_variance, rng)
        p_c[i] = average_correct_detection(
            q_th[i], cfg.samples_per_symbol,
            hypothesis_variance(cfg, kappa, gains[0], carrier_variance),
            hypothesis_variance(cfg, kappa, gains[-1], carrier_variance),
            (priors[0], priors[-1]))
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


def sense_targeted(rng: np.random.Generator, jam_sets: np.ndarray, n: int, k: int,
                   variance: float) -> np.ndarray:
    """(trials, n) detector energies of CN(0, variance) jamming on the modes ``jam_sets``.

    ``jam_sets`` is a (trials, l_j) integer array: row t lists the positions,
    in canonical mode order (``mode_index_range(n)``), of the modes jammed in
    trial t. Each jammed mode carries K samples of one (trials, l_j, K)
    :func:`complex_gaussian` draw from ``rng``; every other mode carries none.
    The draw goes through the jammed columns of W^H only and
    :func:`mode_energies`, a block of trials at a time; l_j = 0 draws nothing.
    Raises ValueError, before any draw, unless ``jam_sets`` is a 2-D integer
    array of positions in 0..n-1 with no position repeated within a row.
    """
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
        w_h, step = mode_transform(n).conj().T, max(1, SENSE_BLOCK_SAMPLES // (n * k))
        for start in range(0, len(jam_sets), step):
            rows = slice(start, start + step)
            columns = w_h[:, jam_sets[rows]].transpose(1, 0, 2)   # (block, N, l_j)
            energies[rows] = mode_energies(columns @ samples[rows])
    return energies


def _sweep_point(scenario: Scenario, point_index: int, n_elements: int, n_jammed: int,
                 snr_db: float) -> list[SweepResult]:
    """All Monte Carlo work for one grid point: one row per scheme, on shared trials."""
    options, trials, seed = scenario.options, scenario.trials, scenario.seed
    cfg = _point_config(scenario.config, n_elements, n_jammed, snr_db)
    kappas = mode_link_gains(cfg, build_channel_matrix(cfg))
    iid = options.jam_model == BROADBAND
    carrier_variance = cfg.jam_variance_tx if iid else options.mode_jam_variance
    k_sense = cfg.samples_per_symbol

    # iid jamming hits every mode with the carrier's variance; targeted leaves clean modes silent
    p_j, p_u = detection_probabilities(cfg.energy_threshold_tx, k_sense, carrier_variance)
    p_u = p_u if iid else 1.0

    q_th, p_c_modes = _point_thresholds(cfg, kappas, carrier_variance,
                                        substream(seed, point_index, 0))

    # the unitary W keeps iid element jamming iid per mode, so draw iid energies directly
    rng_trials = substream(seed, point_index, 1)
    n = cfg.n_tx
    jam_sets = np.empty((trials, 0), dtype=int)
    if iid:
        energies = gamma_energies(rng_trials, (trials, n), carrier_variance, k_sense)
    else:
        jam_sets = _draw_jam_sets(rng_trials, trials, n, n_jammed)
        energies = sense_targeted(rng_trials, jam_sets, n, k_sense, carrier_variance)
    flagged = energies >= cfg.energy_threshold_tx   # (trials, N)

    gamma = mode_snr(cfg, flagged, kappas, carrier_variance, p_j, p_u, p_c_modes)
    se_baseline = spectral_efficiency(gamma, ~flagged)
    se = {PROPOSED: se_baseline + spectral_efficiency(gamma, flagged), BASELINE: se_baseline}
    se_mean = {scheme: float(values.mean()) for scheme, values in se.items()}
    if not all(map(math.isfinite, se_mean.values())):
        raise FloatingPointError(f"non-finite spectrum efficiency at "
                                 f"(N={n_elements}, l_j={n_jammed}, snr={snr_db})")

    ber = _measure_ber(cfg, kappas, q_th, carrier_variance, jam_sets,
                       substream(seed, point_index, 2), options)
    p_c = float(p_c_modes.mean()) if n_jammed or iid else np.nan
    return [SweepResult(
        scheme=scheme, snr_db=snr_db, n_elements=n_elements, n_jammed=n_jammed,
        se_bits=se_mean[scheme], p_j=p_j, p_u=p_u, p_c=p_c,
        ber=ber if scheme == PROPOSED else float("nan"), trials=trials, seed=seed,
        se_stderr=float(se[scheme].std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0)
        for scheme in scenario.schemes]


def run_sweep(scenario: Scenario) -> list[SweepResult]:
    """Monte Carlo sweep over the scenario's grid, deterministic in its seed.

    Grid order is n_elements, then n_jammed, then snr_db; each point runs
    ``scenario.trials`` independent sense/partition/allocate/decide trials on
    its own substreams, and both schemes are evaluated on the same realizations.
    An overflow or invalid operation in any point raises FloatingPointError.
    """
    axes = scenario.axes
    grid = product(axes.n_elements, axes.n_jammed, axes.snr_db)
    with np.errstate(over="raise", invalid="raise"):
        return [row for point_index, point in enumerate(grid)
                for row in _sweep_point(scenario, point_index, *point)]


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
