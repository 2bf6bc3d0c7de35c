"""Reference paths the tests compare the package against.

None of these runs in a sweep. The package computes per-mode gains with
``mode_link_gains`` as DFT coefficients of the first row of the circulant
channel, senses targeted jamming with ``metrics.sense_targeted`` and averages
spectrum efficiency over Monte Carlo trials; the functions here reach the same
quantities by other routes: the Bessel function (scipy and an independent
power series), the closed-form per-mode gain of the paper, the full circulant
matrix of a channel row and the phase-ramp mode decomposition of a full
matrix, the exact-distance channel, targeted jamming synthesized on every
element, the reflected link drawn as carrier and background separately, the
per-mode SNR evaluated entry by entry over a (trials, N) mask, and the
closed-form expected spectrum efficiency of a grid point, which
:func:`se_cells` sets beside every Monte Carlo mean of a sweep. It also reads
the benchmark self-test's miniature scenarios (:func:`selftest_scenario`).
"""

from __future__ import annotations

import ast
import struct
from collections.abc import Iterable
from itertools import product
from math import comb, factorial
from pathlib import Path

import numpy as np

from oam_antijam import (BASELINE, PROPOSED, ConfigurationError, LinkConfig, Scenario,
                         detection_probabilities, metrics, mode_index_range, mode_link_gains,
                         run_sweep)
from oam_antijam.backscatter import (average_correct_detection, calibrate_from_preamble,
                                     hypothesis_variance)
from oam_antijam.channel import element_azimuths
from oam_antijam.jamming import complex_gaussian, substream
from oam_antijam.signals import mode_transform

BENCH = Path(__file__).resolve().parent.parent / "bench"
BESSEL_MAX_ORDER = 60
BESSEL_MAX_ARGUMENT = 100.0


def series_bessel(order: int, x: float, terms: int = 90) -> float:
    """Independent power-series oracle for J_order(x), |x| <= ~30."""
    l = abs(order)
    total = 0.0
    half = x / 2.0
    for s in range(terms):
        total += (-1.0) ** s * half ** (l + 2 * s) / (factorial(s) * factorial(l + s))
    if order < 0 and l % 2 == 1:
        total = -total
    return total


def bessel_j(order: int, argument: float) -> float:
    """Bessel function of the first kind J_order(argument), through scipy.

    Supported range |order| <= 60, |argument| <= 100; checked against
    :func:`series_bessel`.
    """
    if abs(int(order)) > BESSEL_MAX_ORDER:
        raise ValueError(f"order {order} outside supported range |l| <= {BESSEL_MAX_ORDER}")
    if abs(argument) > BESSEL_MAX_ARGUMENT:
        raise ValueError(
            f"argument {argument} outside supported range |a| <= {BESSEL_MAX_ARGUMENT}")
    from scipy import special

    return float(special.jv(int(order), argument))


def ring_sampled_bessel(n_elements: int, order: int, argument: float) -> complex:
    """Discrete-ring counterpart of J_order(argument).

    Evaluates j^(-l) * (1/N) * sum_u exp(j*a*cos(2*pi*u/N)) * exp(j*2*pi*l*u/N),
    i.e. the continuum Bessel integral sampled at the N element azimuths. Equals
    the alias sum over J_{pN-l} and tends to J_l(a) as N grows; for finite N it
    is the exact per-mode eigenvalue factor of the expanded channel matrix.
    """
    if n_elements < 1:
        raise ConfigurationError(f"element count must be >= 1, got {n_elements}")
    theta = 2.0 * np.pi * np.arange(n_elements) / n_elements
    samples = np.exp(1j * argument * np.cos(theta)) * np.exp(1j * order * theta)
    return complex((1j) ** (-order) * samples.mean())


def mode_channel_gain(config: LinkConfig, l: int) -> complex:
    """Per-mode channel gain h_l of the expanded line-of-sight link.

    h_l = beta*lambda*sqrt(N)/(4*pi*d*j^l) * exp(-j*2*pi*sqrt(d^2+r^2+R^2)/lambda)
          * Jring_l(alpha),
    with Jring the ring-sampled Bessel factor, so that |h_l| agrees with the
    full-matrix mode decomposition for every mode.
    """
    modes = mode_index_range(config.n_tx)
    if l not in modes:
        raise ValueError(f"mode {l} outside supported range {modes}")
    lam = config.wavelength
    scale = config.beta * lam * np.sqrt(config.n_tx) / (4.0 * np.pi * config.axial_distance)
    phase = np.exp(-2j * np.pi * config.diagonal_distance / lam)
    inv_jl = np.exp(-1j * np.pi * l / 2.0)  # principal continuation of 1/j^l
    return complex(scale * phase * inv_jl
                   * ring_sampled_bessel(config.n_tx, l, config.bessel_argument))


def circulant(row: np.ndarray) -> np.ndarray:
    """The (N, N) matrix whose row m is ``row`` shifted right by m.

    h[m, n] = row[(n - m) mod N]: the full channel of ``build_channel_matrix``'s row.
    """
    n = len(row)
    return np.asarray(row)[(np.arange(n) - np.arange(n)[:, None]) % n]


def row_and_matrix(channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row, full (N, N) matrix) of a channel given as either one."""
    channel = np.asarray(channel)
    return (channel, circulant(channel)) if channel.ndim == 1 else (channel[0], channel)


def exact_channel_matrix(config: LinkConfig) -> np.ndarray:
    """The (N, N) complex element-pair gains under the exact pairwise distance.

    Built entry by entry, so it is circulant only up to rounding.
    """
    lam = config.wavelength
    phi = element_azimuths(config.n_tx)
    cosines = np.cos(phi[None, :] - phi[:, None])  # (N, N)
    diag = config.diagonal_distance
    dist = np.sqrt(diag * diag - 2.0 * config.r_tx * config.r_rx * cosines)
    return config.beta * lam * np.exp(-2j * np.pi * dist / lam) / (4.0 * np.pi * dist)


def sandwich_link_gains(config: LinkConfig, channel: np.ndarray) -> np.ndarray:
    """Per-mode gains kappa_l of any (N, N) channel by the phase-ramp mode decomposition.

    kappa_l = (1/N) * v_l^T H u_l, the diagonal of the (L, N) @ (N, N) @ (N, L)
    product of the receive ramps, the channel and the transmit ramps, in
    canonical mode order. O(N^3); it needs no circulant structure.
    """
    n = config.n_tx
    modes = np.array(mode_index_range(config.n_tx))
    phi = element_azimuths(n)
    tx_cols = np.exp(1j * np.outer(phi, modes))    # (N, L)
    rx_rows = np.exp(-1j * np.outer(modes, phi))   # (L, N)
    return np.diagonal(rx_rows @ channel @ tx_cols) / n


def targeted_elements(samples: np.ndarray, jam_sets: np.ndarray, n: int) -> np.ndarray:
    """(..., N, K) element samples of mode-domain jamming on the positions ``jam_sets``.

    ``samples`` (..., l_j, K) sit on the canonical mode positions ``jam_sets``
    (..., l_j); every other mode carries exactly zero. All N modes go through
    the dense W^H, whatever l_j.
    """
    jam_sets = np.asarray(jam_sets, dtype=np.intp)
    source = np.zeros(jam_sets.shape[:-1] + (n, samples.shape[-1]), dtype=complex)
    np.put_along_axis(source, jam_sets[..., None], samples, axis=-2)
    return mode_transform(n).conj().T @ source


def draw_targeted_jamming_block(rng: np.random.Generator, n_elements: int, n_samples: int,
                                mode_variance: float,
                                jammed_modes: Iterable[int]) -> np.ndarray:
    """(N, K) element samples of jamming synthesized on a specific mode set.

    Each listed mode carries i.i.d. complex Gaussian samples of the given
    variance, drawn mode by mode in ascending mode order; all other modes
    carry exactly zero energy. Per-element variance is
    len(jammed_modes) * mode_variance / n_elements.
    """
    if not 0.0 < mode_variance < np.inf:
        raise ConfigurationError(
            f"mode variance must be positive and finite, got {mode_variance}")
    modes = mode_index_range(n_elements)
    targets = sorted(set(jammed_modes))
    unknown = [l for l in targets if l not in modes]
    if unknown:
        raise ConfigurationError(f"modes {unknown} outside supported range {modes}")
    samples = np.array([complex_gaussian(rng, n_samples, mode_variance) for _ in targets],
                       dtype=complex).reshape(len(targets), n_samples)
    return targeted_elements(samples, [modes.index(l) for l in targets], n_elements)


def two_draw_link_energies(config: LinkConfig, link_gain, gains, bits,
                           carrier_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Per-symbol energies of the reflected link, y = kappa*a_b*c + w drawn term by term.

    ``rng`` draws the (symbols, K) carrier c of variance ``carrier_variance``, then the
    background w of variance ``config.receiver_floor``; the energy is mean|y|^2 over K.
    ``backscatter.simulate_backscatter_bits`` draws y as one CN(0, sigma2_b) instead.
    """
    bits = np.asarray(bits, dtype=int)
    shape = (bits.size, config.samples_per_symbol)
    carrier = complex_gaussian(rng, shape, carrier_variance)
    background = complex_gaussian(rng, shape, config.receiver_floor)
    y = (np.asarray(link_gain) * np.asarray(gains)[bits])[..., None] * carrier + background
    return np.mean(np.abs(y) ** 2, axis=1)


def elementwise_mode_snr(config: LinkConfig, flagged, link_gains: np.ndarray,
                         transmit_power: float, carrier_variance: float, p_j: float,
                         p_u: float, p_c=1.0) -> np.ndarray:
    """The SNR of every (trial, mode) entry that ``metrics.spectral_efficiency`` sums.

    No per-count tables: every entry gets its own clean branch p_u |kappa|^2 P_share / floor, with
    P_share the trial's transmit total over max(n_clean, 1), and the jammed
    branch p_j p_c |kappa|^2 E[a^2] carrier_variance / floor; the mask picks
    one per entry. Arguments are taken as valid.
    """
    flagged = np.asarray(flagged, dtype=bool)
    n_clean = flagged.shape[-1] - flagged.sum(axis=-1, keepdims=True)
    share = np.where(flagged, 0.0, transmit_power / np.maximum(n_clean, 1))
    kappa2 = np.abs(link_gains) ** 2
    floor = config.receiver_floor
    gamma_clean = p_u * kappa2 * share / floor
    mean_power_gain = sum(p * g * g for g, p in zip(config.pga_gains, config.pga_priors))
    gamma_jam = (p_j * np.asarray(p_c, dtype=float) * kappa2 * mean_power_gain
                 * carrier_variance / floor)
    return np.where(flagged, gamma_jam, gamma_clean)


def expected_se(config: LinkConfig, kappas: np.ndarray, transmit_power: float,
                carrier_variance: float, p_j: float, p_u: float, p_c, candidates: int,
                flag_prob: float) -> tuple[float, float]:
    """Closed-form (E[SE_proposed], E[SE_baseline]) of one grid point, bits/s/Hz.

    Of the N modes, ``candidates`` (c) can be flagged, each independently with
    probability ``flag_prob`` (f): the l_j jammed modes at f = p_j under
    targeted jamming, all N modes at f = 1 - p_u under iid jamming. The
    flagged count m is then Binomial(c, f), and given m the flagged set is a
    uniform m-subset of the N modes, so every mode is flagged with probability
    m / N. A clean mode's SNR depends on the flags only through the N - m
    modes that share the transmit total ``transmit_power``, which gives

        E[SE_base] = sum_m B(m; c, f) (1 - m/N) sum_l log2(1 + g_clean,l(N - m))
        E[SE_prop] = E[SE_base] + sum_m B(m; c, f) (m/N) sum_l log2(1 + g_jam,l)

    with g_clean,l(n) = p_u |kappa_l|^2 (transmit_power / n) / floor and
    g_jam,l = p_j p_c,l |kappa_l|^2 E[a^2] carrier_variance / floor, the two
    branches of ``metrics.spectral_efficiency``; floor is the receiver background
    variance, E[a^2] the prior-weighted mean PGA power gain and ``p_c`` the
    per-mode (or scalar) correct-decision probability.
    """
    n = config.n_tx
    m = np.arange(candidates + 1)
    weights = np.array([comb(candidates, k) * flag_prob ** k
                        * (1.0 - flag_prob) ** (candidates - k) for k in range(candidates + 1)])
    kappa2 = np.abs(kappas) ** 2
    floor = config.receiver_floor
    share = transmit_power / np.maximum(n - m, 1)
    clean = np.log2(1.0 + p_u * kappa2 * share[:, None] / floor).sum(axis=1)   # (c + 1,)
    mean_power_gain = sum(p * g * g for g, p in zip(config.pga_gains, config.pga_priors))
    jam = np.log2(1.0 + p_j * np.asarray(p_c) * kappa2 * mean_power_gain
                  * carrier_variance / floor).sum()
    baseline = float(np.sum(weights * (n - m) / n * clean))
    return baseline + float(np.sum(weights * m / n)) * jam, baseline


def point_key(n: int, n_jammed: int, snr_db: float) -> tuple[int, int, int]:
    """The sweep's substream key of grid point (N, l_j, SNR), before the stage.

    The SNR enters as the IEEE-754 bits of float(snr_db) + 0.0 read as an
    unsigned int, so -0.0 keys as 0.0; packed here by struct, not as the package does.
    """
    return n, n_jammed, struct.unpack("<Q", struct.pack("<d", float(snr_db) + 0.0))[0]


def se_cells(scenario: Scenario):
    """(cell, MC mean, stderr, E, E_major, departures) for every cell of a sweep.

    A cell is (scheme, N, l_j, SNR). E is :func:`expected_se` at the point's
    own per-mode p_c: :func:`average_correct_detection` of the thresholds its modes
    calibrate on stream (*point_key(N, l_j, SNR), 0), between the hypothesis variances
    of the two PGA levels. E_major is the same expectation with every
    candidate mode on the likelier side of the detector (flag probability
    rounded to 0 or 1), and departures is the expected count, over all trials
    and candidate modes, of flag decisions on the other side.
    """
    cfg0, axes, options, seed = (scenario.config, scenario.axes, scenario.options,
                                 scenario.seed)
    by_cell = {(r.scheme, r.n_elements, r.n_jammed, r.snr_db): r for r in run_sweep(scenario)}
    iid = options.jam_model == metrics.BROADBAND
    carrier = options.jam_variance_tx
    grid = product(axes.n_elements, axes.n_jammed, axes.snr_db)
    for n, n_jammed, snr_db in grid:
        cfg, power = metrics._point_config(cfg0, n, n_jammed, snr_db)
        kappas = mode_link_gains(cfg)
        p_j, p_u = detection_probabilities(cfg.energy_threshold_tx,
                                           cfg.samples_per_symbol, carrier)
        stream = substream(seed, *point_key(n, n_jammed, snr_db), 0)
        q_th = [calibrate_from_preamble(cfg, kappa, carrier, stream) for kappa in kappas]
        p_c = average_correct_detection(
            np.array(q_th), cfg.samples_per_symbol,
            *(hypothesis_variance(cfg, kappas, gain, carrier) for gain in cfg.pga_gains),
            cfg.pga_priors)
        candidates = n if iid else n_jammed
        expected, major = (expected_se(cfg, kappas, power, carrier, p_j, p_u if iid else 1.0,
                                       p_c, candidates, f) for f in (p_j, round(p_j)))
        departures = scenario.trials * candidates * min(p_j, 1.0 - p_j)
        for scheme, value, value_major in zip((PROPOSED, BASELINE), expected, major):
            cell = by_cell[(scheme, n, n_jammed, snr_db)]
            yield ((scheme, n, n_jammed, snr_db), cell.se_bits, cell.se_stderr, value,
                   value_major, departures)


def selftest_scenario(name):
    """The text of the self-test's miniature scenario ``name``, read without running it."""
    tree = ast.parse((BENCH / "selftest.py").read_text(encoding="utf-8"))
    mini = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "MINI" for target in node.targets))
    return ast.literal_eval(mini)[name]
