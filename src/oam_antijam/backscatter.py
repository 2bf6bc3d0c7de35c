"""Reflected-jamming link on the jammed modes.

The transmitter re-modulates the jamming it receives on a jammed mode by
switching a gain amplifier between levels a_0 < a_1 (on-off keying for the
binary case), and the receiver decodes by comparing the block-average energy
of the recovered mode against a threshold calibrated from a known preamble.

Per jammed mode the link is plain values: the composite gain kappa that
:func:`channel.mode_link_gains` returns, the PGA levels ``config.pga_gains``,
the bits sent and one float threshold q_th. Symbols are drawn in the mode
domain, not element by element: the recovered mode is linear in every draw,
so this is exact in distribution for any N x N channel (the element-level
path survives only as a test oracle).

Energy statistics: with every contribution circular complex Gaussian, the
K-sample average energy Q under gain level b satisfies
2*K*Q / sigma2(b) ~ chi-square(2K), with sigma2(b) the per-sample variance of
the recovered mode signal. That gives closed-form decision error rates, and
the preamble threshold below is exactly the equal-likelihood point of the two
Gamma(K, Qhat_b / K) hypotheses. Those error rates use the same integer-shape
gamma CDF as the transmitter's detector (:func:`sensing.gamma_cdf`).
"""

from __future__ import annotations

import numpy as np

from .config import LinkConfig
from .jamming import NOISE_VARIANCE_FLOOR, complex_gaussian
from .sensing import gamma_cdf

SYMBOL_CHUNK = 1024  # symbols synthesised per block of draws


class CalibrationError(RuntimeError):
    """Preamble calibration could not separate the two energy levels."""


def calibrate_threshold(energies, bits, n_samples: int) -> float:
    """Decision threshold q_th from the per-symbol energies of a known preamble.

    ``bits`` is the preamble, each bit 0 or 1 and both values present, with
    one energy per bit. Level energies Qhat_b are the per-class means of the
    energies of the symbols G_b that sent bit b; the threshold is the
    maximum-posterior crossing of the two Gamma(K, Qhat_b/K) energy hypotheses
    with priors p_b = |G_b| / I:

        q_th = (1/K) * (Q0*Q1/(Q1-Q0)) * ln((p0/p1) * (Q1/Q0)^K).
    """
    bits = np.asarray(bits)
    energies = np.asarray(energies, dtype=float)
    if bits.ndim != 1 or np.any((bits != 0) & (bits != 1)):
        raise ValueError(f"preamble bits must be 0 or 1, got {bits}")
    ones = bits == 1
    n1 = int(np.count_nonzero(ones))
    n0 = bits.size - n1
    if not n0 or not n1:
        raise ValueError("preamble must contain both bit values")
    if energies.shape != bits.shape:
        raise ValueError(
            f"need one energy per preamble symbol ({bits.size}), got {energies.shape}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    q0 = float(energies[~ones].sum() / n0)
    q1 = float(energies[ones].sum() / n1)
    if q1 <= q0 or q0 <= 0.0:
        raise CalibrationError(
            f"insufficient level separation: Qhat0={q0:.6g}, Qhat1={q1:.6g}")
    p0 = n0 / bits.size
    p1 = n1 / bits.size
    log_term = np.log(p0 / p1) + n_samples * np.log(q1 / q0)
    return float((q0 * q1 / (q1 - q0)) * log_term / n_samples)


def receiver_background_variance(config: LinkConfig) -> float:
    """Per-sample variance of the recovered mode's noise-plus-jamming floor.

    The unnormalized receive-side mode sum adds N independent element
    contributions, so the floor is N * (noise + jamming variance), with the
    noise floored at ``NOISE_VARIANCE_FLOOR``.
    """
    noise = max(config.noise_variance_rx, NOISE_VARIANCE_FLOOR)
    return config.n_tx * (noise + config.jam_variance_rx)


def hypothesis_variance(config: LinkConfig, link_gain: complex, gain_level: float,
                        carrier_variance: float) -> float:
    """Per-sample variance of the recovered mode signal under one gain level.

    |kappa|^2 * a^2 * sigma_carrier^2 + N*(noise + jamming).
    """
    return (abs(link_gain) ** 2 * gain_level ** 2 * carrier_variance
            + receiver_background_variance(config))


def correct_detection_prob(q_th: float, n_samples: int, sigma2_k: float,
                           true_bit: int) -> float:
    """Probability of deciding the transmitted bit correctly.

    Conditions on the true bit: the energy is Gamma(K, sigma2_k(bit)/K), and
    bit 0 is decided below q_th, with probability :func:`sensing.gamma_cdf`.
    """
    if sigma2_k <= 0.0:
        raise ValueError(f"sigma2_k must be positive, got {sigma2_k}")
    if true_bit not in (0, 1):
        raise ValueError(f"true_bit must be 0 or 1, got {true_bit}")
    below = gamma_cdf(max(q_th, 0.0), n_samples, sigma2_k / n_samples)
    return below if true_bit == 0 else 1.0 - below


def average_correct_detection(q_th: float, n_samples: int, sigma2_k0: float,
                              sigma2_k1: float, priors=(0.5, 0.5)) -> float:
    """Prior-weighted correct-decision probability over both bit values."""
    p0, p1 = priors
    return (p0 * correct_detection_prob(q_th, n_samples, sigma2_k0, 0)
            + p1 * correct_detection_prob(q_th, n_samples, sigma2_k1, 1))


def simulate_backscatter_bits(config: LinkConfig, link_gain: complex, gains, bits,
                              carrier_variance: float,
                              rng: np.random.Generator) -> np.ndarray:
    """Per-symbol energies of many symbols through the reflected link.

    Draws each symbol's recovered mode directly, y[k] = kappa*a_b*c[k] + w[k]:
    kappa is ``link_gain``, a scalar :func:`channel.mode_link_gains` value or
    one per bit, a_b = ``gains[b]`` the bit's gain level, c the K carrier samples received
    on the jammed mode and w the receive-ramp sum of the elements' i.i.d. noise
    and jamming, which is CN(0, :func:`receiver_background_variance`). Per
    chunk of ``SYMBOL_CHUNK`` symbols, ``rng`` draws c, then w. Returns the
    K-sample average energy of every symbol.
    """
    bits = np.asarray(bits)
    if np.any((bits < 0) | (bits >= len(gains)) | (bits % 1 != 0)):
        raise ValueError(f"bits must be integers in 0..{len(gains) - 1}, got {bits}")
    amplitudes = link_gain * np.asarray(gains)[bits.astype(int)]
    background = receiver_background_variance(config)
    energies = np.empty(bits.size, dtype=float)
    for start in range(0, bits.size, SYMBOL_CHUNK):
        stop = min(start + SYMBOL_CHUNK, bits.size)
        shape = (stop - start, config.samples_per_symbol)
        carrier = complex_gaussian(rng, shape, carrier_variance)
        y_mode = amplitudes[start:stop, None] * carrier + complex_gaussian(rng, shape, background)
        energies[start:stop] = np.mean(np.abs(y_mode) ** 2, axis=1)
    return energies


def calibrate_from_preamble(config: LinkConfig, link_gain: complex, gains, bits,
                            carrier_variance: float, rng: np.random.Generator) -> float:
    """Run the known preamble ``bits`` through the link and calibrate q_th."""
    energies = simulate_backscatter_bits(config, link_gain, gains, bits,
                                         carrier_variance, rng)
    return calibrate_threshold(energies, bits, config.samples_per_symbol)
