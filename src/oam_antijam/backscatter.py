"""Reflected-jamming link on the jammed modes.

The transmitter re-modulates the jamming it receives on a jammed mode by
switching a gain amplifier between levels a_0 < a_1 (on-off keying for the
binary case), and the receiver decodes by comparing the block-average energy
of the recovered mode against a threshold calibrated from a known preamble.

Per jammed mode the link is plain values: the composite gain kappa that
:func:`channel.mode_link_gains` returns, the PGA levels ``config.pga_gains``,
the bits sent and one float threshold q_th. Symbols are drawn in the mode
domain, not element by element: the recovered mode is linear in every draw,
and the circulant channel maps each mode onto itself with gain kappa. Its
carrier and background terms are independent circular Gaussians, so each
sample is one CN(0, sigma2_b) draw: a unit-variance draw per chunk of
symbols, scaled by each symbol's :func:`hypothesis_variance`. Both steps are
exact in distribution (the element-level path and the carrier-then-background
draw survive only as test oracles).

Energy statistics: with every contribution circular complex Gaussian, the
K-sample average energy Q under gain level b satisfies
2*K*Q / sigma2(b) ~ chi-square(2K), with sigma2(b) the per-sample variance of
the recovered mode signal. That gives closed-form decision error rates, and
the preamble threshold below is exactly the equal-likelihood point of the two
Gamma(K, Qhat_b / K) hypotheses. Where the preamble does not separate the two
levels, the threshold is the mean energy of the whole preamble, so calibration
always returns a threshold measured from the preamble alone. Those error rates
use the detector's gamma CDF (:func:`sensing.gamma_cdf`) and, like it, are
elementwise on arrays: one call gives a whole grid of correct-decision probabilities.
"""

from __future__ import annotations

import numpy as np

from .config import LinkConfig, check_count, check_nonnegative
from .jamming import BLOCK_SAMPLES, complex_gaussian
from .sensing import gamma_cdf


def _integers_below(bits: np.ndarray, stop: int) -> bool:
    """Whether every entry of ``bits`` is an integer in 0..stop-1 (nan fails too).

    Only a float array can hold a fraction, so only a float array is checked for one.
    """
    return not bits.size or (bits.min() >= 0 and bits.max() < stop and (
        not np.issubdtype(bits.dtype, np.floating) or bool(np.all(bits % 1 == 0))))


def calibrate_threshold(energies, bits, n_samples: int) -> float:
    """Decision threshold q_th from the per-symbol energies of a known preamble.

    ``bits`` is the preamble, each bit 0 or 1 and both values present, with
    one energy per bit. Level energies Qhat_b are the per-class means of the
    energies of the symbols G_b that sent bit b; the threshold is the
    maximum-posterior crossing of the two Gamma(K, Qhat_b/K) energy hypotheses
    with priors p_b = |G_b| / I:

        q_th = (1/K) * (Q0*Q1/(Q1-Q0)) * ln((p0/p1) * (Q1/Q0)^K).

    Where the levels do not separate (Qhat1 <= Qhat0 or Qhat0 <= 0) there is no
    crossing, and q_th is the mean energy of the whole preamble.
    """
    bits = np.asarray(bits)
    energies = np.asarray(energies, dtype=float)
    if bits.ndim != 1 or not _integers_below(bits, 2):
        raise ValueError(f"preamble bits must be 0 or 1, got {bits}")
    ones = bits == 1
    n1 = int(np.count_nonzero(ones))
    n0 = bits.size - n1
    if not n0 or not n1:
        raise ValueError("preamble must contain both bit values")
    if energies.shape != bits.shape:
        raise ValueError(
            f"need one energy per preamble symbol ({bits.size}), got {energies.shape}")
    check_count("n_samples", n_samples, 1)
    return _crossing(energies, energies[~ones], energies[ones], n_samples)


def _crossing(energies: np.ndarray, zeros: np.ndarray, ones: np.ndarray, n_samples: int) -> float:
    """:func:`calibrate_threshold` of a checked preamble, its energies split by bit value."""
    q0 = float(zeros.sum() / zeros.size)
    q1 = float(ones.sum() / ones.size)
    if q1 <= q0 or q0 <= 0.0:
        return float(energies.mean())
    p0 = zeros.size / energies.size
    p1 = ones.size / energies.size
    log_term = np.log(p0 / p1) + n_samples * np.log(q1 / q0)
    return float((q0 * q1 / (q1 - q0)) * log_term / n_samples)


def hypothesis_variance(config: LinkConfig, link_gain, gain_level,
                        carrier_variance: float):
    """Per-sample variance of the recovered mode signal under one gain level.

    |kappa|^2 * a^2 * sigma_carrier^2 + N*(noise + jamming). ``link_gain`` and
    ``gain_level`` may be arrays, one entry per symbol, and give an array. |kappa|^2 is
    Re^2 + Im^2 and a^2 is a*a, products and sums only, so an array entry equals the
    scalar result of its own kappa and a bit for bit.
    """
    kappa2 = link_gain.real * link_gain.real + link_gain.imag * link_gain.imag
    return kappa2 * (gain_level * gain_level) * carrier_variance + config.receiver_floor


def average_correct_detection(q_th, n_samples: int, sigma2_k0, sigma2_k1, priors=(0.5, 0.5)):
    """Prior-weighted probability of deciding the sent bit correctly.

    Under bit b the energy is Gamma(K, sigma2_kb/K), and bit 0 is decided below
    q_th: p0 * P[Q < q_th | 0] + p1 * P[Q >= q_th | 1], both tails from
    :func:`sensing.gamma_cdf`. Priors (1, 0) or (0, 1) give one bit's probability.
    Elementwise on arrays (a float for scalars). A negative q_th decides every bit 1;
    a nan q_th or a variance that is not > 0 raises ValueError.
    """
    if not (np.all(sigma2_k0 > 0.0) and np.all(sigma2_k1 > 0.0)):
        raise ValueError(f"hypothesis variances must be positive, got {sigma2_k0}, {sigma2_k1}")
    p0, p1 = priors
    q_th = np.maximum(q_th, 0.0)   # nan stays nan, which gamma_cdf rejects
    below0 = gamma_cdf(q_th, n_samples, sigma2_k0 / n_samples)
    below1 = gamma_cdf(q_th, n_samples, sigma2_k1 / n_samples)
    return p0 * below0 + p1 * (1.0 - below1)


def simulate_backscatter_bits(config: LinkConfig, link_gain: complex, gains, bits,
                              carrier_variance: float,
                              rng: np.random.Generator) -> np.ndarray:
    """Per-symbol energies of many symbols through the reflected link.

    A symbol's recovered mode is y[k] = kappa*a_b*c[k] + w[k]: kappa is ``link_gain``, a
    scalar :func:`channel.mode_link_gains` value or one per bit, a_b = ``gains[b]`` the
    bit's gain level, c the K carrier samples received on the jammed mode and w the
    receive-ramp sum of the elements' i.i.d. noise and jamming. Both are independent
    circular complex Gaussians, so y is CN(0, sigma2_b) with sigma2_b the
    :func:`hypothesis_variance` of the symbol, and its K-sample average energy is
    sigma2_b * mean|z|^2 over K unit-variance samples z. Per chunk of max(1,
    ``jamming.BLOCK_SAMPLES`` // K) symbols (512 at K = 64), ``rng`` makes one (symbols, K)
    unit draw, so a call holds one chunk of draws. Returns every symbol's energy.
    Bad bits or a carrier variance not finite and >= 0 raise ValueError before any draw.
    """
    bits = np.asarray(bits)
    if not _integers_below(bits, len(gains)):
        raise ValueError(f"bits must be integers in 0..{len(gains) - 1}, got {bits}")
    check_nonnegative("carrier variance", carrier_variance)
    k = config.samples_per_symbol
    variances = hypothesis_variance(config, link_gain, np.asarray(gains)[bits.astype(int)],
                                    carrier_variance)
    energies, step = np.empty(bits.size, dtype=float), max(1, BLOCK_SAMPLES // k)
    for start in range(0, bits.size, step):
        unit = complex_gaussian(rng, (min(step, bits.size - start), k), 1.0).view(float)
        energies[start:start + step] = np.einsum("ij,ij->i", unit, unit)   # (re, im) pairs
    energies *= variances / k
    return energies


def calibrate_from_preamble(config: LinkConfig, link_gain: complex,
                            carrier_variance: float, rng: np.random.Generator) -> float:
    """Run the known preamble through the link and calibrate q_th.

    The preamble is the alternating 0101... of ``config.preamble_length`` bits,
    sent at the levels ``config.pga_gains``; the result is bit for bit
    :func:`calibrate_threshold` of its energies, whose bit-0 symbols are the
    even positions and bit-1 symbols the odd ones.
    """
    bits = np.arange(config.preamble_length) % 2
    energies = simulate_backscatter_bits(config, link_gain, config.pga_gains, bits,
                                         carrier_variance, rng)
    return _crossing(energies, energies[0::2], energies[1::2], config.samples_per_symbol)
