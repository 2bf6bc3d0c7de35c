"""Reflected-jamming link on the jammed modes.

The transmitter re-modulates the jamming it receives on a jammed mode by
switching a gain amplifier between levels a_0 < a_1 (on-off keying for the
binary case), and the receiver decodes by comparing the block-average energy
of the recovered mode against a threshold calibrated from a known preamble.

Symbols are drawn in the mode domain, not element by element: the recovered
mode is linear in every draw, so this is exact in distribution for any M x N
channel (the element-level path survives only as a test oracle).

Energy statistics: with every contribution circular complex Gaussian, the
K-sample average energy Q under gain level b satisfies
2*K*Q / sigma2(b) ~ chi-square(2K), with sigma2(b) the per-sample variance of
the recovered mode signal. That gives closed-form decision error rates, and
the preamble threshold below is exactly the equal-likelihood point of the two
Gamma(K, Qhat_b / K) hypotheses. Those error rates use the same integer-shape
gamma CDF as the transmitter's detector (:func:`sensing.gamma_cdf`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, element_azimuths
from .config import LinkConfig, mode_index_range, pga_levels
from .jamming import NOISE_VARIANCE_FLOOR, complex_gaussian
from .sensing import gamma_cdf

SYMBOL_CHUNK = 1024  # symbols synthesised per block of draws


class CalibrationError(RuntimeError):
    """Preamble calibration could not separate the two energy levels."""


@dataclass(frozen=True)
class PgaAlphabet:
    """Gain levels of the amplifier and their transmit priors."""

    gains: tuple[float, ...] = (0.5, 2.0)
    priors: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self) -> None:
        # ties allowed so degenerate (equal-gain) experiments stay expressible;
        # calibration rejects them at use time via CalibrationError
        gains, priors = pga_levels(self.gains, self.priors, allow_ties=True)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def from_config(cls, config: LinkConfig) -> "PgaAlphabet":
        return cls(config.pga_gains, config.pga_priors)

    @property
    def mean_power_gain(self) -> float:
        """Prior-weighted mean of the squared gain levels."""
        return float(sum(p * g * g for g, p in zip(self.gains, self.priors)))


@dataclass(frozen=True)
class Preamble:
    """Known bit sequence used to estimate the per-level received energies."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"preamble bits must be 0 or 1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.zeros or not self.ones:
            raise ValueError("preamble must contain both bit values")

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def zeros(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b == 0)

    @property
    def ones(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b == 1)


def alternating_preamble(length: int = 16) -> Preamble:
    """The default 0101... calibration sequence (equal level priors)."""
    if length < 2:
        raise ValueError(f"preamble length must be >= 2, got {length}")
    return Preamble(tuple(i % 2 for i in range(length)))


@dataclass(frozen=True)
class EnergyThreshold:
    """Calibrated decision threshold with the level-energy estimates behind it."""

    q_th: float
    q0_hat: float
    q1_hat: float

    def __post_init__(self) -> None:
        if not self.q0_hat > 0.0:
            raise ValueError(f"q0_hat must be positive, got {self.q0_hat}")
        if not self.q1_hat > self.q0_hat:
            raise ValueError(
                f"q1_hat must exceed q0_hat, got {self.q1_hat} <= {self.q0_hat}")


def calibrate_threshold(preamble_energies, preamble: Preamble, n_samples: int,
                        verbatim_means: bool = False) -> EnergyThreshold:
    """Decision threshold from per-symbol preamble energies.

    Level energies Qhat_b are per-class means of the P_i (the default), or the
    preamble-length-averaged sums when ``verbatim_means`` is set; the threshold
    is the maximum-posterior crossing of the two Gamma(K, Qhat_b/K) energy
    hypotheses with priors p_b = |G_b| / I:

        q_th = (1/K) * (Q0*Q1/(Q1-Q0)) * ln((p0/p1) * (Q1/Q0)^K).
    """
    energies = np.asarray(preamble_energies, dtype=float)
    if energies.ndim != 1 or energies.size != preamble.length:
        raise ValueError(
            f"need one energy per preamble symbol ({preamble.length}), got {energies.shape}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    zeros = list(preamble.zeros)
    ones = list(preamble.ones)
    divisor0, divisor1 = (preamble.length, preamble.length) if verbatim_means \
        else (len(zeros), len(ones))
    q0 = float(energies[zeros].sum() / divisor0)
    q1 = float(energies[ones].sum() / divisor1)
    if q1 <= q0 or q0 <= 0.0:
        raise CalibrationError(
            f"insufficient level separation: Qhat0={q0:.6g}, Qhat1={q1:.6g}")
    p0 = len(zeros) / preamble.length
    p1 = len(ones) / preamble.length
    log_term = np.log(p0 / p1) + n_samples * np.log(q1 / q0)
    q_th = (q0 * q1 / (q1 - q0)) * log_term / n_samples
    return EnergyThreshold(q_th=float(q_th), q0_hat=q0, q1_hat=q1)


def receiver_background_variance(config: LinkConfig) -> float:
    """Per-sample variance of the recovered mode's noise-plus-jamming floor.

    The unnormalized receive-side mode sum adds M independent element
    contributions, so the floor is M * (noise + jamming variance), with the
    noise floored at ``NOISE_VARIANCE_FLOOR``.
    """
    noise = max(config.noise_variance_rx, NOISE_VARIANCE_FLOOR)
    return config.n_rx * (noise + config.jam_variance_rx)


def hypothesis_variance(config: LinkConfig, link_gain: complex, gain_level: float,
                        carrier_variance: float) -> float:
    """Per-sample variance of the recovered mode signal under one gain level.

    |kappa|^2 * a^2 * sigma_carrier^2 + M*(noise + jamming).
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


def simulate_backscatter_bits(config: LinkConfig, channel: ChannelMatrix, mode: int,
                              bits, alphabet: PgaAlphabet,
                              threshold: EnergyThreshold, carrier_variance: float,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo run of many symbols through the reflected link.

    Draws each symbol's recovered mode directly, y[k] = kappa*a_b*c[k] + w[k]:
    kappa is the ``mode_link_gains`` value of ``mode``, a_b the bit's gain
    level, c the K carrier samples received on the jammed mode and w the
    receive-ramp sum of the elements' i.i.d. noise and jamming, which is
    CN(0, :func:`receiver_background_variance`). Per chunk of ``SYMBOL_CHUNK``
    symbols, ``rng`` draws c, then w. Decides by energy against the threshold
    (boundary inclusive). Returns (decided bits, per-symbol energies).
    """
    bits = np.asarray(bits)
    n, m = config.n_tx, config.n_rx
    if channel.gains.shape != (m, n):
        raise ValueError(
            f"channel shape {channel.gains.shape} does not match config ({m}, {n})")
    modes = mode_index_range(n)
    if mode not in modes:
        raise ValueError(f"mode {mode} outside supported range {modes}")
    if np.any((bits < 0) | (bits >= len(alphabet.gains)) | (bits % 1 != 0)):
        raise ValueError(f"bits must be integers in 0..{len(alphabet.gains) - 1}, got {bits}")
    kappa = (np.exp(-1j * mode * element_azimuths(m)) @ channel.gains
             @ np.exp(1j * mode * element_azimuths(n))) / np.sqrt(m * n)
    amplitudes = kappa * np.asarray(alphabet.gains)[bits.astype(int)]
    background = receiver_background_variance(config)
    energies = np.empty(bits.size, dtype=float)
    for start in range(0, bits.size, SYMBOL_CHUNK):
        stop = min(start + SYMBOL_CHUNK, bits.size)
        shape = (stop - start, config.samples_per_symbol)
        carrier = complex_gaussian(rng, shape, carrier_variance)
        y_mode = amplitudes[start:stop, None] * carrier + complex_gaussian(rng, shape, background)
        energies[start:stop] = np.mean(np.abs(y_mode) ** 2, axis=1)
    return (energies >= threshold.q_th).astype(int), energies


def calibrate_from_preamble(config: LinkConfig, channel: ChannelMatrix, mode: int,
                            preamble: Preamble, alphabet: PgaAlphabet,
                            carrier_variance: float, rng: np.random.Generator,
                            verbatim_means: bool = False) -> EnergyThreshold:
    """Run the known preamble through the link and calibrate the threshold."""
    placeholder = EnergyThreshold(q_th=0.0, q0_hat=1.0, q1_hat=2.0)  # decisions unused
    _, energies = simulate_backscatter_bits(
        config, channel, mode, np.array(preamble.bits), alphabet, placeholder,
        carrier_variance, rng)
    return calibrate_threshold(energies, preamble, config.samples_per_symbol,
                               verbatim_means=verbatim_means)
