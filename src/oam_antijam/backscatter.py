"""Reflected-jamming link on the jammed modes.

The transmitter re-modulates the jamming it receives on a jammed mode by
switching a gain amplifier between levels a_0 < a_1 (on-off keying for the
binary case), and the receiver decodes by comparing the block-average energy
of the recovered mode against a threshold calibrated from a known preamble.

Energy statistics: with every contribution circular complex Gaussian, the
K-sample average energy Q under gain level b satisfies
2*K*Q / sigma2(b) ~ chi-square(2K), with sigma2(b) the per-sample variance of
the recovered mode signal. That gives closed-form decision error rates, and
the preamble threshold below is exactly the equal-likelihood point of the two
Gamma(K, Qhat_b / K) hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import ChannelMatrix
from .config import LinkConfig, mode_index_range
from .jamming import NOISE_VARIANCE_FLOOR, complex_gaussian
from .signals import MODE, SampleBlock


class CalibrationError(RuntimeError):
    """Preamble calibration could not separate the two energy levels."""


@dataclass(frozen=True)
class PgaAlphabet:
    """Gain levels of the amplifier and their transmit priors."""

    gains: tuple[float, ...] = (0.5, 2.0)
    priors: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self) -> None:
        gains = tuple(float(g) for g in self.gains)
        priors = tuple(float(p) for p in self.priors)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "priors", priors)
        if len(gains) < 2:
            raise ValueError("alphabet needs at least two gain levels")
        if len(gains) != len(priors):
            raise ValueError(f"gains/priors length mismatch: {len(gains)} vs {len(priors)}")
        if any(g < 0.0 for g in gains):
            raise ValueError(f"gains must be non-negative, got {gains}")
        # ties allowed so degenerate (equal-gain) experiments stay expressible;
        # calibration rejects them at use time via CalibrationError
        if any(b < a for a, b in zip(gains, gains[1:])):
            raise ValueError(f"gains must be non-decreasing, got {gains}")
        if any(p <= 0.0 for p in priors):
            raise ValueError(f"priors must be positive, got {priors}")
        if abs(sum(priors) - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1, got {sum(priors)!r}")

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
        bits = tuple(int(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("preamble bits must be 0 or 1")
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


def pga_modulate(jam_mode_block: SampleBlock, bits, alphabet: PgaAlphabet,
                 mode: int) -> SampleBlock:
    """Scale one mode's received jamming by the per-symbol gain levels.

    Each bit selects the gain for one K-sample symbol interval, K inferred
    from the block length; other modes pass through untouched.
    """
    if jam_mode_block.domain != MODE:
        raise ValueError(f"expected a mode-domain block, got {jam_mode_block.domain!r}")
    bits = np.asarray(bits, dtype=int)
    if bits.ndim != 1 or bits.size < 1:
        raise ValueError("bits must be a non-empty 1-D sequence")
    if np.any((bits < 0) | (bits >= len(alphabet.gains))):
        raise ValueError(f"bit values must index the {len(alphabet.gains)}-level alphabet")
    n_samples = jam_mode_block.n_samples
    if n_samples % bits.size != 0:
        raise ValueError(
            f"block length {n_samples} is not a whole number of {bits.size} symbols")
    modes = mode_index_range(jam_mode_block.n_rows)
    if mode not in modes:
        raise ValueError(f"mode {mode} outside supported range {modes}")
    per_symbol = n_samples // bits.size
    gains = np.repeat(np.asarray(alphabet.gains)[bits], per_symbol)
    samples = jam_mode_block.samples.copy()
    samples[modes.index(mode)] *= gains
    return SampleBlock(samples, MODE)


def receiver_mode_energy(y_mode_block: SampleBlock, mode: int, symbol_index: int,
                         samples_per_symbol: int) -> float:
    """Average energy of one symbol interval on one recovered mode.

    ``symbol_index`` is 1-based: P_i = (1/K) * sum_k |y_l[(i-1)K + k]|^2.
    """
    if y_mode_block.domain != MODE:
        raise ValueError(f"expected a mode-domain block, got {y_mode_block.domain!r}")
    modes = mode_index_range(y_mode_block.n_rows)
    if mode not in modes:
        raise ValueError(f"mode {mode} outside supported range {modes}")
    if samples_per_symbol < 1:
        raise ValueError(f"samples_per_symbol must be >= 1, got {samples_per_symbol}")
    n_symbols = y_mode_block.n_samples // samples_per_symbol
    if not 1 <= symbol_index <= n_symbols:
        raise IndexError(f"symbol index {symbol_index} outside 1..{n_symbols}")
    row = y_mode_block.samples[modes.index(mode)]
    start = (symbol_index - 1) * samples_per_symbol
    segment = row[start:start + samples_per_symbol]
    return float(np.mean(np.abs(segment) ** 2))


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


def decide_bit(energy: float, threshold: EnergyThreshold) -> int:
    """1 when the symbol energy reaches the threshold (boundary inclusive)."""
    return 1 if energy >= threshold.q_th else 0


def chi_square_cdf(x: float, dof: int) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma function."""
    if x < 0.0:
        raise ValueError(f"chi_square_cdf argument must be >= 0, got {x}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    return float(special.gammainc(dof / 2.0, x / 2.0))


def receiver_background_variance(config: LinkConfig) -> float:
    """Per-sample variance of the recovered mode's noise-plus-jamming floor.

    The unnormalized receive-side mode sum adds M independent element
    contributions, so the floor is M * (noise + jamming variance).
    """
    return config.n_rx * (config.noise_variance_rx + config.jam_variance_rx)


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

    Conditions on the true bit: normalizes the energy statistic to
    2*K*q_th / sigma2_k(bit) and takes the matching chi-square(2K) tail.
    """
    if sigma2_k <= 0.0:
        raise ValueError(f"sigma2_k must be positive, got {sigma2_k}")
    if true_bit not in (0, 1):
        raise ValueError(f"true_bit must be 0 or 1, got {true_bit}")
    scaled = max(q_th, 0.0) * 2.0 * n_samples / sigma2_k
    below = chi_square_cdf(scaled, 2 * n_samples)
    return below if true_bit == 0 else 1.0 - below


def average_correct_detection(q_th: float, n_samples: int, sigma2_k0: float,
                              sigma2_k1: float, priors=(0.5, 0.5)) -> float:
    """Prior-weighted correct-decision probability over both bit values."""
    p0, p1 = priors
    return (p0 * correct_detection_prob(q_th, n_samples, sigma2_k0, 0)
            + p1 * correct_detection_prob(q_th, n_samples, sigma2_k1, 1))


def run_backscatter_symbol(config: LinkConfig, channel: ChannelMatrix, mode: int,
                           bit: int, alphabet: PgaAlphabet,
                           threshold: EnergyThreshold, carrier: np.ndarray,
                           rx_jamming: SampleBlock,
                           noise: SampleBlock) -> tuple[int, float]:
    """One reflected-jamming symbol end to end.

    ``carrier`` holds the K received jamming samples on the jammed mode at the
    transmitter; the symbol is scaled by the bit's gain level, mapped onto the
    transmit elements, passed through the element channel, summed with receiver
    noise and direct-path jamming, recovered by the plain mode sum, and decided
    by energy against the calibrated threshold. Returns (decided bit, energy).
    """
    bits_hat, energies = _run_backscatter_block(
        config, channel, mode, np.array([bit]), alphabet, threshold,
        np.asarray(carrier, dtype=complex)[None, :],
        rx_jamming.samples[None, :, :], noise.samples[None, :, :])
    return int(bits_hat[0]), float(energies[0])


def simulate_backscatter_bits(config: LinkConfig, channel: ChannelMatrix, mode: int,
                              bits, alphabet: PgaAlphabet,
                              threshold: EnergyThreshold, carrier_variance: float,
                              rng: np.random.Generator,
                              chunk_size: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo run of many symbols through the element-level path.

    Draws the per-symbol carrier, receiver noise and direct-path jamming from
    ``rng`` and reuses the single-symbol synthesis, chunked to bound memory.
    Returns (decided bits, per-symbol energies).
    """
    bits = np.asarray(bits, dtype=int)
    k = config.samples_per_symbol
    m = config.n_rx
    decided = np.empty(bits.size, dtype=int)
    energies = np.empty(bits.size, dtype=float)
    noise_var = max(config.noise_variance_rx, NOISE_VARIANCE_FLOOR)
    for start in range(0, bits.size, chunk_size):
        stop = min(start + chunk_size, bits.size)
        b = stop - start
        carrier = complex_gaussian(rng, (b, k), carrier_variance)
        noise = complex_gaussian(rng, (b, m, k), noise_var)
        rx_jam = complex_gaussian(rng, (b, m, k), config.jam_variance_rx)
        d, q = _run_backscatter_block(config, channel, mode, bits[start:stop],
                                      alphabet, threshold, carrier, rx_jam, noise)
        decided[start:stop] = d
        energies[start:stop] = q
    return decided, energies


def _run_backscatter_block(config: LinkConfig, channel: ChannelMatrix, mode: int,
                           bits: np.ndarray, alphabet: PgaAlphabet,
                           threshold: EnergyThreshold, carrier: np.ndarray,
                           rx_jamming: np.ndarray,
                           noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized symbol synthesis shared by the single and batched runners."""
    n, m = config.n_tx, config.n_rx
    if channel.gains.shape != (m, n):
        raise ValueError(
            f"channel shape {channel.gains.shape} does not match config ({m}, {n})")
    modes = mode_index_range(n)
    if mode not in modes:
        raise ValueError(f"mode {mode} outside supported range {modes}")
    k = carrier.shape[1]
    if rx_jamming.shape[1:] != (m, k) or noise.shape[1:] != (m, k):
        raise ValueError("noise and jamming blocks must be (symbols, M, K)")
    gains = np.asarray(alphabet.gains)[bits]               # (B,)
    s = gains[:, None] * carrier                           # (B, K)
    phi = 2.0 * np.pi * np.arange(n) / n
    psi = 2.0 * np.pi * np.arange(m) / m
    tx_ramp = np.exp(1j * phi * mode) / np.sqrt(n)         # (N,)
    x = tx_ramp[None, :, None] * s[:, None, :]             # (B, N, K)
    y = np.einsum("mn,bnk->bmk", channel.gains, x) / np.sqrt(m)
    y = y + noise + rx_jamming
    rx_ramp = np.exp(-1j * psi * mode)                     # (M,)
    y_mode = np.einsum("m,bmk->bk", rx_ramp, y)            # (B, K)
    energies = np.mean(np.abs(y_mode) ** 2, axis=1)        # (B,)
    decided = (energies >= threshold.q_th).astype(int)
    return decided, energies


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
