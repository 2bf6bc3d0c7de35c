"""Link-level configuration for the UCA vortex-mode anti-jamming simulator.

All physical and protocol parameters live in a single immutable
:class:`LinkConfig`. Defaults follow the reference numerical setup:
r = R = 0.75 m, d = 15 m, 5.8 GHz carrier, E_th = 0.5 W, PGA gains
(0.5, 2), 0.1 W jamming power, M = N = 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

SPEED_OF_LIGHT = 299_792_458.0  # m/s

DEFAULT_CARRIER_HZ = 5.8e9


class ConfigurationError(ValueError):
    """A configuration value violates a documented constraint."""


def wavelength_for_frequency(frequency_hz: float) -> float:
    """Free-space wavelength in metres for a carrier frequency in hertz."""
    if frequency_hz <= 0.0:
        raise ConfigurationError(f"carrier frequency must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


def mode_index_range(n_elements: int) -> list[int]:
    """Canonical mode indices for an n-element ring: floor((2-N)/2) .. floor(N/2).

    Always contains exactly ``n_elements`` consecutive integers.
    """
    if n_elements < 1:
        raise ConfigurationError(f"element count must be >= 1, got {n_elements}")
    lo = math.floor((2 - n_elements) / 2)
    hi = math.floor(n_elements / 2)
    return list(range(lo, hi + 1))


def pga_levels(gains, priors, allow_ties: bool) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Checked PGA gain levels and their transmit priors, as float tuples.

    Needs at least two levels, one prior per level, finite non-negative gains
    in increasing order and finite positive priors summing to 1 within 1e-12.
    Equal adjacent gains pass only under ``allow_ties``.
    """
    gains = tuple(float(g) for g in gains)
    priors = tuple(float(p) for p in priors)
    if not all(math.isfinite(v) for v in gains + priors):
        raise ConfigurationError(f"PGA gains and priors must be finite, got {gains}, {priors}")
    if len(gains) < 2:
        raise ConfigurationError("PGA needs at least two gain levels")
    if len(gains) != len(priors):
        raise ConfigurationError(
            f"PGA gains and priors lengths differ: {len(gains)} vs {len(priors)}")
    if any(g < 0.0 for g in gains):
        raise ConfigurationError(f"PGA gains must be non-negative, got {gains}")
    if any(b < a or (b == a and not allow_ties) for a, b in zip(gains, gains[1:])):
        order = "non-decreasing" if allow_ties else "strictly increasing"
        raise ConfigurationError(f"PGA gains must be {order}, got {gains}")
    if any(p <= 0.0 for p in priors):
        raise ConfigurationError(f"PGA priors must be positive, got {priors}")
    if abs(sum(priors) - 1.0) > 1e-12:
        raise ConfigurationError(
            f"PGA priors must sum to 1 within 1e-12, got sum {sum(priors)!r}")
    return gains, priors


@dataclass(frozen=True)
class LinkConfig:
    """Physical and protocol parameters of one transmitter/receiver ring pair.

    Attributes:
        n_tx: number of transmit ring elements (N).
        n_rx: number of receive ring elements (M).
        r_tx: transmit ring radius in metres.
        r_rx: receive ring radius in metres.
        axial_distance: boresight distance between ring centres in metres.
        wavelength: carrier wavelength in metres.
        beta: dimensionless channel constant collecting all fixed gains.
        noise_variance_rx: per-element receiver noise variance in watts.
        jam_variance_tx: per-element jamming variance seen at the transmitter.
        jam_variance_rx: per-element jamming variance seen at the receiver.
        energy_threshold_tx: mode-energy threshold for jamming detection, watts.
        pga_gains: amplification factors a_0 < a_1 < ... of the gain amplifier.
        pga_priors: transmit probabilities of each gain level, summing to 1.
        samples_per_symbol: samples per modulation symbol (K).
        preamble_length: number of calibration symbols (I).
        transmit_power_total: total transmit power shared by clean modes, watts.
    """

    n_tx: int = 16
    n_rx: int = 16
    r_tx: float = 0.75
    r_rx: float = 0.75
    axial_distance: float = 15.0
    wavelength: float = field(default_factory=lambda: wavelength_for_frequency(DEFAULT_CARRIER_HZ))
    beta: float = 1.0
    noise_variance_rx: float = 0.1
    jam_variance_tx: float = 0.1
    jam_variance_rx: float = 0.1
    energy_threshold_tx: float = 0.5
    pga_gains: tuple[float, ...] = (0.5, 2.0)
    pga_priors: tuple[float, ...] = (0.5, 0.5)
    samples_per_symbol: int = 64
    preamble_length: int = 16
    transmit_power_total: float = 1600.0

    def __post_init__(self) -> None:
        if self.n_tx < 1:
            raise ConfigurationError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.n_rx < 1:
            raise ConfigurationError(f"n_rx must be >= 1, got {self.n_rx}")
        for name in ("r_tx", "r_rx", "axial_distance", "wavelength", "beta",
                     "noise_variance_rx", "jam_variance_tx", "jam_variance_rx",
                     "energy_threshold_tx", "transmit_power_total"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be strictly positive and finite, got {value}")
        if self.samples_per_symbol < 1:
            raise ConfigurationError(
                f"samples_per_symbol must be >= 1, got {self.samples_per_symbol}")
        if self.preamble_length < 2:
            raise ConfigurationError(
                f"preamble_length must be >= 2, got {self.preamble_length}")
        gains, priors = pga_levels(self.pga_gains, self.pga_priors, allow_ties=False)
        object.__setattr__(self, "pga_gains", gains)
        object.__setattr__(self, "pga_priors", priors)

    # --- derived geometry ---------------------------------------------------

    def mode_indices(self) -> list[int]:
        """Mode indices supported by the transmit ring, ascending."""
        return mode_index_range(self.n_tx)

    @property
    def diagonal_distance(self) -> float:
        """sqrt(d^2 + r^2 + R^2), the common second-order distance term."""
        return math.sqrt(self.axial_distance ** 2 + self.r_tx ** 2 + self.r_rx ** 2)

    @property
    def bessel_argument(self) -> float:
        """2*pi*r*R / (wavelength * sqrt(d^2 + r^2 + R^2))."""
        return 2.0 * math.pi * self.r_tx * self.r_rx / (self.wavelength * self.diagonal_distance)

    def with_unit_element_gain(self) -> "LinkConfig":
        """Copy of this config with beta chosen so |h_mn| = 1.

        Puts transmit power, noise and jamming variances on a common watt
        scale; used by the default sweep scenario so SNR sweeps are
        independent of the absolute free-space loss.
        """
        return replace(self, beta=4.0 * math.pi * self.axial_distance / self.wavelength)
