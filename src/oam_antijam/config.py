"""Link-level configuration for the UCA vortex-mode anti-jamming simulator.

All physical and protocol parameters live in a single immutable
:class:`LinkConfig`. Defaults follow the reference numerical setup:
r = R = 0.75 m, d = 15 m, 5.8 GHz carrier, E_th = 0.5 W, PGA gains
(0.5, 2), 0.1 W jamming power, N = 16 elements on each ring, unit-modulus
element gains and 100 W per mode: ``LinkConfig()`` is the CLI's default link.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s

DEFAULT_CARRIER_HZ = 5.8e9

DEFAULT_POWER_PER_MODE = 100.0  # W; the default transmit total is this times n_tx


class ConfigurationError(ValueError):
    """A configuration value violates a documented constraint."""


def check_count(name: str, value, low: int, high=sys.maxsize) -> None:
    """Reject ``value`` unless it is an integer (numpy's too, not a bool) in low..high.

    Counts size arrays, so by default numpy's limit of sys.maxsize bounds them.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value <= high):
        raise ConfigurationError(f"{name} {value!r} is not an integer in {low}..{high}")


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


def pga_levels(gains, priors) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Checked PGA gain levels and their transmit priors, as float tuples.

    Needs exactly two levels (the reflected link is binary), one prior per
    level, finite non-negative gains in strictly increasing order and finite
    positive priors summing to 1 within 1e-12.
    """
    gains = tuple(float(g) for g in gains)
    priors = tuple(float(p) for p in priors)
    if not all(math.isfinite(v) for v in gains + priors):
        raise ConfigurationError(f"PGA gains and priors must be finite, got {gains}, {priors}")
    if len(gains) != 2:
        raise ConfigurationError(
            f"the reflected link is binary: its PGA needs exactly two gain levels "
            f"(bits 0 and 1), got {len(gains)}")
    if len(gains) != len(priors):
        raise ConfigurationError(
            f"PGA gains and priors lengths differ: {len(gains)} vs {len(priors)}")
    if any(g < 0.0 for g in gains):
        raise ConfigurationError(f"PGA gains must be non-negative, got {gains}")
    if any(b <= a for a, b in zip(gains, gains[1:])):
        raise ConfigurationError(f"PGA gains must be strictly increasing, got {gains}")
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
        n_tx: number of elements on each ring (N).
        r_tx: transmit ring radius in metres.
        r_rx: receive ring radius in metres.
        axial_distance: boresight distance between ring centres in metres.
        wavelength: carrier wavelength in metres.
        beta: dimensionless channel constant collecting all fixed gains; the
            default None sets 4*pi*d / wavelength, unit-modulus element gains.
        noise_variance_rx: per-element receiver noise variance in watts.
        jam_variance_tx: per-element jamming variance seen at the transmitter.
        jam_variance_rx: per-element jamming variance seen at the receiver.
        energy_threshold_tx: mode-energy threshold for jamming detection, watts.
        pga_gains: amplification factors a_0 < a_1 of the gain amplifier.
        pga_priors: transmit probabilities of each gain level, summing to 1.
        samples_per_symbol: samples per modulation symbol (K).
        preamble_length: number of calibration symbols (I).
        transmit_power_total: total transmit power shared by clean modes, watts;
            the default None sets DEFAULT_POWER_PER_MODE * n_tx. A
            :func:`dataclasses.replace` keeps both as set, whatever else it changes.
    """

    n_tx: int = 16
    r_tx: float = 0.75
    r_rx: float = 0.75
    axial_distance: float = 15.0
    wavelength: float = field(default_factory=lambda: wavelength_for_frequency(DEFAULT_CARRIER_HZ))
    beta: float | None = None
    noise_variance_rx: float = 0.1
    jam_variance_tx: float = 0.1
    jam_variance_rx: float = 0.1
    energy_threshold_tx: float = 0.5
    pga_gains: tuple[float, ...] = (0.5, 2.0)
    pga_priors: tuple[float, ...] = (0.5, 0.5)
    samples_per_symbol: int = 64
    preamble_length: int = 16
    transmit_power_total: float | None = None

    def __post_init__(self) -> None:
        for name, low in (("n_tx", 1), ("samples_per_symbol", 1), ("preamble_length", 2)):
            check_count(name, getattr(self, name), low)
        for name in ("r_tx", "r_rx", "axial_distance", "wavelength", "beta",
                     "noise_variance_rx", "jam_variance_tx", "jam_variance_rx",
                     "energy_threshold_tx", "transmit_power_total"):
            if name == "beta" and self.beta is None:   # d and wavelength have passed
                object.__setattr__(self, name, 4 * math.pi * self.axial_distance / self.wavelength)
            if name == "transmit_power_total" and self.transmit_power_total is None:
                object.__setattr__(self, name, DEFAULT_POWER_PER_MODE * self.n_tx)
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be strictly positive and finite, got {value}")
        try:
            derived = (self.diagonal_distance, self.bessel_argument,
                       (self.beta * self.wavelength / (4.0 * math.pi * self.axial_distance)) ** 2)
        except OverflowError:
            derived = (math.inf,)
        if not all(math.isfinite(v) for v in derived):
            raise ConfigurationError(
                "radii, distance, wavelength and beta overflow the link geometry or the "
                "element power gain (beta*wavelength / (4*pi*distance))^2")
        gains, priors = pga_levels(self.pga_gains, self.pga_priors)
        object.__setattr__(self, "pga_gains", gains)
        object.__setattr__(self, "pga_priors", priors)

    # --- derived geometry ---------------------------------------------------

    @property
    def diagonal_distance(self) -> float:
        """sqrt(d^2 + r^2 + R^2), the common second-order distance term."""
        return math.sqrt(self.axial_distance ** 2 + self.r_tx ** 2 + self.r_rx ** 2)

    @property
    def bessel_argument(self) -> float:
        """2*pi*r*R / (wavelength * sqrt(d^2 + r^2 + R^2))."""
        return 2.0 * math.pi * self.r_tx * self.r_rx / (self.wavelength * self.diagonal_distance)
