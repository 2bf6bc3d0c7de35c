"""Link-level configuration for the UCA vortex-mode anti-jamming simulator.

All physical and protocol parameters live in a single immutable
:class:`LinkConfig`. Defaults follow the reference numerical setup:
r = R = 0.75 m, d = 15 m, 5.8 GHz carrier, E_th = 0.5 W, PGA gains
(0.5, 2), 0.1 W receiver jamming, N = 16 elements on each ring, unit-modulus
element gains and 100 W per mode: ``LinkConfig()`` is the CLI's default link.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s

DEFAULT_CARRIER_HZ = 5.8e9

NOISE_VARIANCE_FLOOR = 1e-30  # watts; keeps the zero-noise limit well-posed


class ConfigurationError(ValueError):
    """A configuration value violates a documented constraint."""


def check_count(name: str, value, low: int, high=sys.maxsize) -> None:
    """Reject ``value`` unless it is an integer (numpy's too, not a bool) in low..high.

    Counts size arrays, so by default numpy's limit of sys.maxsize bounds them.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value <= high):
        raise ConfigurationError(f"{name} {value!r} is not an integer in {low}..{high}")


def check_nonnegative(name: str, value) -> None:
    """Reject ``value`` unless it is a real (numpy's too, not a bool), finite and >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 <= value < math.inf):   # nan fails too
        raise ConfigurationError(f"{name} {value!r} is not a finite number >= 0")


def check_positive(name: str, value) -> None:
    """Reject ``value`` unless it is a real (numpy's too, not a bool), finite and > 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value < math.inf):   # nan fails too
        raise ConfigurationError(f"{name} {value!r} is not a finite number > 0")


def wavelength_for_frequency(frequency_hz: float) -> float:
    """Free-space wavelength in metres for a carrier frequency in hertz."""
    check_positive("carrier frequency", frequency_hz)
    return SPEED_OF_LIGHT / frequency_hz


def mode_index_range(n_elements: int) -> list[int]:
    """Canonical mode indices for an n-element ring: floor((2-N)/2) .. floor(N/2).

    Always contains exactly ``n_elements`` consecutive integers.
    """
    check_count("element count", n_elements, 1)   # an integer, so // is the exact floor
    return list(range((2 - n_elements) // 2, n_elements // 2 + 1))


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
        jam_variance_rx: per-element jamming variance seen at the receiver.
        energy_threshold_tx: mode-energy threshold for jamming detection, watts.
        pga_gains: amplification factors a_0 < a_1 of the gain amplifier.
        pga_priors: transmit probabilities of each gain level, summing to 1.
        samples_per_symbol: samples per modulation symbol (K).
        preamble_length: number of calibration symbols (I).
        power_per_mode: transmit power of each clean mode, watts; a sweep point's
            total is this times its clean-mode count.
    """

    n_tx: int = 16
    r_tx: float = 0.75
    r_rx: float = 0.75
    axial_distance: float = 15.0
    wavelength: float = field(default_factory=lambda: wavelength_for_frequency(DEFAULT_CARRIER_HZ))
    beta: float | None = None
    noise_variance_rx: float = 0.1
    jam_variance_rx: float = 0.1
    energy_threshold_tx: float = 0.5
    pga_gains: tuple[float, ...] = (0.5, 2.0)
    pga_priors: tuple[float, ...] = (0.5, 0.5)
    samples_per_symbol: int = 64
    preamble_length: int = 16
    power_per_mode: float = 100.0

    def __post_init__(self) -> None:
        for name, low in (("n_tx", 1), ("samples_per_symbol", 1), ("preamble_length", 2)):
            check_count(name, getattr(self, name), low)
        for name in ("r_tx", "r_rx", "axial_distance", "wavelength", "beta",
                     "noise_variance_rx", "jam_variance_rx",
                     "energy_threshold_tx", "power_per_mode"):
            if name == "beta" and self.beta is None:   # d and wavelength have passed
                object.__setattr__(self, name, 4 * math.pi * self.axial_distance / self.wavelength)
            check_positive(name, getattr(self, name))
        try:
            derived = (self.diagonal_distance, self.bessel_argument, self.element_gain ** 2)
        except OverflowError:
            derived = (math.inf,)
        if not all(math.isfinite(v) for v in derived):
            raise ConfigurationError(
                "radii, distance, wavelength and beta overflow the link geometry or the "
                "element power gain (beta*wavelength / (4*pi*distance))^2")
        if not math.isfinite(self.receiver_floor):
            raise ConfigurationError(
                f"noise_variance_rx {self.noise_variance_rx} and jam_variance_rx "
                f"{self.jam_variance_rx} overflow the receiver floor n_tx * (noise + jamming)")
        gains = tuple(float(g) for g in self.pga_gains)
        priors = tuple(float(p) for p in self.pga_priors)
        for gain in gains:
            check_nonnegative("PGA gain", gain)
        for prior in priors:
            check_positive("PGA prior", prior)
        if len(gains) != 2:
            raise ConfigurationError(
                f"the reflected link is binary: its PGA needs exactly two gain levels "
                f"(bits 0 and 1), got {len(gains)}")
        if len(gains) != len(priors):
            raise ConfigurationError(
                f"PGA gains and priors lengths differ: {len(gains)} vs {len(priors)}")
        if gains[1] <= gains[0]:
            raise ConfigurationError(f"PGA gains must be strictly increasing, got {gains}")
        if abs(sum(priors) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"PGA priors must sum to 1 within 1e-12, got sum {sum(priors)!r}")
        object.__setattr__(self, "pga_gains", gains)
        object.__setattr__(self, "pga_priors", priors)

    # --- derived geometry and link budget -----------------------------------

    @property
    def diagonal_distance(self) -> float:
        """sqrt(d^2 + r^2 + R^2), the common second-order distance term."""
        return math.sqrt(self.axial_distance ** 2 + self.r_tx ** 2 + self.r_rx ** 2)

    @property
    def bessel_argument(self) -> float:
        """2*pi*r*R / (wavelength * sqrt(d^2 + r^2 + R^2))."""
        return 2.0 * math.pi * self.r_tx * self.r_rx / (self.wavelength * self.diagonal_distance)

    @property
    def element_gain(self) -> float:
        """beta*wavelength / (4*pi*d), the modulus of every element-pair gain."""
        return self.beta * self.wavelength / (4.0 * math.pi * self.axial_distance)

    @property
    def receiver_floor(self) -> float:
        """N * (noise + jamming) per recovered-mode sample, noise at least NOISE_VARIANCE_FLOOR."""
        return self.n_tx * (max(self.noise_variance_rx, NOISE_VARIANCE_FLOOR)
                            + self.jam_variance_rx)
