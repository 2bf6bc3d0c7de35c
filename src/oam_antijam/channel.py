"""Ring geometry and line-of-sight channel gains.

Element-to-element gains use the free-space model
h_mn = beta * lambda * exp(-j*2*pi*d_mn/lambda) / (4*pi*d_mn), with either the
exact pairwise distance or its second-order expansion around the boresight
axis. Per-mode gains come from the ring-sampled Bessel factor, which is the
exact eigenvalue structure of the expanded (circulant) matrix and converges to
the continuum Bessel value as the element count grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .config import ConfigurationError, LinkConfig

EXACT = "exact-distance"
APPROXIMATE = "approximate-distance"

_VARIANTS = (EXACT, APPROXIMATE)

BESSEL_MAX_ORDER = 60
BESSEL_MAX_ARGUMENT = 100.0


@dataclass(frozen=True)
class ChannelMatrix:
    """M x N complex element-pair gains plus the distance variant that built it."""

    gains: np.ndarray
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown channel variant {self.variant!r}")
        gains = np.asarray(self.gains, dtype=complex)
        if gains.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {gains.shape}")
        object.__setattr__(self, "gains", gains)

    @property
    def n_rx(self) -> int:
        return self.gains.shape[0]

    @property
    def n_tx(self) -> int:
        return self.gains.shape[1]


def element_azimuths(count: int) -> np.ndarray:
    """Azimuthal angles 2*pi*(n-1)/count of a uniformly spaced ring, radians."""
    if count < 1:
        raise ConfigurationError(f"element count must be >= 1, got {count}")
    return 2.0 * np.pi * np.arange(count) / count


def build_channel_matrix(config: LinkConfig, variant: str = APPROXIMATE) -> ChannelMatrix:
    """All M x N element-pair gains under the chosen distance variant."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown channel variant {variant!r}")
    lam = config.wavelength
    phi = element_azimuths(config.n_tx)
    psi = element_azimuths(config.n_rx)
    cosines = np.cos(phi[None, :] - psi[:, None])  # (M, N)
    if variant == EXACT:
        diag = config.diagonal_distance
        dist = np.sqrt(diag * diag - 2.0 * config.r_tx * config.r_rx * cosines)
        gains = config.beta * lam * np.exp(-2j * np.pi * dist / lam) / (4.0 * np.pi * dist)
    else:
        amplitude = config.beta * lam / (4.0 * np.pi * config.axial_distance)
        phase = -2.0 * np.pi * config.diagonal_distance / lam + config.bessel_argument * cosines
        gains = amplitude * np.exp(1j * phase)
    return ChannelMatrix(gains=gains, variant=variant)


def bessel_j(order: int, argument: float) -> float:
    """Bessel function of the first kind J_order(argument).

    Supported range |order| <= 60, |argument| <= 100; validated against an
    independent power-series oracle in the test suite.
    """
    if abs(int(order)) > BESSEL_MAX_ORDER:
        raise ValueError(f"order {order} outside supported range |l| <= {BESSEL_MAX_ORDER}")
    if abs(argument) > BESSEL_MAX_ARGUMENT:
        raise ValueError(
            f"argument {argument} outside supported range |a| <= {BESSEL_MAX_ARGUMENT}")
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
    full-matrix mode decomposition for every mode. Requires M = N.
    """
    if config.n_rx != config.n_tx:
        raise ValueError(
            f"per-mode gains assume matched rings, got N={config.n_tx}, M={config.n_rx}")
    if l not in config.mode_indices():
        raise ValueError(f"mode {l} outside supported range {config.mode_indices()}")
    lam = config.wavelength
    scale = config.beta * lam * np.sqrt(config.n_tx) / (4.0 * np.pi * config.axial_distance)
    phase = np.exp(-2j * np.pi * config.diagonal_distance / lam)
    inv_jl = np.exp(-1j * np.pi * l / 2.0)  # principal continuation of 1/j^l
    return complex(scale * phase * inv_jl
                   * ring_sampled_bessel(config.n_tx, l, config.bessel_argument))


def mode_link_gains(config: LinkConfig, channel: ChannelMatrix | None = None) -> np.ndarray:
    """Composite through-link gain kappa_l for every mode, canonical order.

    kappa_l is the end-to-end linear coefficient from a unit mode-domain symbol
    to the unnormalized receive-side mode sum: (1/sqrt(M*N)) * v_l^T H u_l with
    u_l, v_l the transmit/receive phase-ramp vectors. For matched rings and the
    expanded matrix, |kappa_l| = sqrt(M) * |mode_channel_gain(l)|.
    """
    if channel is None:
        channel = build_channel_matrix(config, APPROXIMATE)
    h = channel.gains
    m_rx, n_tx = h.shape
    if n_tx != config.n_tx or m_rx != config.n_rx:
        raise ValueError(
            f"channel shape {h.shape} does not match config ({config.n_rx}, {config.n_tx})")
    modes = np.array(config.mode_indices())
    phi = element_azimuths(n_tx)
    psi = element_azimuths(m_rx)
    tx_cols = np.exp(1j * np.outer(phi, modes))    # (N, L)
    rx_rows = np.exp(-1j * np.outer(modes, psi))   # (L, M)
    sandwich = rx_rows @ h @ tx_cols               # (L, L); diagonal holds kappa * sqrt(MN)
    return np.diagonal(sandwich) / np.sqrt(m_rx * n_tx)
