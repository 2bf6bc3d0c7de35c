"""Ring geometry and line-of-sight channel gains.

Element-to-element gains use the free-space model
h_mn = beta * lambda * exp(-j*2*pi*d_mn/lambda) / (4*pi*d_mn) with the
pairwise distance d_mn expanded to second order around the boresight axis.
Both rings carry N elements, so the (N, N) matrix is circulant: the vortex
modes diagonalize it, and each mode's gain is one DFT coefficient of its first
row, carrying the Bessel factor J_l(alpha) of the paper sampled at the element
azimuths. The exact-distance channel, the closed-form Bessel gains and the
phase-ramp mode decomposition are test oracles (``tests/oracles.py``).

:func:`mode_link_gains` is the one place that turns the channel into the
composite per-mode gains kappa_l which the reflected link, the per-mode SNR
and the decision probabilities all use.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, LinkConfig


def element_azimuths(count: int) -> np.ndarray:
    """Azimuthal angles 2*pi*(n-1)/count of a uniformly spaced ring, radians."""
    if count < 1:
        raise ConfigurationError(f"element count must be >= 1, got {count}")
    return 2.0 * np.pi * np.arange(count) / count


def build_channel_matrix(config: LinkConfig) -> np.ndarray:
    """The (N, N) complex element-pair gains under the expanded pairwise distance.

    Row 0 follows the distance formula; h[m, n] = h[0, (n - m) mod N] exactly.
    """
    lam = config.wavelength
    amplitude = config.beta * lam / (4.0 * np.pi * config.axial_distance)
    phase = (-2.0 * np.pi * config.diagonal_distance / lam
             + config.bessel_argument * np.cos(element_azimuths(config.n_tx)))
    return _circulant(amplitude * np.exp(1j * phase))


def _circulant(row: np.ndarray) -> np.ndarray:
    """The (N, N) matrix whose row m is ``row`` shifted right by m."""
    return row[(np.arange(len(row)) - np.arange(len(row))[:, None]) % len(row)]


def mode_link_gains(config: LinkConfig, channel: np.ndarray | None = None) -> np.ndarray:
    """Composite through-link gain kappa_l for every mode, canonical order.

    kappa_l is the end-to-end linear coefficient from a unit mode-domain symbol
    to the unnormalized receive-side mode sum, (1/N) * v_l^T H u_l with u_l,
    v_l the phase-ramp vectors. For circulant H it is N * ifft(h[0])[l mod N],
    and |kappa_l| = sqrt(N) * |h_l| with h_l the paper's closed-form per-mode
    gain. ``channel`` is the (N, N) element-gain array, by default
    :func:`build_channel_matrix`; ValueError if it has another shape or departs
    from the circulant expansion of its first row by over 1e-9 of max |h|.
    """
    h = build_channel_matrix(config) if channel is None else np.asarray(channel)
    n = config.n_tx
    if h.shape != (n, n):
        raise ValueError(f"channel shape {h.shape} does not match config ({n}, {n})")
    if np.abs(h - _circulant(h[0])).max() > 1e-9 * np.abs(h).max():
        raise ValueError("channel is not circulant: the vortex modes do not diagonalize it")
    return n * np.fft.ifft(h[0])[np.array(config.mode_indices()) % n]
