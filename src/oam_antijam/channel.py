"""Ring geometry and line-of-sight channel gains.

Element-to-element gains use the free-space model
h_mn = beta * lambda * exp(-j*2*pi*d_mn/lambda) / (4*pi*d_mn) with the
pairwise distance d_mn expanded to second order around the boresight axis, so
the matrix is circulant for matched rings. Its per-mode eigenvalues carry the
Bessel factor J_l(alpha) of the paper, sampled at the element azimuths; the
sampled factor converges to the continuum Bessel value as the element count
grows. The exact-distance channel and the closed-form Bessel gains are test
oracles (``tests/oracles.py``), not part of the package.

The channel is a plain (M, N) complex array, and :func:`mode_link_gains` is the
one place that turns it into the composite per-mode gains kappa_l which the
reflected link, the per-mode SNR and the decision probabilities all use.
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
    """The (M, N) complex element-pair gains under the expanded pairwise distance."""
    lam = config.wavelength
    phi = element_azimuths(config.n_tx)
    psi = element_azimuths(config.n_rx)
    cosines = np.cos(phi[None, :] - psi[:, None])  # (M, N)
    amplitude = config.beta * lam / (4.0 * np.pi * config.axial_distance)
    phase = -2.0 * np.pi * config.diagonal_distance / lam + config.bessel_argument * cosines
    return amplitude * np.exp(1j * phase)


def mode_link_gains(config: LinkConfig, channel: np.ndarray | None = None) -> np.ndarray:
    """Composite through-link gain kappa_l for every mode, canonical order.

    kappa_l is the end-to-end linear coefficient from a unit mode-domain symbol
    to the unnormalized receive-side mode sum: (1/sqrt(M*N)) * v_l^T H u_l with
    u_l, v_l the transmit/receive phase-ramp vectors. For matched rings and the
    expanded matrix, |kappa_l| = sqrt(M) * |h_l|, with h_l the closed-form
    per-mode gain beta*lambda*sqrt(N)/(4*pi*d) times the ring-sampled Bessel
    factor. ``channel`` is the (M, N) element-gain array, by default
    :func:`build_channel_matrix`.
    """
    h = build_channel_matrix(config) if channel is None else channel
    m_rx, n_tx = config.n_rx, config.n_tx
    if np.shape(h) != (m_rx, n_tx):
        raise ValueError(f"channel shape {np.shape(h)} does not match config ({m_rx}, {n_tx})")
    modes = np.array(config.mode_indices())
    phi = element_azimuths(n_tx)
    psi = element_azimuths(m_rx)
    tx_cols = np.exp(1j * np.outer(phi, modes))    # (N, L)
    rx_rows = np.exp(-1j * np.outer(modes, psi))   # (L, M)
    sandwich = rx_rows @ h @ tx_cols               # (L, L); diagonal holds kappa * sqrt(MN)
    return np.diagonal(sandwich) / np.sqrt(m_rx * n_tx)
