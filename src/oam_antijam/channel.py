"""Ring geometry and line-of-sight channel gains.

Element-to-element gains use the free-space model
h_mn = beta * lambda * exp(-j*2*pi*d_mn/lambda) / (4*pi*d_mn) with the
pairwise distance d_mn expanded to second order around the boresight axis.
Both rings carry N elements, so the (N, N) matrix is circulant and its first
row defines it: the vortex modes diagonalize it, and each mode's gain is one
DFT coefficient of that row, carrying the Bessel factor J_l(alpha) of the
paper sampled at the element azimuths. The package keeps only the row; the
full matrix, the exact-distance channel, the closed-form Bessel gains and the
phase-ramp mode decomposition are test oracles (``tests/oracles.py``).

:func:`mode_link_gains` is the one place that turns the channel into the
composite per-mode gains kappa_l which the reflected link, the per-mode SNR
and the decision probabilities all use.
"""

from __future__ import annotations

import numpy as np

from .config import LinkConfig, check_count, mode_index_range


def element_azimuths(count: int) -> np.ndarray:
    """Azimuthal angles 2*pi*(n-1)/count of a uniformly spaced ring, radians."""
    check_count("element count", count, 1)
    return 2.0 * np.pi * np.arange(count) / count


def build_channel_matrix(config: LinkConfig) -> np.ndarray:
    """The (N,) first row of the circulant element-pair gains, expanded distance.

    Entry n is the gain h[0, n] from transmit element n to receive element 0;
    the full matrix is h[m, n] = row[(n - m) mod N]. The function keeps its
    name because ``bench/spans.py`` wraps that name.
    """
    phase = (-2.0 * np.pi * config.diagonal_distance / config.wavelength
             + config.bessel_argument * np.cos(element_azimuths(config.n_tx)))
    return config.element_gain * np.exp(1j * phase)


def mode_link_gains(config: LinkConfig, channel: np.ndarray | None = None) -> np.ndarray:
    """Composite through-link gain kappa_l for every mode, canonical order.

    kappa_l is the end-to-end linear coefficient from a unit mode-domain symbol
    to the unnormalized receive-side mode sum, (1/N) * v_l^T H u_l with u_l,
    v_l the phase-ramp vectors. For circulant H with first row h it is
    N * ifft(h)[l mod N], and |kappa_l| = sqrt(N) * |h_l| with h_l the paper's
    closed-form per-mode gain. ``channel`` is the (N,) first row, by default
    :func:`build_channel_matrix`; ValueError if it has another shape.
    """
    row = build_channel_matrix(config) if channel is None else np.asarray(channel)
    n = config.n_tx
    if row.shape != (n,):
        raise ValueError(f"channel row shape {row.shape} does not match config ({n},)")
    return n * np.fft.ifft(row)[np.array(mode_index_range(n)) % n]
