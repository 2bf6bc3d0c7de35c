"""Closed-form detection probabilities of the transmitter's energy detector.

The detector flags a mode as jammed when its block-average energy
``signals.mode_energies`` reaches the threshold E_th. For i.i.d. complex
Gaussian jamming of variance sigma2 per mode, that energy follows
Gamma(K, sigma2/K), which gives the flag/no-flag probabilities here.

K is a sample count, so :func:`gamma_cdf`, the package's one gamma CDF, needs
P(K, x) at integer K only: the chance that a Poisson(x) count reaches K. It sums
the smaller Poisson tail in log space over a window of terms next to K, which
:func:`_regularized_gamma_p` sizes; an array entry equals its scalar call bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import check_count
from .jamming import BLOCK_SAMPLES


@functools.lru_cache(maxsize=8)
def _poisson_window(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Term indices i in [max(k - m, 0), k + m) as floats, and their ln i!."""
    m = math.ceil(9.0 * math.sqrt(k)) + 30
    i = np.arange(max(k - m, 0), k + m, dtype=float)
    log_factorial = np.array([math.lgamma(j + 1.0) for j in i])
    i.flags.writeable = log_factorial.flags.writeable = False   # shared by every call at k
    return i, log_factorial


def _poisson_sum(x: np.ndarray, i: np.ndarray, log_factorial: np.ndarray) -> np.ndarray:
    """Sum over the indices i of the Poisson terms e^-x x^i / i!, one per entry of 1-D x > 0."""
    # the (entries, terms) array, BLOCK_SAMPLES at a time: each entry sums its own row alone
    sums, step = np.empty(len(x)), max(1, BLOCK_SAMPLES // len(i))
    for start in range(0, len(x), step):
        block = x[start:start + step, None]
        sums[start:start + step] = np.exp(i * np.log(block) - block - log_factorial).sum(axis=1)
    return sums


def _regularized_gamma_p(k: int, x) -> np.ndarray:
    """P(k, x) for an integer k >= 1, elementwise on a float array x >= 0 (inf too, not nan).

    Each term is exp(i ln x - x - ln i!): i in [k, k + m) below x = k, and 1 minus the sum
    over i in [k - m, k) at or above it. Terms fall off like exp(-j^2 / 2k) at a distance j
    from k, so m = ceil(9 sqrt(k)) + 30 drops under e^-40 of a tail.
    """
    i, log_factorial = _poisson_window(k)
    split = k - int(i[0])   # the window position of i = k
    p = np.array(x == math.inf, dtype=float)   # P(k, 0) = 0 and P(k, inf) = 1
    lower, upper = (x > 0.0) & (x < k), (x >= k) & (x < math.inf)
    p[lower] = _poisson_sum(x[lower], i[split:], log_factorial[split:])
    p[upper] = 1.0 - _poisson_sum(x[upper], i[:split], log_factorial[:split])
    return p


def gamma_cdf(x, shape: int, scale):
    """P[Gamma(shape, scale) <= x] for an integer shape (a sample count).

    Elementwise on arrays, a float for scalars. A zero scale is a point mass at zero, and
    x = inf gives 1 at every scale.
    """
    x, scale = np.asarray(x, dtype=float), np.asarray(scale, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError(f"gamma_cdf argument must be >= 0, got {x}")
    check_count("gamma_cdf shape", shape, 1)
    if not np.all(scale >= 0.0):
        raise ValueError(f"gamma_cdf scale must be >= 0, got {scale}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # an overflow is P = 1 too, and so is x = inf, where inf / inf would be nan
        ratio = np.where((scale > 0.0) & (x < math.inf), x / scale, math.inf)
    p = _regularized_gamma_p(int(shape), ratio)
    return float(p) if p.ndim == 0 else p


def detection_probabilities(energy_threshold: float, n_samples: int,
                            mode_variance: float) -> tuple[float, float]:
    """Closed-form flag / no-flag probabilities ``(p_j, p_u)`` for one mode.

    The mode energy over n_samples follows Gamma(K, sigma2/K); the flag
    probability p_j is its upper tail beyond the threshold and p_u = 1 - p_j.
    A zero mode variance collapses to never-flagged. :func:`gamma_cdf` raises
    ValueError for a threshold or a variance that is negative or nan.
    """
    below = gamma_cdf(energy_threshold, n_samples, mode_variance / n_samples)
    return 1.0 - below, below
