"""Closed-form detection probabilities of the transmitter's energy detector.

The detector flags a mode as jammed when its block-average energy
``signals.mode_energies`` reaches the threshold E_th. For i.i.d. complex
Gaussian jamming of variance sigma2 per mode, that energy follows
Gamma(K, sigma2/K), which gives the flag/no-flag probabilities here.

K is a sample count, so :func:`gamma_cdf` needs P(K, x) at integer K only and
computes it in pure Python with ``math`` (Numerical Recipes ``gser``/``gcf``).
"""

from __future__ import annotations

import math
import numbers

_EPS = 1e-15  # relative size of the last series term or continued-fraction step


def _regularized_gamma_p(k: int, x: float) -> float:
    """P(k, x) for an integer k >= 1 and x >= 0: power series below x = k + 1."""
    if x == 0.0 or x == math.inf:
        return float(x > 0.0)
    prefactor = math.exp(k * math.log(x) - x - math.lgamma(k))
    if x < k + 1:
        n, term, total = k, 1.0 / k, 1.0 / k
        while term >= total * _EPS:
            n += 1
            term *= x / n
            total += term
        return total * prefactor
    # Lentz's continued fraction for Q = 1 - P: at integer k and x >= k + 1 no
    # denominator falls below 2, and the fraction ends at i = k (numerator 0).
    b = x + 1.0 - k
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, k):
        an = i * (k - i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h *= step
        if abs(step - 1.0) < _EPS:
            break
    return 1.0 - prefactor * h


def gamma_cdf(x: float, shape: int, scale: float) -> float:
    """P[Gamma(shape, scale) <= x] for an integer shape (a sample count)."""
    x, scale = float(x), float(scale)  # numpy scalars would make the loops ~3x slower
    if not x >= 0.0:
        raise ValueError(f"gamma_cdf argument must be >= 0, got {x}")
    if not isinstance(shape, numbers.Integral) or shape < 1:
        raise ValueError(f"gamma_cdf shape must be an integer >= 1, got {shape!r}")
    if not scale >= 0.0:
        raise ValueError(f"gamma_cdf scale must be >= 0, got {scale}")
    if scale == 0.0:
        return 1.0  # degenerate point mass at zero
    return _regularized_gamma_p(int(shape), x / scale)


def detection_probabilities(energy_threshold: float, n_samples: int,
                            mode_variance: float) -> tuple[float, float]:
    """Closed-form flag / no-flag probabilities ``(p_j, p_u)`` for one mode.

    The mode energy over n_samples follows Gamma(K, sigma2/K); the flag
    probability p_j is its upper tail beyond the threshold and p_u = 1 - p_j.
    A zero mode variance collapses to never-flagged.
    """
    if energy_threshold < 0.0:
        raise ValueError(f"energy threshold must be >= 0, got {energy_threshold}")
    if mode_variance < 0.0:
        raise ValueError(f"mode variance must be >= 0, got {mode_variance}")
    below = gamma_cdf(energy_threshold, n_samples, mode_variance / n_samples)
    return 1.0 - below, below
