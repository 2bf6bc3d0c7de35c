"""Closed-form detection probabilities of the transmitter's energy detector.

The detector flags a mode as jammed when its block-average energy
``signals.mode_energies`` reaches the threshold E_th. For i.i.d. complex
Gaussian jamming of variance sigma2 per mode, that energy follows
Gamma(K, sigma2/K), which gives the flag/no-flag probabilities here.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import special


@dataclass(frozen=True)
class DetectionStats:
    """Flag / no-flag probabilities of the energy detector for one mode."""

    p_jammed: float
    p_unjammed: float

    def __post_init__(self) -> None:
        for name in ("p_jammed", "p_unjammed"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if abs(self.p_jammed + self.p_unjammed - 1.0) > 1e-12:
            raise ValueError("analytic probabilities must sum to 1")


def gamma_cdf(x: float, shape: int, scale: float) -> float:
    """P[Gamma(shape, scale) <= x] via the regularized lower incomplete gamma."""
    if x < 0.0:
        raise ValueError(f"gamma_cdf argument must be >= 0, got {x}")
    if shape < 1:
        raise ValueError(f"gamma_cdf shape must be >= 1, got {shape}")
    if scale < 0.0:
        raise ValueError(f"gamma_cdf scale must be >= 0, got {scale}")
    if scale == 0.0:
        return 1.0 if x >= 0.0 else 0.0  # degenerate point mass at zero
    return float(special.gammainc(shape, x / scale))


def detection_probabilities(energy_threshold: float, n_samples: int,
                            mode_variance: float) -> DetectionStats:
    """Closed-form flag / no-flag probabilities for one mode.

    The mode energy over n_samples follows Gamma(K, sigma2/K); the flag
    probability is its upper tail beyond the threshold. A zero mode variance
    collapses to never-flagged.
    """
    if energy_threshold < 0.0:
        raise ValueError(f"energy threshold must be >= 0, got {energy_threshold}")
    if mode_variance < 0.0:
        raise ValueError(f"mode variance must be >= 0, got {mode_variance}")
    below = gamma_cdf(energy_threshold, n_samples, mode_variance / n_samples)
    return DetectionStats(p_jammed=1.0 - below, p_unjammed=below)
