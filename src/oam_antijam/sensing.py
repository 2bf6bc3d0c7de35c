"""Transmitter-side energy detection of jammed modes.

The received jamming block is decomposed with the unitary transform, each
mode's block-average energy E_l is compared against a threshold, and modes at
or above the threshold are flagged as jammed. For i.i.d. complex Gaussian
jamming of variance sigma2 per element, E_l follows Gamma(K, sigma2/K), which
gives closed-form flag/no-flag probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .config import mode_index_range
from .signals import ELEMENT, SampleBlock, mode_energies


@dataclass(frozen=True)
class ModePartition:
    """Result of one sensing pass: which modes look jammed, and their energies."""

    modes: tuple[int, ...]
    energies: np.ndarray
    jammed: tuple[int, ...]
    unjammed: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        if set(self.jammed) | set(self.unjammed) != set(self.modes):
            raise ValueError("jammed and unjammed sets must cover the full mode range")
        if set(self.jammed) & set(self.unjammed):
            raise ValueError("jammed and unjammed sets must be disjoint")


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


def sense_modes(jam_block: SampleBlock, energy_threshold: float) -> ModePartition:
    """Partition modes by block-average energy against the threshold.

    A mode whose energy equals the threshold exactly counts as jammed.
    """
    if energy_threshold <= 0.0:
        raise ValueError(f"energy threshold must be positive, got {energy_threshold}")
    if jam_block.domain != ELEMENT:
        raise ValueError(f"expected an element-domain block, got {jam_block.domain!r}")
    energies = mode_energies(jam_block.samples)
    modes = mode_index_range(jam_block.n_rows)
    flagged = energies >= energy_threshold
    jammed = tuple(l for l, f in zip(modes, flagged) if f)
    unjammed = tuple(l for l, f in zip(modes, flagged) if not f)
    return ModePartition(tuple(modes), energies, jammed, unjammed)


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
