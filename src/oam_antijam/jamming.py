"""Reproducible jamming, noise and payload sources.

Every draw goes through a :class:`RandomStream` keyed by (seed, stream_id);
identical keys reproduce identical samples bit-exactly, and distinct
stream_ids give statistically independent substreams, so Monte Carlo trials
can run in parallel without shared state.

Two jamming models are provided. The broadband model draws independent
samples per element, which spreads energy uniformly over all modes after
decomposition. The targeted model synthesizes mode-domain jamming on a chosen
mode set and multiplexes it onto the elements, making the jammed/clean
partition controllable; it is an implementation construct for experiments
that vary the jammed-mode count.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, mode_index_range
from .signals import MODE, SampleBlock, multiplex_modes

NOISE_VARIANCE_FLOOR = 1e-30  # watts; keeps the zero-noise limit well-posed


@dataclass(frozen=True)
class RandomStream:
    """Deterministic substream of a global seed."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with per-sample variance."""
    scale = np.sqrt(variance / 2.0)
    return rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)


def draw_jamming_block(stream: RandomStream, n_elements: int, n_samples: int,
                       variance: float) -> SampleBlock:
    """Broadband jamming: i.i.d. complex Gaussian per element and sample."""
    if variance <= 0.0:
        raise ConfigurationError(f"jamming variance must be positive, got {variance}")
    if n_elements < 1 or n_samples < 1:
        raise ConfigurationError(
            f"block shape must be positive, got ({n_elements}, {n_samples})")
    rng = stream.generator()
    samples = complex_gaussian(rng, (n_elements, n_samples), variance)
    return SampleBlock(samples)


def draw_targeted_jamming_block(stream: RandomStream, n_elements: int, n_samples: int,
                                mode_variance: float,
                                jammed_modes: Iterable[int]) -> SampleBlock:
    """Jamming synthesized on a specific mode set, then mapped onto elements.

    Each listed mode carries i.i.d. complex Gaussian samples of the given
    variance; all other modes carry exactly zero energy. Per-element variance
    is len(jammed_modes) * mode_variance / n_elements.
    """
    if mode_variance <= 0.0:
        raise ConfigurationError(f"mode variance must be positive, got {mode_variance}")
    modes = mode_index_range(n_elements)
    targets = sorted(set(jammed_modes))
    unknown = [l for l in targets if l not in modes]
    if unknown:
        raise ConfigurationError(f"modes {unknown} outside supported range {modes}")
    rng = stream.generator()
    mode_samples = np.zeros((n_elements, n_samples), dtype=complex)
    for l in targets:
        mode_samples[modes.index(l)] = complex_gaussian(rng, n_samples, mode_variance)
    block = SampleBlock(mode_samples, MODE)
    return multiplex_modes(block, n_elements)


def draw_noise_block(stream: RandomStream, n_elements: int, n_samples: int,
                     variance: float) -> SampleBlock:
    """Receiver thermal noise; variance is floored at 1e-30 W."""
    if variance < 0.0:
        raise ConfigurationError(f"noise variance must be non-negative, got {variance}")
    rng = stream.generator()
    samples = complex_gaussian(rng, (n_elements, n_samples),
                               max(variance, NOISE_VARIANCE_FLOOR))
    return SampleBlock(samples)


def draw_payload_bits(stream: RandomStream, count: int, p_one: float = 0.5) -> np.ndarray:
    """i.i.d. payload bits; equiprobable unless a prior for '1' is given."""
    if count < 1:
        raise ConfigurationError(f"bit count must be >= 1, got {count}")
    if not 0.0 <= p_one <= 1.0:
        raise ConfigurationError(f"p_one must lie in [0, 1], got {p_one}")
    rng = stream.generator()
    return (rng.random(count) < p_one).astype(np.int8)
