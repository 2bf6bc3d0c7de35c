"""Reproducible random substreams and jamming sources.

Every draw goes through a :class:`RandomStream` keyed by (seed, stream_id);
identical keys reproduce identical samples bit-exactly, and distinct
stream_ids give statistically independent substreams, so Monte Carlo trials
can run in parallel without shared state.

Two jamming models are provided. Broadband jamming, i.i.d. per element,
stays i.i.d. per mode under the unitary transform, so its sensing energies
are drawn directly as Gamma(K, sigma2/K) (:func:`gamma_energies`). The
targeted model synthesizes mode-domain jamming on a chosen mode set and
multiplexes it onto the elements, making the jammed/clean partition
controllable; it is an implementation construct for experiments that vary
the jammed-mode count.
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
    """Deterministic substream of a global seed.

    An integer ``stream_id`` keys the substream ``(stream_id,)``; a tuple keys
    itself, e.g. ``(point_index, purpose)`` for one stage of one sweep point.
    """

    seed: int
    stream_id: int | tuple[int, ...] = 0

    def generator(self) -> np.random.Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


def complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with per-sample variance."""
    scale = np.sqrt(variance / 2.0)
    return rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)


def gamma_energies(rng: np.random.Generator, shape, variance: float, k: int) -> np.ndarray:
    """K-sample average energies of i.i.d. CN(0, variance) modes: Gamma(K, variance/K)."""
    return rng.standard_gamma(k, shape) * (variance / k)


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
