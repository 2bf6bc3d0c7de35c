"""Reproducible random substreams and jamming sources.

Every draw goes through a :class:`RandomStream` keyed by (seed, stream_id);
identical keys reproduce identical samples bit-exactly, and distinct
stream_ids give statistically independent substreams, so Monte Carlo trials
can run in parallel without shared state.

The draws behind both jamming models live here. Broadband jamming, i.i.d.
per element, stays i.i.d. per mode under the unitary transform, so its
sensing energies are drawn directly as Gamma(K, sigma2/K)
(:func:`gamma_energies`). Targeted jamming is mode-domain
:func:`complex_gaussian` samples on a chosen mode set, which
``metrics.sense_targeted`` multiplexes onto the elements and senses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

NOISE_VARIANCE_FLOOR = 1e-30  # watts; keeps the zero-noise limit well-posed


@dataclass(frozen=True)
class RandomStream:
    """Deterministic substream of a global seed.

    An integer ``stream_id`` keys the substream ``(stream_id,)``; a tuple keys
    itself, e.g. ``(point_index, purpose)`` for one stage of one sweep point.
    """

    seed: int
    stream_id: int | tuple[int, ...] = 0

    def generator(self) -> Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        return Generator(PCG64(SeedSequence(entropy=self.seed, spawn_key=key)))


def complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with per-sample variance."""
    scale = np.sqrt(variance / 2.0)
    samples = np.empty(shape, dtype=complex)   # filled in place: no full-size temporaries
    samples.real = rng.normal(0.0, scale, shape)
    samples.imag = rng.normal(0.0, scale, shape)
    return samples


def gamma_energies(rng: np.random.Generator, shape, variance: float, k: int) -> np.ndarray:
    """K-sample average energies of i.i.d. CN(0, variance) modes: Gamma(K, variance/K)."""
    return rng.standard_gamma(k, shape) * (variance / k)
