"""Reproducible random substreams and jamming sources.

Every draw goes through a :func:`substream` generator keyed by (seed, key);
identical keys reproduce identical samples bit-exactly, and distinct keys
give statistically independent substreams, so Monte Carlo trials can run in
parallel without shared state.

The draws behind both jamming models live here. Broadband jamming, i.i.d.
per element, stays i.i.d. per mode under the unitary transform, so its
sensing energies are drawn directly as Gamma(K, sigma2/K)
(:func:`gamma_energies`). Targeted jamming is mode-domain
:func:`complex_gaussian` samples on a chosen mode set, which
``metrics.sense_targeted`` multiplexes onto the elements and senses.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

NOISE_VARIANCE_FLOOR = 1e-30  # watts; keeps the zero-noise limit well-posed


def substream(seed: int, *key: int) -> Generator:
    """Deterministic substream ``key`` of a global seed, e.g. ``(point_index, stage)``."""
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


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
