"""Reproducible random substreams and jamming sources.

Every draw goes through a :func:`substream` generator, numpy's SFC64 seeded by
a ``SeedSequence`` of (seed, key); identical keys reproduce identical samples
bit-exactly, and distinct keys give statistically independent substreams, so
Monte Carlo trials can run in parallel without shared state.

The draws behind both jamming models live here. Broadband jamming, i.i.d.
per element, stays i.i.d. per mode under the unitary transform, so its
sensing energies are drawn directly as Gamma(K, sigma2/K)
(:func:`gamma_energies`). Targeted jamming is mode-domain
:func:`complex_gaussian` samples on a chosen mode set, which
``metrics.sense_targeted`` multiplexes onto the elements and senses.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .config import check_count, check_nonnegative

# Complex samples per block of draws or casts, the package's one block size: 32 trials of
# targeted sensing at N = 16, K = 64 (0.5 MB), 512 link symbols at K = 64, 32768 // N rows of an
# SE mask, 32768 // terms Poisson-sum entries. On the default sweep (2-core AMD EPYC, 1 MB L2 per
# core, one BLAS thread), sensing blocks of 16, 64 and 128 trials took +1.9 %, -0.4 % and -1.5 %
# of the time at 32 (medians of 3 runs, each within +-3 %): flat, so the smaller block is kept.
BLOCK_SAMPLES = 32768


def substream(seed: int, *key: int) -> Generator:
    """Deterministic substream ``key`` of a global seed, e.g. ``(N, l_j, snr_key, stage)``."""
    return Generator(SFC64(SeedSequence(entropy=seed, spawn_key=key)))


def complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with per-sample variance."""
    check_nonnegative("variance", variance)
    samples = np.empty(shape, dtype=complex)
    pairs = samples.reshape(-1).view(float)   # a view, re and im interleaved: one draw fills it
    rng.standard_normal(out=pairs)
    pairs *= np.sqrt(variance / 2.0)
    return samples


def gamma_energies(rng: np.random.Generator, shape, variance: float, k: int) -> np.ndarray:
    """K-sample average energies of i.i.d. CN(0, variance) modes: Gamma(K, variance/K)."""
    check_count("samples per symbol k", k, 1)
    check_nonnegative("variance", variance)
    return rng.standard_gamma(k, shape) * (variance / k)
