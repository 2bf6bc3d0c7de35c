"""Mode decomposition across ring elements, on plain sample arrays.

Samples are held as (..., N, K) arrays: K complex baseband samples per ring
element, with any leading (trials) axes batched. The one unitary phase-ramp
matrix W = :func:`mode_transform` carries them between domains: ``W @ x``
decomposes element samples into modes, rows in canonical mode order, and
``W.conj().T @ s`` multiplexes mode samples onto the elements. The detector
flags a mode as jammed when its block-average energy, :func:`mode_energies`,
reaches the threshold.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import mode_index_range


@lru_cache(maxsize=1)   # a sensing call asks for one N once per block
def mode_transform(n_elements: int) -> np.ndarray:
    """Unitary element->mode matrix W with rows ordered by canonical mode index.

    W[i, n] = exp(-j*2*pi*n*l_i/N) / sqrt(N). Its conjugate transpose maps
    mode-domain symbols onto elements. Cached for the last N, so read-only.
    """
    modes = np.array(mode_index_range(n_elements))
    n = np.arange(n_elements)
    w = np.exp(-2j * np.pi * np.outer(modes, n) / n_elements) / np.sqrt(n_elements)
    w.flags.writeable = False
    return w


def mode_energies(element_samples: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Block-average energy of every mode, or of the modes ``rows``, under the unitary transform.

    ``element_samples`` holds K samples per element on its last axis, shape
    (..., N, K); leading axes (trials) are batched. Returns shape (..., N),
    rows in canonical mode order: (1/K) * sum_k |(W x)_l[k]|^2. ``rows``, an
    (..., m) integer array of mode positions, decomposes onto those rows of W
    only and returns their (..., m) energies.
    """
    w = mode_transform(element_samples.shape[-2])
    if rows is not None:
        w = w[rows]   # (..., m, N): one row set per batch entry
    return np.mean(np.abs(np.matmul(w, element_samples)) ** 2, axis=-1)
