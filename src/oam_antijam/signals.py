"""Mode multiplexing and decomposition across ring elements.

Blocks of K complex baseband samples are held per element (element domain) or
per mode (mode domain). Multiplexing applies the unitary inverse phase-ramp
transform across elements; decomposition applies the forward transform, either
unitary (1/sqrt(N), used by the transmitter-side detector) or as a plain sum
(used by the receiver).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import mode_index_range

ELEMENT = "element"
MODE = "mode"

UNIT = "unit"                  # 1/sqrt(N)-normalized forward transform
UNNORMALIZED = "unnormalized"  # plain sum across elements


@dataclass(frozen=True)
class SampleBlock:
    """2-D block of complex samples, rows indexed by element or by mode.

    Mode-domain rows follow the canonical ascending mode order
    floor((2-N)/2) .. floor(N/2) for N rows.
    """

    samples: np.ndarray
    domain: str = ELEMENT

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2:
            raise ValueError(f"sample block must be 2-D, got shape {samples.shape}")
        if samples.shape[1] < 1:
            raise ValueError("sample block needs at least one sample per row")
        if self.domain not in (ELEMENT, MODE):
            raise ValueError(f"unknown block domain {self.domain!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]


def mode_transform(n_elements: int) -> np.ndarray:
    """Unitary element->mode matrix W with rows ordered by canonical mode index.

    W[i, n] = exp(-j*2*pi*n*l_i/N) / sqrt(N). Its conjugate transpose maps
    mode-domain symbols onto elements.
    """
    modes = np.array(mode_index_range(n_elements))
    n = np.arange(n_elements)
    return np.exp(-2j * np.pi * np.outer(modes, n) / n_elements) / np.sqrt(n_elements)


def multiplex_modes(per_mode_signals: SampleBlock, n_elements: int) -> SampleBlock:
    """Map a mode-domain block onto ring elements.

    x_n[k] = (1/sqrt(N)) * sum_l s_l[k] * exp(j*2*pi*(n-1)*l/N).
    """
    if per_mode_signals.domain != MODE:
        raise ValueError(f"expected a mode-domain block, got {per_mode_signals.domain!r}")
    if per_mode_signals.n_rows != n_elements:
        raise ValueError(
            f"mode block has {per_mode_signals.n_rows} rows; the full mode range "
            f"for {n_elements} elements needs {n_elements}")
    w = mode_transform(n_elements)
    element_samples = w.conj().T @ per_mode_signals.samples
    return SampleBlock(element_samples, ELEMENT)


def decompose_modes(element_signals: SampleBlock, normalization: str = UNIT) -> SampleBlock:
    """Separate superposed modes by the phase-ramp transform across elements.

    Under ``UNIT``: T_l[k] = (1/sqrt(N)) * sum_n x_n[k] * exp(-j*2*pi*(n-1)*l/N);
    under ``UNNORMALIZED`` the 1/sqrt(N) factor is dropped (plain sum).
    """
    if element_signals.domain != ELEMENT:
        raise ValueError(f"expected an element-domain block, got {element_signals.domain!r}")
    if normalization not in (UNIT, UNNORMALIZED):
        raise ValueError(f"unknown normalization {normalization!r}")
    n = element_signals.n_rows
    w = mode_transform(n)
    if normalization == UNNORMALIZED:
        w = w * np.sqrt(n)
    return SampleBlock(w @ element_signals.samples, MODE)


def mode_energies(element_samples: np.ndarray) -> np.ndarray:
    """Block-average energy of every mode under the unitary transform.

    ``element_samples`` holds K samples per element on its last axis, shape
    (..., N, K); leading axes (trials) are batched. Returns shape (..., N),
    rows in canonical mode order: (1/K) * sum_k |(W x)_l[k]|^2.
    """
    w = mode_transform(element_samples.shape[-2])
    return np.mean(np.abs(w @ element_samples) ** 2, axis=-1)


def block_energies(block: SampleBlock) -> np.ndarray:
    """Block-average power of every row at once."""
    return np.mean(np.abs(block.samples) ** 2, axis=1)
