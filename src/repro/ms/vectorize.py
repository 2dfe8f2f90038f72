"""Binned spectrum vectors (paper Section 3.1, last paragraph).

"Spectra are transformed into vectors by categorizing mass-to-charge
(m/z) ratios into bins. The resulting vectors contain floating-point
values reflecting peak intensities. In cases where multiple peaks fall
within a bin, their intensities are summed."

The sparse representation (bin indices + values) is what the HD encoder
consumes — each occupied bin becomes one (ID, level) pair in Eq. 1 — and
what the ANN-SoLo-style baseline scores with its shifted dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..constants import DEFAULT_BIN_WIDTH, DEFAULT_MAX_MZ, DEFAULT_MIN_MZ
from .spectrum import Spectrum


@dataclass(frozen=True)
class BinningConfig:
    """m/z binning parameters.

    ``bin_width`` of ~1.0005 Da gives nominal-mass bins; smaller widths
    raise specificity at the cost of more bins (and a larger ID-hyper-
    vector codebook).
    """

    min_mz: float = DEFAULT_MIN_MZ
    max_mz: float = DEFAULT_MAX_MZ
    bin_width: float = DEFAULT_BIN_WIDTH

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        if self.min_mz >= self.max_mz:
            raise ValueError("min_mz must be < max_mz")

    @property
    def num_bins(self) -> int:
        """Total number of m/z bins."""
        return int(np.ceil((self.max_mz - self.min_mz) / self.bin_width))

    def bin_index(self, mz: np.ndarray) -> np.ndarray:
        """Map m/z values to bin indices (no range clipping)."""
        return np.floor(
            (np.asarray(mz, dtype=np.float64) - self.min_mz) / self.bin_width
        ).astype(np.int64)


@dataclass(frozen=True)
class SparseVector:
    """A binned spectrum: sorted unique bin ``indices`` with ``values``."""

    indices: np.ndarray
    values: np.ndarray
    num_bins: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have the same length")

    def __len__(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 vector of length ``num_bins``."""
        dense = np.zeros(self.num_bins, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    @property
    def norm(self) -> float:
        """Euclidean norm of the vector."""
        return float(np.linalg.norm(self.values))


def vectorize(spectrum: Spectrum, config: BinningConfig) -> SparseVector:
    """Bin a (preprocessed) spectrum into a sparse vector.

    Peaks outside ``[min_mz, max_mz)`` are discarded; intensities of
    peaks sharing a bin are summed, exactly as the paper specifies.  A
    block of one for :func:`vectorize_many`.
    """
    return vectorize_many([spectrum], config)[0]


def vectorize_many(
    spectra: Sequence[Spectrum], config: BinningConfig
) -> List[SparseVector]:
    """:func:`vectorize` over many spectra in one pass over their peaks.

    Peaks are keyed by (spectrum, bin), and each key's intensities are
    summed by ``np.add.at`` in peak order.  A spectrum's peaks ascend
    in m/z (a :class:`Spectrum` invariant) and the bin index is
    monotone in m/z, so the keys already ascend: equal keys are runs,
    and no sort is needed to find them.
    """
    if not spectra:
        return []
    sizes = [len(spectrum.mz) for spectrum in spectra]
    mz = np.concatenate([spectrum.mz for spectrum in spectra])
    owners = np.repeat(np.arange(len(spectra), dtype=np.int64), sizes)
    intensities = np.concatenate([spectrum.intensity for spectrum in spectra])
    mask = (mz >= config.min_mz) & (mz < config.max_mz)
    # One key per (spectrum, bin); the stride leaves room for a bin
    # that floating point rounds up to num_bins.
    stride = config.num_bins + 1
    keys = owners[mask] * stride + config.bin_index(mz[mask])
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    summed = np.zeros(len(keys), dtype=np.float64)
    np.add.at(summed, np.cumsum(first) - 1, intensities[mask].astype(np.float64))
    bins = keys % stride
    edges = [0, *keys.searchsorted(np.arange(1, len(spectra)) * stride).tolist(), len(keys)]
    return [
        SparseVector(bins[low:high], summed[low:high], config.num_bins)
        for low, high in zip(edges[:-1], edges[1:])
    ]


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity between two sparse vectors (0.0 if either is empty)."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    shared_a = np.isin(a.indices, b.indices, assume_unique=True)
    if not shared_a.any():
        return 0.0
    shared_b = np.isin(b.indices, a.indices, assume_unique=True)
    dot = float(np.dot(a.values[shared_a], b.values[shared_b]))
    denom = a.norm * b.norm
    return dot / denom if denom else 0.0


def quantize_intensities(
    values: np.ndarray, num_levels: int
) -> Tuple[np.ndarray, float]:
    """Quantise intensities to ``num_levels`` levels (paper Section 3.2).

    Values are scaled relative to the maximum and mapped to integer
    levels ``0 .. num_levels-1``.  Returns the level array and the scale
    (max value) used, so callers can invert the mapping approximately.
    """
    if num_levels < 2:
        raise ValueError(f"num_levels must be >= 2, got {num_levels}")
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.empty(0, dtype=np.int64), 0.0
    scale = float(values.max())
    if scale <= 0:
        return np.zeros(len(values), dtype=np.int64), scale
    levels = np.floor(values / scale * num_levels).astype(np.int64)
    return np.minimum(levels, num_levels - 1), scale
