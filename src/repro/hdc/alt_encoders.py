"""Alternative spectrum encoders the paper rejects (Section 3.2).

"Previous research explored various encoding methods, such as
permutation-based [15] and random projection encoding [3].  However,
these methods may not effectively capture key features, such as m/z
values and peak intensities in the spectra."

Both alternatives are implemented here with the same interface as the
ID-Level :class:`~repro.hdc.encoder.SpectrumEncoder` so the claim can
be tested head-to-head (see ``experiments/ablations.py``):

* **random projection** — the dense binned vector is multiplied by a
  fixed random ±1 matrix and binarised.  Intensities enter linearly but
  the binary projection loses fine m/z structure.
* **permutation-based** — each occupied bin contributes a base
  hypervector cyclically shifted (permuted) by its quantised intensity
  level; position is captured by the per-bin base HV, intensity by the
  shift.  Shifts do not preserve level *similarity* (shift-by-1 is as
  dissimilar as shift-by-15), which is what hurts it.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig, SparseVector, quantize_intensities, vectorize
from .encoder import sign_with_tiebreak
from .spaces import HDSpace


class RandomProjectionEncoder:
    """Binary random-projection encoding of binned spectra.

    ``h = sign(P v)`` with ``P`` a fixed ±1 matrix of shape
    ``(dim, num_bins)`` and ``v`` the dense binned intensity vector.
    """

    name = "random-projection"

    def __init__(self, space: HDSpace, binning: BinningConfig) -> None:
        if space.config.num_bins != binning.num_bins:
            raise ValueError("space/binning bin-count mismatch")
        self.space = space
        self.binning = binning
        rng = np.random.default_rng(space.config.seed + 0xA11CE)
        self._projection = (
            rng.integers(0, 2, size=(space.dim, binning.num_bins), dtype=np.int8)
            * 2
            - 1
        ).astype(np.float32)

    def encode_vector(self, vector: SparseVector) -> np.ndarray:
        """Encode one binned sparse vector into a bipolar hypervector."""
        if len(vector) == 0:
            return self.space.tiebreak.copy()
        projected = self._projection[:, vector.indices] @ vector.values.astype(
            np.float32
        )
        return sign_with_tiebreak(projected.astype(np.float64), self.space.tiebreak)

    def encode(self, spectrum: Spectrum) -> np.ndarray:
        """Encode one preprocessed spectrum."""
        return self.encode_vector(vectorize(spectrum, self.binning))

    def encode_batch(
        self, spectra: Sequence[Union[Spectrum, SparseVector]]
    ) -> np.ndarray:
        """Encode many spectra; output rows align with the input order."""
        out = np.empty((len(spectra), self.space.dim), dtype=np.int8)
        for row, item in enumerate(spectra):
            if isinstance(item, SparseVector):
                out[row] = self.encode_vector(item)
            else:
                out[row] = self.encode(item)
        return out


class PermutationEncoder:
    """Permutation-based encoding: intensity as a cyclic shift.

    ``h = sign(Σ_i rho^{level_i}(ID_i))`` where ``rho`` is a cyclic
    shift by one position.  Uses the space's ID codebook for bin
    identity; the intensity level selects the shift amount.
    """

    name = "permutation"

    def __init__(self, space: HDSpace, binning: BinningConfig) -> None:
        if space.config.num_bins != binning.num_bins:
            raise ValueError("space/binning bin-count mismatch")
        self.space = space
        self.binning = binning

    def encode_vector(self, vector: SparseVector) -> np.ndarray:
        """Encode one binned sparse vector into a bipolar hypervector."""
        if len(vector) == 0:
            return self.space.tiebreak.copy()
        levels, _ = quantize_intensities(vector.values, self.space.num_levels)
        accumulator = np.zeros(self.space.dim, dtype=np.int64)
        ids = self.space.id_matrix(vector.indices).astype(np.int64)
        for row, level in zip(ids, levels):
            accumulator += np.roll(row, int(level))
        return sign_with_tiebreak(accumulator, self.space.tiebreak)

    def encode(self, spectrum: Spectrum) -> np.ndarray:
        """Encode one preprocessed spectrum."""
        return self.encode_vector(vectorize(spectrum, self.binning))

    def encode_batch(
        self, spectra: Sequence[Union[Spectrum, SparseVector]]
    ) -> np.ndarray:
        """Encode many spectra; output rows align with the input order."""
        out = np.empty((len(spectra), self.space.dim), dtype=np.int8)
        for row, item in enumerate(spectra):
            if isinstance(item, SparseVector):
                out[row] = self.encode_vector(item)
            else:
                out[row] = self.encode(item)
        return out
