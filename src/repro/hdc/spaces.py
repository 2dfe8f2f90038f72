"""HDSpace: the seeded universe of ID and level hypervectors.

An :class:`HDSpace` owns every random codebook the encoder needs:

* one *ID* hypervector per m/z bin (paper Section 3.2), at 1-, 2- or
  3-bit precision (Section 4.2.2's multi-bit scheme: entries drawn from
  a sign-symmetric set excluding zero, e.g. {-4..-1, 1..4} at 3 bits);
* ``Q`` correlated *level* hypervectors for quantised intensities,
  either the classic flip construction or the hardware-friendly chunked
  one (Section 4.2.1);
* a fixed tiebreak vector so the ``sign`` in Eq. 1 is deterministic.

The ID codebook is one contiguous, read-only ``(num_bins, dim)`` int8
*bank* (:attr:`HDSpace.id_bank`) drawn from a single generator seeded
with the space's ID seed: random bytes are written into the bank a
fixed chunk of rows at a time and mapped in place onto the ID alphabet.
Every encoder gathers its rows from the bank.  It is drawn on first
access, so a process that only scores packed rows (a worker behind a
coordinator) never holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .levels import ChunkedLevels, chunked_levels, flip_levels

#: Allowed ID precisions and the magnitude range they imply.
_ID_MAGNITUDES = {1: 1, 2: 2, 3: 4}

#: Random bytes drawn per chunk of ID-bank rows (~512 KiB), so drawing
#: the bank never holds more than about this much beside the bank.
_BANK_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class HDSpaceConfig:
    """Configuration of a hyperdimensional space.

    ``dim`` is the hypervector dimension D (paper default 8192);
    ``num_bins`` the m/z codebook size; ``num_levels`` the intensity
    quantisation Q (paper: 16-32); ``id_precision_bits`` in {1, 2, 3}
    (Section 4.2.2); ``chunked`` selects the chunked level scheme with
    ``num_chunks`` chunks (default ``4 * num_levels``).
    """

    dim: int = 8192
    num_bins: int = 1400
    num_levels: int = 32
    id_precision_bits: int = 3
    chunked: bool = True
    num_chunks: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 4:
            raise ValueError(f"dim must be >= 4, got {self.dim}")
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if self.id_precision_bits not in _ID_MAGNITUDES:
            raise ValueError(
                f"id_precision_bits must be one of {sorted(_ID_MAGNITUDES)}, "
                f"got {self.id_precision_bits}"
            )

    @property
    def resolved_num_chunks(self) -> int:
        """The chunk count actually used when ``chunked`` is enabled."""
        if self.num_chunks is not None:
            return self.num_chunks
        return min(self.dim, 4 * self.num_levels)


class HDSpace:
    """Materialised hypervector codebooks for one configuration."""

    def __init__(self, config: HDSpaceConfig) -> None:
        self.config = config
        root = np.random.default_rng(config.seed)
        # Independent child seeds for each codebook so changing one knob
        # (e.g. num_levels) does not reshuffle the others.
        self._id_seed = int(root.integers(0, 2**63))
        level_rng = np.random.default_rng(int(root.integers(0, 2**63)))
        tiebreak_rng = np.random.default_rng(int(root.integers(0, 2**63)))

        self.chunked_levels: Optional[ChunkedLevels] = None
        if config.chunked:
            self.chunked_levels = chunked_levels(
                config.dim,
                config.num_levels,
                config.resolved_num_chunks,
                level_rng,
            )
            self.level_vectors = self.chunked_levels.expand()
        else:
            self.level_vectors = flip_levels(
                config.dim, config.num_levels, level_rng
            )
        #: ±1 vector used to break ties when the Eq. 1 accumulator is 0.
        self.tiebreak = (
            tiebreak_rng.integers(0, 2, size=config.dim, dtype=np.int8) * 2 - 1
        ).astype(np.int8)

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self.config.dim

    @property
    def num_levels(self) -> int:
        """Number of intensity quantisation levels."""
        return self.config.num_levels

    @property
    def id_magnitude(self) -> int:
        """Largest ``|entry|`` of an ID hypervector at this precision."""
        return _ID_MAGNITUDES[self.config.id_precision_bits]

    @cached_property
    def id_bank(self) -> np.ndarray:
        """The ID codebook as one read-only ``(num_bins, dim)`` int8 array.

        Drawn on first access from one generator.  Each chunk of rows
        receives random bytes, which are masked to ``[0, 2m)``, shifted
        by ``-m`` and bumped past zero in place, so every entry is
        uniform on ``{-m..-1, 1..m}`` for the precision's magnitude
        ``m``.  Filling chunk by chunk keeps the draw's temporaries at
        ``_BANK_CHUNK_BYTES`` instead of the bank's size.

        A chunk's bytes are the little-endian bytes of ``ceil(n / 4)``
        uint32 draws, cut to the chunk's ``n`` — exactly what
        ``Generator.bytes(n)`` returns, without its two copies.
        """
        magnitude = self.id_magnitude
        rng = np.random.default_rng(self._id_seed)
        bank = np.empty((self.config.num_bins, self.config.dim), dtype=np.int8)
        rows = max(1, _BANK_CHUNK_BYTES // self.config.dim)
        for start in range(0, self.config.num_bins, rows):
            chunk = bank[start : start + rows]
            words = rng.integers(0, 2**32, size=-(-chunk.size // 4), dtype=np.uint32)
            chunk.reshape(-1)[...] = (
                words.astype("<u4", copy=False).view(np.int8)[: chunk.size]
            )
            chunk &= 2 * magnitude - 1
            chunk -= magnitude
            chunk += chunk >= 0
        bank.setflags(write=False)
        return bank

    def id_vector(self, bin_index: int) -> np.ndarray:
        """ID hypervector for *bin_index* (a read-only row of the bank)."""
        if not 0 <= bin_index < self.config.num_bins:
            raise IndexError(
                f"bin_index {bin_index} outside [0, {self.config.num_bins})"
            )
        return self.id_bank[bin_index]

    def id_matrix(self, bin_indices: Iterable[int]) -> np.ndarray:
        """Gather the ID rows of several bins into a new ``(n, dim)`` int8.

        Accepts any integer iterable *or* an ndarray (no ``.tolist()``
        round trip).  Out-of-range indices raise :class:`IndexError`;
        a negative one would otherwise silently wrap in the gather.
        """
        indices = np.asarray(
            bin_indices if isinstance(bin_indices, np.ndarray)
            else list(bin_indices),
            dtype=np.int64,
        )
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.config.num_bins
        ):
            raise IndexError(
                f"bin indices outside [0, {self.config.num_bins})"
            )
        return self.id_bank[indices]

    def level_vector(self, level: int) -> np.ndarray:
        """Level hypervector for quantised intensity *level*."""
        if not 0 <= level < self.config.num_levels:
            raise IndexError(
                f"level {level} outside [0, {self.config.num_levels})"
            )
        return self.level_vectors[level]
