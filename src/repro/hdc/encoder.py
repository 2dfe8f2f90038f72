"""ID-Level spectrum encoding (paper Eq. 1).

``h = Sign( sum_{i in S} ID_i ⊗ LV_i )`` — for each retained peak, the
m/z-bin ID hypervector is bound (element-wise product) to the level
hypervector of its quantised intensity; the bound pairs are bundled
(summed) and binarised.  Ties at exactly zero are broken by the space's
fixed tiebreak vector so encoding is a pure function of (space,
spectrum).

Two equivalent implementations are provided:

* the *scalar* path (:meth:`SpectrumEncoder.accumulate` /
  :meth:`SpectrumEncoder.encode`) — one spectrum at a time, kept as the
  readable reference implementation and for one-off encodes;
* the *fused* path (:meth:`SpectrumEncoder.encode_packed`, which every
  production path runs) — a batch is binned in one pass, all peaks are
  concatenated into one flat index/level array, and each cache-sized
  block of peaks gathers its ID rows and level vectors from the
  contiguous codebooks into reused buffers, binds them with one int8
  multiply, reduces each spectrum in int8 partial sums, adds those into
  int32 accumulators and emits bit-packed rows directly.  No ``(n, D)``
  block outlives the few spectra of one block.
  :meth:`SpectrumEncoder.encode_batch` unpacks those rows and
  :meth:`SpectrumEncoder.accumulate_batch` returns the accumulators.
  Integer arithmetic makes the two paths bit-identical.

On a 2-vCPU host at D = 8192 (3-bit IDs, 96 to 768 preprocessed
spectra of 23 to 38 peaks) the fused path encodes about 8-16 k
spectra/s, 2.5-3.5x the int32-reduction kernel it replaced.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..ms.spectrum import Spectrum
from ..ms.vectorize import (
    BinningConfig,
    SparseVector,
    quantize_intensities,
    vectorize,
    vectorize_many,
)
from ..obs.trace import get_tracer
from .packing import pack_bipolar, unpack_bipolar
from .spaces import HDSpace

#: Concatenated peak rows the fused encoder gathers per block.  Sized
#: for cache residency: the block's two int8 gather buffers
#: (``2 * _MAX_FLAT_PEAKS * dim`` bytes, 1 MiB at D = 8192) stay in
#: L2, so the bind-multiply and the segment sums never round-trip
#: through RAM.  Measured on a 2-vCPU host at D = 8192: 64 is as fast
#: as 32 or 128 and 0-15% faster than 256, and about 3x faster than
#: gathering a whole 96-768-spectrum batch as one block.
_MAX_FLAT_PEAKS = 64


def sign_with_tiebreak(
    accumulator: np.ndarray, tiebreak: np.ndarray
) -> np.ndarray:
    """Binarise an accumulator to {-1, +1} int8, zeros -> tiebreak."""
    result = np.sign(accumulator).astype(np.int8)
    zero = result == 0
    if zero.any():
        result[zero] = tiebreak[zero] if accumulator.ndim == 1 else np.broadcast_to(
            tiebreak, accumulator.shape
        )[zero]
    return result


class SpectrumEncoder:
    """Encode binned spectra into bipolar hypervectors.

    Parameters
    ----------
    space:
        The :class:`HDSpace` providing ID/level codebooks.  Its
        ``num_bins`` must match ``binning.num_bins``.
    binning:
        m/z binning configuration used to vectorise raw spectra.
    """

    def __init__(self, space: HDSpace, binning: BinningConfig) -> None:
        if space.config.num_bins != binning.num_bins:
            raise ValueError(
                f"space has {space.config.num_bins} bins but binning "
                f"produces {binning.num_bins}"
            )
        self.space = space
        self.binning = binning

    def accumulate(self, vector: SparseVector) -> np.ndarray:
        """The pre-sign accumulator of Eq. 1 as an int32 vector.

        Exposed separately because the RRAM encoder reproduces exactly
        this quantity in analog and we compare against it in tests.
        """
        dim = self.space.dim
        if len(vector) == 0:
            return np.zeros(dim, dtype=np.int32)
        levels, _scale = quantize_intensities(
            vector.values, self.space.num_levels
        )
        ids = self.space.id_matrix(vector.indices).astype(np.int32)
        level_vectors = self.space.level_vectors[levels].astype(np.int32)
        return np.einsum("pd,pd->d", ids, level_vectors, optimize=True)

    def _quantize_flat(
        self, flat_values: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-spectrum intensity quantisation over concatenated values.

        Reproduces :func:`~repro.ms.vectorize.quantize_intensities`
        bit-for-bit: each spectrum's scale is its own maximum, spectra
        with a non-positive maximum quantise to level 0 throughout.
        """
        num_levels = self.space.num_levels
        scales = np.repeat(np.maximum.reduceat(flat_values, starts), counts)
        # value / scale where the scale is positive, 0 elsewhere.
        levels = np.divide(
            flat_values, scales, out=np.zeros_like(flat_values), where=scales > 0
        )
        levels *= num_levels
        np.floor(levels, out=levels)
        np.minimum(levels, num_levels - 1, out=levels)
        return levels.astype(np.int64)

    def _accumulated_blocks(
        self, vectors: Sequence[SparseVector]
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(rows, accumulators)`` for the non-empty spectra.

        ``accumulators`` is the int32 ``(len(rows), dim)`` Eq. 1 sum of
        the spectra at ``rows`` of *vectors*.  All peaks are
        concatenated into one flat bin-index/level array; each block of
        at most ``_MAX_FLAT_PEAKS`` concatenated peaks gathers its ID
        rows and level vectors from the contiguous codebooks, binds
        them with one in-place int8 multiply and reduces each spectrum
        in int8 partial sums of at most ``127 // m`` rows (``m`` the ID
        magnitude, so no partial sum can overflow), which are added
        into the int32 accumulators.  Empty spectra yield no row.
        """
        nonempty = np.array(
            [row for row, vector in enumerate(vectors) if len(vector)], dtype=np.int64
        )
        if not len(nonempty):
            return
        kept = [vectors[row] for row in nonempty.tolist()]
        counts = np.array([len(vector) for vector in kept], dtype=np.int64)
        flat_bins = np.concatenate([np.asarray(v.indices, dtype=np.int64) for v in kept])
        flat_values = np.concatenate([np.asarray(v.values, dtype=np.float64) for v in kept])
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        flat_levels = self._quantize_flat(flat_values, starts, counts)

        space = self.space
        bank, level_vectors = space.id_bank, space.level_vectors
        # Checked once here: the gathers below clip instead of raising
        # (a raising np.take into ``out`` buffers the whole result).
        if int(flat_bins.min()) < 0 or int(flat_bins.max()) >= len(bank):
            raise IndexError(f"bin indices outside [0, {len(bank)})")
        group = 127 // space.id_magnitude
        partial = np.empty(space.dim, dtype=np.int8)
        # Gather buffers reused by every block: the ID rows (bound in
        # place) and the level vectors they are multiplied by.
        capacity = max(_MAX_FLAT_PEAKS, int(counts.max()))
        gathered = np.empty((2, capacity, space.dim), dtype=np.int8)
        block_start = 0
        while block_start < len(counts):
            # Grow the block while the concatenated peak count stays
            # bounded; a single spectrum larger than the cap still gets
            # its own (oversized) block.
            block_end = block_start + 1
            peaks = int(counts[block_start])
            while (
                block_end < len(counts)
                and peaks + int(counts[block_end]) <= _MAX_FLAT_PEAKS
            ):
                peaks += int(counts[block_end])
                block_end += 1
            low = int(starts[block_start])
            bound, levels = gathered[0, :peaks], gathered[1, :peaks]
            block = slice(low, low + peaks)
            bank.take(flat_bins[block], axis=0, out=bound, mode="clip")
            level_vectors.take(flat_levels[block], axis=0, out=levels, mode="clip")
            # |ID| <= m and LV in {-1, +1}, so the bound product fits int8.
            np.multiply(bound, levels, out=bound)
            accumulators = np.empty((block_end - block_start, space.dim), dtype=np.int32)
            for row, (seg_low, seg_count) in enumerate(
                zip(
                    (starts[block_start:block_end] - low).tolist(),
                    counts[block_start:block_end].tolist(),
                )
            ):
                seg_high = seg_low + seg_count
                for first in range(seg_low, seg_high, group):
                    # An int8 reduction into a preallocated row runs the
                    # contiguous SIMD add loop; a widening (int32)
                    # reduction, or one that allocates its result, is
                    # several times slower.
                    np.add.reduce(
                        bound[first : min(first + group, seg_high)],
                        axis=0,
                        out=partial,
                    )
                    if first == seg_low:
                        accumulators[row] = partial
                    else:
                        accumulators[row] += partial
            yield nonempty[block_start:block_end], accumulators
            block_start = block_end

    def accumulate_batch(
        self, vectors: Sequence[SparseVector]
    ) -> np.ndarray:
        """Pre-sign accumulators for many spectra as ``(n, dim)`` int32.

        Rows for empty spectra stay all-zero (sign resolves them to the
        tiebreak vector, exactly like the scalar path).  Integer
        arithmetic keeps every row bit-identical to :meth:`accumulate`.
        """
        out = np.zeros((len(vectors), self.space.dim), dtype=np.int32)
        for rows, accumulators in self._accumulated_blocks(vectors):
            out[rows] = accumulators
        return out

    def encode_vector(self, vector: SparseVector) -> np.ndarray:
        """Encode one sparse binned vector into a bipolar hypervector."""
        accumulator = self.accumulate(vector)
        return sign_with_tiebreak(accumulator, self.space.tiebreak)

    def encode(self, spectrum: Spectrum) -> np.ndarray:
        """Encode one (already preprocessed) spectrum."""
        return self.encode_vector(vectorize(spectrum, self.binning))

    def encode_packed(
        self, spectra: Sequence[Union[Spectrum, SparseVector]]
    ) -> np.ndarray:
        """Encode many spectra straight to ``(n, ceil(dim / 8))`` uint8 rows.

        The fused kernel every production path runs: each block of
        accumulators from :meth:`_accumulated_blocks` is binarised and
        bit-packed in one step (``acc > 0``, zeros taking the tiebreak
        bit), so no ``(n, dim)`` block outlives its few spectra.  Rows
        are :func:`~repro.hdc.packing.pack_bipolar` of :meth:`encode`,
        bit for bit, pad bits included (zero).
        """
        with get_tracer().span("encode.batch", batch=len(spectra), dim=self.space.dim):
            binned = iter(
                vectorize_many(
                    [item for item in spectra if not isinstance(item, SparseVector)],
                    self.binning,
                )
            )
            vectors: List[SparseVector] = [
                item if isinstance(item, SparseVector) else next(binned)
                for item in spectra
            ]
            floor, packed_tiebreak = self._sign_floor
            out = np.empty((len(vectors), len(packed_tiebreak)), dtype=np.uint8)
            out[:] = packed_tiebreak
            for rows, accumulators in self._accumulated_blocks(vectors):
                out[rows] = np.packbits(accumulators > floor, axis=-1)
            return out

    @functools.cached_property
    def _sign_floor(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(floor, packed tiebreak)`` of the fused kernel's binarisation.

        ``accumulator > floor`` is the sign with ties to the tiebreak:
        the floor is -1 where the tiebreak is +1 (so a zero sets the
        bit) and 0 where it is -1.  The packed tiebreak is the row of an
        empty spectrum.
        """
        tiebreak = self.space.tiebreak > 0
        return -tiebreak.astype(np.int32), np.packbits(tiebreak)

    def encode_batch(
        self, spectra: Sequence[Union[Spectrum, SparseVector]]
    ) -> np.ndarray:
        """Encode many spectra into an ``(n, dim)`` int8 bipolar matrix.

        The unpacked form of :meth:`encode_packed`, for callers that
        need bipolar rows (the oracle's dense backend, the figure
        experiments); bit-identical to :meth:`encode` row by row.
        """
        return unpack_bipolar(self.encode_packed(spectra), self.space.dim)

    def peak_operands(self, vector: SparseVector):
        """The (ID matrix, level indices) pair for one spectrum.

        This is the exact operand layout the in-memory encoder maps onto
        the crossbar: ID rows are the stored weights, level indices pick
        the input chunk patterns.  Returned as ``(ids int8 (p, dim),
        levels int64 (p,))``.
        """
        levels, _scale = quantize_intensities(
            vector.values, self.space.num_levels
        )
        ids = self.space.id_matrix(vector.indices)
        return ids, levels


def encode_packed_rows(encoder, spectra: Sequence[Spectrum]) -> np.ndarray:
    """``pack_bipolar(encoder.encode_batch(spectra))`` for any encoder.

    The one encoder dispatch of the fan-out core, for references and
    queries alike.  A :class:`SpectrumEncoder` produces the rows
    straight from its fused :meth:`~SpectrumEncoder.encode_packed`
    kernel; other encoders are packed after their own ``encode_batch``.
    For the alternative schemes and the analog in-memory encoder that
    encodes row by row, exactly like per-spectrum ``encode``.  The one
    exception is the MLC storage round-trip wrapper
    (:class:`~repro.accelerator.accelerator.StoredQueryEncoder`), whose
    batch draws its noise differently from per-spectrum ``encode``; it
    only runs behind the oracle, whose
    :func:`~repro.oms.search.encode_queries` keeps the per-spectrum
    order.
    """
    if isinstance(encoder, SpectrumEncoder):
        return encoder.encode_packed(spectra)
    return pack_bipolar(encoder.encode_batch(spectra))
