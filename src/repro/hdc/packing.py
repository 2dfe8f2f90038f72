"""Bit packing and MLC cell packing for hypervector storage.

Two layouts are needed:

* *packed bits* — one bit per dimension (+1 -> 1, -1 -> 0) in uint8
  words, used by the digital XOR/popcount search path;
* *cell groups* (paper Section 4.3) — the D-bit hypervector reshaped
  into ``D/n`` unsigned ``n``-bit integers (n = 1, 2, 3 bits per cell),
  which are then mapped to MLC RRAM conductances
  ``g = h' / h'_max * g_max``.

When ``D`` is not divisible by ``n`` the tail is zero-padded; the
original dimension is passed back in when unpacking so the pad is
dropped.
"""

from __future__ import annotations

import numpy as np

_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def _popcount_lut(words: np.ndarray) -> np.ndarray:
    """Table-lookup population count (works on every NumPy version)."""
    return _POPCOUNT_TABLE[words].astype(np.int64)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint8 array (any shape).

        Uses the native ``np.bitwise_count`` ufunc (hardware popcnt, no
        gather through a lookup table); :func:`_popcount_lut` is the
        bit-identical fallback for NumPy < 2.0.
        """
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - exercised only on NumPy < 2.0

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint8 array (any shape)."""
        return _popcount_lut(words)


_UINT16, _INT64 = np.dtype(np.uint16), np.dtype(np.int64)
_UINT16_MAX = int(np.iinfo(np.uint16).max)


def hamming_dtype(row_bytes: int) -> np.dtype:
    """The narrowest exact dtype of a Hamming distance over ``row_bytes`` bytes.

    A distance is at most ``8 * row_bytes``, so ``uint16`` holds every
    one up to 65 535 bits per row; wider rows are summed in ``int64``.
    Widen before any score arithmetic: in ``uint16`` ``dim - 2 * h``
    wraps around instead of going negative.
    """
    return _UINT16 if 8 * row_bytes <= _UINT16_MAX else _INT64


def hamming_rowsums(packed_a: np.ndarray, packed_b: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distances between packed bit arrays, fused.

    Equivalent to ``popcount(packed_a ^ packed_b).sum(axis=-1)`` but
    never materialises an int64 matrix 8x the packed size: the native
    ``bitwise_count`` path counts whole 64-bit words when the row length
    allows, else in place in the uint8 XOR buffer, and the per-word
    counts are summed in :func:`hamming_dtype` of the row width
    (``uint16`` for any row of at most 65 535 bits, half the reduction
    work of ``int64``).  On contiguous slabs the XOR and popcount
    ufuncs release the GIL, which is what lets thread-pool scoring
    overlap across shards.  Broadcasting applies as in
    :func:`np.bitwise_xor`; the summed axis is the last.
    """
    xored = np.bitwise_xor(packed_a, packed_b)
    if hasattr(np, "bitwise_count"):
        if xored.shape[-1] % 8 == 0 and xored.flags.c_contiguous:
            # The same bits as 64-bit words: an eighth of the elements
            # to count and to sum.
            counts = np.bitwise_count(xored.view(np.uint64))
        else:
            counts = np.bitwise_count(xored, out=xored)
    else:  # pragma: no cover - exercised only on NumPy < 2.0
        counts = _POPCOUNT_TABLE[xored]
    return counts.sum(axis=-1, dtype=hamming_dtype(xored.shape[-1]))


def pack_bipolar(vectors: np.ndarray) -> np.ndarray:
    """Pack bipolar {-1,+1} rows into uint8 words (+1 -> bit 1).

    Accepts ``(D,)`` or ``(n, D)``; returns uint8 with the last axis
    packed (``ceil(D/8)`` words).
    """
    return np.packbits(np.asarray(vectors) > 0, axis=-1)


def unpack_bipolar(packed: np.ndarray, dim: int) -> np.ndarray:
    """Invert :func:`pack_bipolar`; ``dim`` trims the bit padding."""
    bipolar = np.unpackbits(packed, axis=-1, count=dim).view(np.int8)
    bipolar *= 2  # {0, 1} -> {-1, +1}, in the unpacked buffer itself
    bipolar -= 1
    return bipolar


def bipolar_to_bits(vectors: np.ndarray) -> np.ndarray:
    """Map {-1,+1} -> {0,1} uint8 (elementwise, any shape)."""
    return (np.asarray(vectors) > 0).astype(np.uint8)


def bits_to_bipolar(bits: np.ndarray) -> np.ndarray:
    """Map {0,1} -> {-1,+1} int8 (elementwise, any shape)."""
    return (np.asarray(bits).astype(np.int8) * 2 - 1).astype(np.int8)


def pack_cells(vectors: np.ndarray, bits_per_cell: int) -> np.ndarray:
    """Reshape bipolar hypervectors into n-bit cell values (Section 4.3).

    Consecutive groups of ``bits_per_cell`` bits become one unsigned
    integer in ``[0, 2**bits_per_cell)``; the first bit in a group is the
    most significant.  Accepts ``(D,)`` or ``(rows, D)`` input and
    returns ``(ceil(D/n),)`` or ``(rows, ceil(D/n))`` uint8.
    """
    if bits_per_cell not in (1, 2, 3):
        raise ValueError(f"bits_per_cell must be 1, 2 or 3, got {bits_per_cell}")
    single = np.asarray(vectors).ndim == 1
    bits = np.atleast_2d(bipolar_to_bits(vectors))
    rows, dim = bits.shape
    padded = -(-dim // bits_per_cell) * bits_per_cell
    if padded != dim:
        bits = np.concatenate(
            [bits, np.zeros((rows, padded - dim), dtype=np.uint8)], axis=1
        )
    grouped = bits.reshape(rows, padded // bits_per_cell, bits_per_cell)
    weights = (1 << np.arange(bits_per_cell - 1, -1, -1)).astype(np.uint8)
    cells = (grouped * weights).sum(axis=2).astype(np.uint8)
    return cells[0] if single else cells


def unpack_cells(
    cells: np.ndarray, bits_per_cell: int, dim: int
) -> np.ndarray:
    """Invert :func:`pack_cells` back to bipolar hypervectors."""
    if bits_per_cell not in (1, 2, 3):
        raise ValueError(f"bits_per_cell must be 1, 2 or 3, got {bits_per_cell}")
    single = np.asarray(cells).ndim == 1
    values = np.atleast_2d(np.asarray(cells, dtype=np.uint8))
    shifts = np.arange(bits_per_cell - 1, -1, -1, dtype=np.uint8)
    bits = (values[..., np.newaxis] >> shifts) & 1
    flat = bits.reshape(values.shape[0], -1)[:, :dim]
    bipolar = bits_to_bipolar(flat)
    return bipolar[0] if single else bipolar


def cells_per_hypervector(dim: int, bits_per_cell: int) -> int:
    """Number of MLC cells needed to store one D-bit hypervector."""
    return -(-dim // bits_per_cell)
