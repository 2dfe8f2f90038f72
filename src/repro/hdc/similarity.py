"""Hamming similarity search in hyperspace (paper Section 3.3).

For bipolar hypervectors the Hamming similarity (count of equal
components) and the dot product are affinely related:

    dot(a, b) = (#equal) - (#different) = 2 * hamming_sim - D
    hamming_sim = (dot(a, b) + D) / 2

so ranking by dot product is ranking by Hamming similarity.  Two exact
backends are provided: a dense float32 matmul (BLAS-backed, exact for
D < 2^24 since all sums are small integers) and a packed uint64
XOR/popcount path that matches what digital hardware would do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .packing import hamming_dtype, hamming_rowsums, pack_bipolar

__all__ = [
    "dot_similarity",
    "hamming_similarity",
    "batch_dot_similarity",
    "packed_hamming_distance",
    "packed_dot_scores",
    "PackedReferenceSet",
    "top_k",
]


def dot_similarity(a: np.ndarray, b: np.ndarray) -> int:
    """Dot product of two bipolar hypervectors as a Python int."""
    return int(np.dot(a.astype(np.int32), b.astype(np.int32)))


def hamming_similarity(a: np.ndarray, b: np.ndarray) -> int:
    """Number of equal components between two bipolar hypervectors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return (dot_similarity(a, b) + a.shape[-1]) // 2


def batch_dot_similarity(
    queries: np.ndarray, references: np.ndarray
) -> np.ndarray:
    """Dot products between all query/reference pairs.

    ``queries`` is ``(q, D)`` or ``(D,)``; ``references`` is ``(n, D)``.
    Returns int32 of shape ``(q, n)`` (or ``(n,)`` for a single query).
    float32 matmul is exact here: every partial sum is an integer with
    magnitude <= D * max|ID| « 2^24.
    """
    single = queries.ndim == 1
    q = np.atleast_2d(queries).astype(np.float32)
    r = references.astype(np.float32)
    scores = (q @ r.T).astype(np.int32)
    return scores[0] if single else scores


def packed_hamming_distance(
    packed_a: np.ndarray,
    packed_b: np.ndarray,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Hamming distance between packed bit rows (uint8 words).

    Accepts ``(words,)`` or ``(n, words)`` arrays; broadcasting applies.
    This is the digital-hardware reference implementation (XOR +
    popcount) used to cross-check the matmul path.  Distances come in
    :func:`~repro.hdc.packing.hamming_dtype` of the row width (``uint16``
    up to 65 535 bits): widen them before any arithmetic.  With
    ``block_rows`` set, the rows of an ``(n, words)`` ``packed_a`` are
    XORed that many at a time, so the XOR buffer stays cache-resident —
    the same distances either way.
    """
    rows = np.asarray(packed_a)
    if not block_rows or rows.ndim != 2 or rows.shape[0] <= block_rows:
        return hamming_rowsums(rows, packed_b)
    out = np.empty(rows.shape[0], dtype=hamming_dtype(rows.shape[1]))
    for start in range(0, rows.shape[0], block_rows):
        out[start : start + block_rows] = hamming_rowsums(
            rows[start : start + block_rows], packed_b
        )
    return out


def packed_dot_scores(
    packed_rows: np.ndarray,
    packed_query: np.ndarray,
    dim: int,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Dot-product scores of packed rows against one packed query.

    ``dot = dim - 2 * hamming`` for bipolar vectors, returned as int32
    (matching :func:`batch_dot_similarity`); ``block_rows`` tiles the
    XOR as in :func:`packed_hamming_distance` — bit-identical either
    way, since every row's score is an independent integer.
    """
    distances = packed_hamming_distance(packed_rows, packed_query, block_rows)
    return dim - 2 * distances.astype(np.int32)


class PackedReferenceSet:
    """A reference library held in packed-bit form for Hamming search.

    Mirrors how the digital baseline (HyperOMS on GPU) stores its
    library: one bit per dimension.  ``search`` returns dot-product
    scores so results are directly comparable with the dense backend.
    """

    def __init__(self, references: np.ndarray) -> None:
        if references.ndim != 2:
            raise ValueError("references must be (n, D) bipolar")
        self.dim = references.shape[1]
        self.packed = pack_bipolar(references)

    def __len__(self) -> int:
        return self.packed.shape[0]

    def search(self, query: np.ndarray) -> np.ndarray:
        """Dot-product scores of *query* against every reference."""
        packed_query = pack_bipolar(query[np.newaxis, :])[0]
        distances = packed_hamming_distance(self.packed, packed_query)
        return (self.dim - 2 * distances.astype(np.int64)).astype(np.int32)


def top_k(
    scores: np.ndarray, k: int, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Indices of the k largest scores (descending), optionally masked.

    ``mask`` marks eligible entries; ineligible ones never appear in the
    result.  Deterministic: ties broken by lower index first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores)
    if mask is not None:
        eligible = np.flatnonzero(mask)
        if len(eligible) == 0:
            return np.empty(0, dtype=np.int64)
        sub = scores[eligible]
        order = np.argsort(-sub, kind="stable")[:k]
        return eligible[order]
    order = np.argsort(-scores, kind="stable")[:k]
    return order
