"""Bit-error injection for the HD-robustness study (paper Section 5.3.2).

Figure 11 sweeps bit error rates {0.15%, 1%, 5%, 10%, 20%} injected into
"encoding and search" — i.e. random sign flips on binary hypervectors —
and shows identifications stay flat up to ~10% BER.  These helpers apply
exactly that perturbation, plus a level-shift error model for multi-bit
cell values used by the RRAM storage experiments.
"""

from __future__ import annotations

import numpy as np


def flip_bits(
    vectors: np.ndarray,
    bit_error_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a copy of bipolar *vectors* with random sign flips.

    Each component independently flips with probability
    ``bit_error_rate``.  Shape is preserved; input is not modified.
    """
    if not 0 <= bit_error_rate <= 1:
        raise ValueError(f"bit_error_rate must be in [0, 1], got {bit_error_rate}")
    vectors = np.asarray(vectors)
    if bit_error_rate == 0:
        return vectors.copy()
    flips = rng.random(vectors.shape) < bit_error_rate
    noisy = vectors.copy()
    noisy[flips] = -noisy[flips]
    return noisy


#: Uniform draws per block of :func:`flip_packed` (float64, ~4 MiB).
_FLIP_BLOCK_DRAWS = 1 << 19


def flip_packed(
    packed: np.ndarray,
    dim: int,
    bit_error_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """:func:`flip_bits` for bit-packed ``(n, ceil(dim / 8))`` rows.

    Draws exactly what :func:`flip_bits` draws for the unpacked
    ``(n, dim)`` rows — ``rng.random((n, dim)) < bit_error_rate`` in
    row-major order — packs the flip mask and XORs it in, so both forms
    consume one noise stream and flip the same bits; pad bits stay
    zero.  The draw runs a block of rows (about ``_FLIP_BLOCK_DRAWS``
    floats) at a time.  A zero rate draws nothing and returns *packed*
    itself.
    """
    if not 0 <= bit_error_rate <= 1:
        raise ValueError(f"bit_error_rate must be in [0, 1], got {bit_error_rate}")
    packed = np.asarray(packed)
    if bit_error_rate == 0:
        return packed
    noisy = np.empty_like(packed)
    rows = max(1, _FLIP_BLOCK_DRAWS // dim)
    for start in range(0, len(packed), rows):
        block = slice(start, start + rows)
        flips = rng.random((len(noisy[block]), dim)) < bit_error_rate
        np.bitwise_xor(packed[block], np.packbits(flips, axis=-1), out=noisy[block])
    return noisy


def measured_bit_error_rate(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Fraction of differing components between two bipolar arrays."""
    clean = np.asarray(clean)
    noisy = np.asarray(noisy)
    if clean.shape != noisy.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {noisy.shape}")
    if clean.size == 0:
        return 0.0
    return float(np.mean(clean != noisy))


def shift_cell_levels(
    cells: np.ndarray,
    level_error_rate: float,
    num_levels: int,
    rng: np.random.Generator,
    max_shift: int = 1,
) -> np.ndarray:
    """Perturb MLC cell values by +-shift with probability per cell.

    Models the dominant MLC failure mode: a cell read one level off its
    programmed target (conductance relaxation rarely jumps several
    levels).  Values are clipped to ``[0, num_levels - 1]``.
    """
    if not 0 <= level_error_rate <= 1:
        raise ValueError(
            f"level_error_rate must be in [0, 1], got {level_error_rate}"
        )
    cells = np.asarray(cells)
    noisy = cells.astype(np.int16, copy=True)
    if level_error_rate == 0:
        return noisy.astype(cells.dtype)
    affected = rng.random(cells.shape) < level_error_rate
    shifts = rng.integers(1, max_shift + 1, size=cells.shape) * np.where(
        rng.random(cells.shape) < 0.5, -1, 1
    )
    noisy[affected] += shifts[affected]
    np.clip(noisy, 0, num_levels - 1, out=noisy)
    return noisy.astype(cells.dtype)


def perturb_accumulator(
    accumulator: np.ndarray,
    relative_noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add Gaussian noise scaled to the accumulator's RMS value.

    Models analog MAC noise ahead of the Sign() quantiser during
    in-memory encoding; the paper notes single-bit output quantisation
    makes this stage naturally error-tolerant (Section 4.2.3).
    """
    if relative_noise < 0:
        raise ValueError(f"relative_noise must be >= 0, got {relative_noise}")
    accumulator = np.asarray(accumulator, dtype=np.float64)
    if relative_noise == 0:
        return accumulator.copy()
    rms = float(np.sqrt(np.mean(accumulator**2))) or 1.0
    return accumulator + rng.normal(0.0, relative_noise * rms, accumulator.shape)
