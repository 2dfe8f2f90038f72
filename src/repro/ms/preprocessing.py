"""Spectrum preprocessing (paper Section 3.1).

The paper's preprocessing pipeline: keep peaks above an intensity
threshold (1% of the base peak), retain at most ~150 peaks, restrict the
m/z range, and scale intensities before vectorisation.
:func:`preprocess_many` runs it over a block of spectra in one pass and
:func:`preprocess` is a block of one; both return new spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..constants import (
    DEFAULT_MAX_PEAKS,
    DEFAULT_MAX_MZ,
    DEFAULT_MIN_INTENSITY_FRACTION,
    DEFAULT_MIN_MZ,
)
from .spectrum import Spectrum


class EmptyLibraryError(ValueError):
    """No reference spectrum of a library survived preprocessing."""

    def __init__(self) -> None:
        super().__init__("no reference spectrum survived preprocessing")


@dataclass(frozen=True)
class PreprocessingConfig:
    """Knobs for :func:`preprocess`.

    Defaults mirror the paper's description and the conventions of
    ANN-SoLo / HyperOMS: 1% base-peak threshold, <=150 peaks, m/z range
    [100, 1500], square-root intensity scaling, minimum 5 peaks for a
    spectrum to be searchable.
    """

    min_mz: float = DEFAULT_MIN_MZ
    max_mz: float = DEFAULT_MAX_MZ
    min_intensity_fraction: float = DEFAULT_MIN_INTENSITY_FRACTION
    max_peaks: int = DEFAULT_MAX_PEAKS
    scaling: str = "sqrt"  # one of: "sqrt", "rank", "none"
    min_peaks: int = 5
    remove_precursor_tolerance: Optional[float] = 1.5

    def __post_init__(self) -> None:
        if self.min_mz >= self.max_mz:
            raise ValueError("min_mz must be < max_mz")
        if not 0 <= self.min_intensity_fraction < 1:
            raise ValueError("min_intensity_fraction must be in [0, 1)")
        if self.max_peaks < 1:
            raise ValueError("max_peaks must be >= 1")
        if self.scaling not in ("sqrt", "rank", "none"):
            raise ValueError(f"unknown scaling {self.scaling!r}")


def is_high_quality(spectrum: Spectrum, min_peaks: int = 5, min_mz_span: float = 100.0) -> bool:
    """Quality gate: enough peaks covering a wide-enough m/z span."""
    if len(spectrum) < min_peaks:
        return False
    return float(spectrum.mz[-1] - spectrum.mz[0]) >= min_mz_span


def preprocess(
    spectrum: Spectrum, config: Optional[PreprocessingConfig] = None
) -> Optional[Spectrum]:
    """Run the full preprocessing chain; None if the spectrum fails QC.

    A block of one for :func:`preprocess_many`.  Order matters: range
    restriction and precursor removal first (so the base-peak threshold
    is computed on informative peaks only), then the intensity filter
    (at most ``max_peaks``, the most intense, ties to the lower m/z),
    then scaling (``sqrt``, ``rank`` or ``none``) and normalisation to
    unit Euclidean norm.
    """
    return preprocess_many([spectrum], config)[0]


def preprocess_many(
    spectra: Sequence[Spectrum], config: Optional[PreprocessingConfig] = None
) -> List[Optional[Spectrum]]:
    """:func:`preprocess` of every spectrum, None where one fails QC.

    One pass over the concatenated peaks of the block, each peak tagged
    with its spectrum: the masks, each spectrum's maximum and threshold,
    the top-``max_peaks`` cut and the scaling run on the flat arrays.
    Only the norm stays one float32 ``dot`` per spectrum, whose
    summation order no segmented reduction reproduces.
    """
    config = config or PreprocessingConfig()
    if not spectra:
        return []
    mz = np.concatenate([spectrum.mz for spectrum in spectra])
    intensity = np.concatenate([spectrum.intensity for spectrum in spectra])
    owner = np.arange(len(spectra)).repeat([len(spectrum) for spectrum in spectra])
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    if config.remove_precursor_tolerance is not None:
        precursors = np.array([spectrum.precursor_mz for spectrum in spectra])
        keep &= np.abs(mz - precursors[owner]) > config.remove_precursor_tolerance
    # Each spectrum's base peak among its kept peaks (intensities are >= 0);
    # a float32 array meets a Python-float threshold in float32.
    maxima = np.zeros(len(spectra), dtype=np.float32)
    np.maximum.at(maxima, owner[keep], intensity[keep])
    thresholds = maxima.astype(np.float64) * config.min_intensity_fraction
    keep &= intensity >= thresholds.astype(np.float32)[owner]
    mz, intensity, owner = mz[keep], intensity[keep], owner[keep]
    counts = np.bincount(owner, minlength=len(spectra))
    if counts.max() > config.max_peaks:
        # stable sort on negative intensity keeps low-m/z winners on ties
        keep = _ranks(np.lexsort((-intensity, owner)), counts) < config.max_peaks
        mz, intensity, owner = mz[keep], intensity[keep], owner[keep]
        counts = np.minimum(counts, config.max_peaks)
    if config.scaling == "sqrt":
        intensity = np.sqrt(intensity, dtype=np.float64).astype(np.float32)
    elif config.scaling == "rank":
        intensity = (_ranks(np.lexsort((intensity, owner)), counts) + 1).astype(np.float32)
    results: List[Optional[Spectrum]] = []
    stop = 0
    for spectrum, count in zip(spectra, counts.tolist()):
        start, stop = stop, stop + count
        if count < config.min_peaks:
            results.append(None)
            continue
        values = intensity[start:stop]
        # np.linalg.norm's own arithmetic (a float32 dot, then sqrt),
        # minus its dispatch overhead.
        norm = float(np.sqrt(values.dot(values)))
        # A validated spectrum's peaks, subset in order and rescaled to
        # finite non-negative float32: nothing for __post_init__ to check.
        results.append(
            spectrum._with_valid_peaks(mz[start:stop], values / norm if norm else values)
        )
    return results


def _ranks(order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each peak's position within its spectrum under *order*, which sorts by spectrum first."""
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    return ranks
