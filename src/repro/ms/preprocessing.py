"""Spectrum preprocessing (paper Section 3.1).

The paper's preprocessing pipeline: keep peaks above an intensity
threshold (1% of the base peak), retain at most ~150 peaks, restrict the
m/z range, and scale intensities before vectorisation.  The functions
here are pure — each returns a new :class:`Spectrum` — and
:func:`preprocess` composes them according to a config object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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


def restrict_mz_range(
    spectrum: Spectrum, min_mz: float, max_mz: float
) -> Spectrum:
    """Drop peaks outside ``[min_mz, max_mz]``."""
    mask = (spectrum.mz >= min_mz) & (spectrum.mz <= max_mz)
    return spectrum.copy_with_peaks(spectrum.mz[mask], spectrum.intensity[mask])


def remove_precursor_peaks(spectrum: Spectrum, tolerance: float) -> Spectrum:
    """Drop peaks within ``tolerance`` Da of the precursor m/z.

    Residual precursor signal is uninformative for fragment matching and
    would otherwise dominate the binned vector.
    """
    mask = np.abs(spectrum.mz - spectrum.precursor_mz) > tolerance
    return spectrum.copy_with_peaks(spectrum.mz[mask], spectrum.intensity[mask])


def filter_intensity(
    spectrum: Spectrum,
    min_intensity_fraction: float = DEFAULT_MIN_INTENSITY_FRACTION,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> Spectrum:
    """Keep peaks above the relative threshold, at most ``max_peaks``.

    When more than ``max_peaks`` survive the threshold, the most intense
    ones are retained (ties broken towards lower m/z for determinism).
    """
    if not len(spectrum):
        return spectrum
    threshold = spectrum.base_peak_intensity * min_intensity_fraction
    mask = spectrum.intensity >= threshold
    mz, intensity = spectrum.mz[mask], spectrum.intensity[mask]
    if len(mz) > max_peaks:
        # stable sort on negative intensity keeps low-m/z winners on ties
        keep = np.argsort(-intensity, kind="stable")[:max_peaks]
        keep.sort()
        mz, intensity = mz[keep], intensity[keep]
    return spectrum.copy_with_peaks(mz, intensity)


def scale_intensity(spectrum: Spectrum, scaling: str = "sqrt") -> Spectrum:
    """Compress the intensity dynamic range.

    ``sqrt`` is the proteomics default (dampens dominant peaks), ``rank``
    replaces intensities with their ascending rank (1..n), ``none`` is a
    pass-through.
    """
    if scaling == "none" or not len(spectrum):
        return spectrum
    if scaling == "sqrt":
        intensity = np.sqrt(spectrum.intensity.astype(np.float64))
    elif scaling == "rank":
        ranks = np.empty(len(spectrum), dtype=np.float64)
        ranks[np.argsort(spectrum.intensity, kind="stable")] = np.arange(
            1, len(spectrum) + 1
        )
        intensity = ranks
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    return spectrum.copy_with_peaks(spectrum.mz, intensity)


def normalize_intensity(spectrum: Spectrum) -> Spectrum:
    """Scale intensities to unit Euclidean norm (no-op on empty spectra)."""
    norm = float(np.linalg.norm(spectrum.intensity))
    if norm == 0.0:
        return spectrum
    return spectrum.copy_with_peaks(spectrum.mz, spectrum.intensity / norm)


def is_high_quality(spectrum: Spectrum, min_peaks: int = 5, min_mz_span: float = 100.0) -> bool:
    """Quality gate: enough peaks covering a wide-enough m/z span."""
    if len(spectrum) < min_peaks:
        return False
    return float(spectrum.mz[-1] - spectrum.mz[0]) >= min_mz_span


def preprocess(
    spectrum: Spectrum, config: Optional[PreprocessingConfig] = None
) -> Optional[Spectrum]:
    """Run the full preprocessing chain; None if the spectrum fails QC.

    Order matters: range restriction and precursor removal first (so the
    base-peak threshold is computed on informative peaks only), then the
    intensity filter, then scaling and normalisation.  One pass over the
    two peak arrays builds one new :class:`Spectrum`; the result equals
    chaining :func:`restrict_mz_range`, :func:`remove_precursor_peaks`,
    :func:`filter_intensity`, :func:`scale_intensity` and
    :func:`normalize_intensity`, array for array and dtype for dtype.
    """
    config = config or PreprocessingConfig()
    mz, intensity = spectrum.mz, spectrum.intensity
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    if config.remove_precursor_tolerance is not None:
        keep &= np.abs(mz - spectrum.precursor_mz) > config.remove_precursor_tolerance
    mz, intensity = mz[keep], intensity[keep]
    if len(mz):
        threshold = float(intensity.max()) * config.min_intensity_fraction
        keep = intensity >= threshold
        mz, intensity = mz[keep], intensity[keep]
        if len(mz) > config.max_peaks:
            # stable sort on negative intensity keeps low-m/z winners on ties
            top = np.argsort(-intensity, kind="stable")[: config.max_peaks]
            top.sort()
            mz, intensity = mz[top], intensity[top]
    if len(mz) < config.min_peaks:
        return None
    if config.scaling == "sqrt":
        intensity = np.sqrt(intensity.astype(np.float64)).astype(np.float32)
    elif config.scaling == "rank":
        ranks = np.empty(len(mz), dtype=np.float32)
        ranks[np.argsort(intensity, kind="stable")] = np.arange(1, len(mz) + 1)
        intensity = ranks
    # np.linalg.norm's own arithmetic (a float32 dot, then sqrt), minus
    # its dispatch overhead.
    norm = float(np.sqrt(intensity.dot(intensity)))
    if norm != 0.0:
        intensity = intensity / norm
    return replace(spectrum, mz=mz, intensity=intensity)
