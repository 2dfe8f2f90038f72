"""Spectrum container shared by every stage of the pipeline.

A :class:`Spectrum` is an immutable-ish record of one MS/MS scan: peak
m/z and intensity arrays plus precursor information and (for library
spectra) the generating peptide.  Arrays are kept sorted by m/z and
validated on construction so downstream code can rely on invariants
instead of re-checking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .peptide import Peptide, neutral_mass_from_mz


@dataclass
class Spectrum:
    """One MS/MS spectrum.

    Parameters
    ----------
    identifier:
        Unique string id (scan title for queries, library accession for
        references).
    precursor_mz:
        Measured precursor mass-to-charge ratio.
    precursor_charge:
        Precursor charge state (>= 1).
    mz:
        Peak m/z values, 1-D float array.  Sorted ascending on
        construction.
    intensity:
        Peak intensities, same length as ``mz``, non-negative.  Every
        m/z, intensity and the precursor m/z must be finite.
    peptide:
        The annotated peptide for library/ground-truth spectra, or None
        for unidentified queries.
    is_decoy:
        True for decoy library entries used by the FDR filter.
    """

    identifier: str
    precursor_mz: float
    precursor_charge: int
    mz: np.ndarray
    intensity: np.ndarray
    peptide: Optional[Peptide] = None
    is_decoy: bool = False
    retention_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.mz = np.asarray(self.mz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float32)
        if self.mz.ndim != 1 or self.intensity.ndim != 1:
            raise ValueError("mz and intensity must be 1-D arrays")
        if len(self.mz) != len(self.intensity):
            raise ValueError(
                f"mz ({len(self.mz)}) and intensity ({len(self.intensity)}) "
                "must have the same length"
            )
        if self.precursor_charge < 1:
            raise ValueError(f"precursor_charge must be >= 1, got {self.precursor_charge}")
        if not math.isfinite(self.precursor_mz) or self.precursor_mz <= 0:
            raise ValueError(
                f"precursor_mz must be finite and > 0, got {self.precursor_mz}"
            )
        if not len(self.mz):
            return
        # A NaN fails every comparison, so ascending m/z values are all
        # finite exactly when both ends are, and the stable sort below
        # only runs on unsorted input.
        ascending = bool((self.mz[1:] >= self.mz[:-1]).all())
        lowest, highest = float(self.intensity.min()), float(self.intensity.max())
        finite_mz = (
            math.isfinite(self.mz[0]) and math.isfinite(self.mz[-1])
            if ascending else bool(np.isfinite(self.mz).all())
        )
        if not (finite_mz and math.isfinite(lowest + highest)):
            raise ValueError(
                f"spectrum {self.identifier!r}: mz and intensity values must be finite"
            )
        if lowest < 0:
            raise ValueError("intensities must be non-negative")
        if not ascending:
            order = np.argsort(self.mz, kind="stable")
            self.mz = self.mz[order]
            self.intensity = self.intensity[order]

    def __len__(self) -> int:
        return len(self.mz)

    @property
    def neutral_mass(self) -> float:
        """Neutral (uncharged) precursor mass in Dalton."""
        return neutral_mass_from_mz(self.precursor_mz, self.precursor_charge)

    @property
    def base_peak_intensity(self) -> float:
        """Intensity of the most intense peak (0.0 for empty spectra)."""
        return float(self.intensity.max()) if len(self.intensity) else 0.0

    @property
    def total_ion_current(self) -> float:
        """Sum of all peak intensities."""
        return float(self.intensity.sum())

    def copy_with_peaks(self, mz: np.ndarray, intensity: np.ndarray) -> "Spectrum":
        """Return a copy of this spectrum with replaced peak arrays."""
        return Spectrum(**{**vars(self), "mz": mz, "intensity": intensity})

    def _with_valid_peaks(self, mz: np.ndarray, intensity: np.ndarray) -> "Spectrum":
        """:meth:`copy_with_peaks` for peaks that already meet every invariant.

        The caller guarantees what ``__post_init__`` would check: 1-D
        float64 ``mz`` ascending, float32 ``intensity`` of the same
        length, every value finite and every intensity non-negative —
        true of a subset of a validated spectrum's peaks rescaled to
        finite non-negative values, which is what preprocessing makes.
        The result equals the validated construction; only the checks
        are skipped.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.mz, clone.intensity = mz, intensity
        return clone

    def peptide_key(self) -> Optional[str]:
        """Canonical peptide string used to compare identifications.

        Identifications from different tools are compared at the level
        of the *unmodified* sequence plus charge (open search localises
        neither the modification nor its identity).
        """
        if self.peptide is None:
            return None
        return f"{self.peptide.sequence}/{self.precursor_charge}"
