"""Precursor-mass candidate selection (the "open" in open search).

A standard search compares a query only against references whose
precursor mass lies within a tight tolerance; OMS widens that window to
hundreds of Dalton so modified peptides (whose precursor is shifted by
the PTM mass) still meet their unmodified reference (paper Section 1).

The index pre-partitions references by precursor charge (both HyperOMS
and ANN-SoLo match charge states) and keeps a sorted neutral-mass array
per charge for O(log n) window queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..constants import DEFAULT_OPEN_WINDOW_DA, DEFAULT_STANDARD_WINDOW_DA
from ..ms.spectrum import Spectrum

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..ann import AnnConfig

#: Queries encoded per fused ``encode_batch`` call inside ``search``.
ENCODE_BLOCK_SIZE = 256

#: Target working-set bytes of one scoring block (reference rows
#: gathered / XORed at a time).  Sized to sit inside a typical L2
#: cache slice so the gather + reduce stays cache-resident; the row
#: count is derived per backend from its bytes-per-row.
SCORE_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class WindowConfig:
    """Precursor window widths for the two search modes (in Dalton)."""

    standard_tolerance_da: float = DEFAULT_STANDARD_WINDOW_DA
    open_window_da: float = DEFAULT_OPEN_WINDOW_DA
    charge_aware: bool = True

    def __post_init__(self) -> None:
        if self.standard_tolerance_da <= 0 or self.open_window_da <= 0:
            raise ValueError("window widths must be > 0")
        if self.open_window_da < self.standard_tolerance_da:
            raise ValueError("open window must be at least the standard window")

    def half_width(self, mode: str) -> float:
        """Precursor window half-width (Da) of one ``standard``/``open`` pass."""
        if mode == "standard":
            return self.standard_tolerance_da
        return self.open_window_da


@dataclass(frozen=True)
class HDSearchConfig:
    """Search-stage knobs.

    ``mode`` is ``"open"`` (the paper's setting), ``"standard"``, or
    ``"cascade"`` (standard first, open only when the narrow window
    yields nothing).  ``query_ber`` / ``reference_ber`` inject random
    sign flips into query/stored hypervectors (Figure 11's x-axis).

    ``ann`` (optional :class:`~repro.ann.AnnConfig`) enables the
    truncated-precision candidate pass: windows of at least
    ``ann.ann_threshold`` rows are shortlisted on a row prefix and only
    the shortlist is scored exactly.  ``min_candidates`` always gates
    on the *full* window size, not the shortlist size.
    """

    mode: str = "open"
    query_ber: float = 0.0
    reference_ber: float = 0.0
    noise_seed: int = 1234
    min_candidates: int = 1
    ann: Optional[AnnConfig] = None

    def __post_init__(self) -> None:
        """Validate mode and bit-error rates."""
        if self.mode not in ("open", "standard", "cascade"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        for rate in (self.query_ber, self.reference_ber):
            if not 0 <= rate <= 1:
                raise ValueError("bit error rates must be in [0, 1]")


class CandidateIndex:
    """Sorted precursor-mass index over a reference library.

    ``select`` returns *positions into the original reference sequence*
    so callers can slice their encoded hypervector matrices directly.
    """

    def __init__(
        self,
        references: Sequence[Spectrum],
        config: Optional[WindowConfig] = None,
    ) -> None:
        self.config = config or WindowConfig()
        self.num_references = len(references)
        self._by_charge: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        masses = np.array([ref.neutral_mass for ref in references])
        charges = np.array([ref.precursor_charge for ref in references])
        if self.config.charge_aware:
            for charge in sorted(set(charges.tolist())):
                positions = np.flatnonzero(charges == charge)
                order = np.argsort(masses[positions], kind="stable")
                self._by_charge[charge] = (
                    masses[positions][order],
                    positions[order],
                )
        else:
            order = np.argsort(masses, kind="stable")
            self._by_charge[0] = (masses[order], np.arange(len(references))[order])

    def _bucket(self, charge: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        key = charge if self.config.charge_aware else 0
        return self._by_charge.get(key)

    def select_window(
        self, neutral_mass: float, charge: int, half_width_da: float
    ) -> np.ndarray:
        """Positions of references with |mass - neutral_mass| <= half_width."""
        bucket = self._bucket(charge)
        if bucket is None:
            return np.empty(0, dtype=np.int64)
        sorted_masses, positions = bucket
        low = np.searchsorted(sorted_masses, neutral_mass - half_width_da, "left")
        high = np.searchsorted(sorted_masses, neutral_mass + half_width_da, "right")
        return positions[low:high]

    def select_standard(self, query: Spectrum) -> np.ndarray:
        """Narrow-window candidates for *query* (unmodified matches)."""
        return self.select_window(
            query.neutral_mass,
            query.precursor_charge,
            self.config.standard_tolerance_da,
        )

    def select_open(self, query: Spectrum) -> np.ndarray:
        """Wide-window candidates for *query* (modified matches too)."""
        return self.select_window(
            query.neutral_mass,
            query.precursor_charge,
            self.config.open_window_da,
        )

    def average_candidates(
        self, queries: Sequence[Spectrum], mode: str = "open"
    ) -> float:
        """Mean candidate-set size over *queries* (workload statistics)."""
        if not queries:
            return 0.0
        select = self.select_open if mode == "open" else self.select_standard
        return float(np.mean([len(select(query)) for query in queries]))
