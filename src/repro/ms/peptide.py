"""Peptide model: neutral mass, precursor m/z, and b/y fragment ions.

Only what OMS needs is implemented — singly and doubly charged b/y ions
with optional modifications.  A fragment that contains the modified
residue carries the modification's mass delta; this is the physical
mechanism that lets an open search match a modified query against its
unmodified reference (roughly half the fragments still align).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..constants import PROTON_MASS, WATER_MASS
from .elements import RESIDUE_MASSES, residue_mass
from .modifications import Modification

#: Residue mass by character code; NaN where the code names no residue.
_MASS_BY_CODE = np.full(256, np.nan)
for _residue, _mass in RESIDUE_MASSES.items():
    _MASS_BY_CODE[ord(_residue)] = _mass


def _residue_masses(sequence: str) -> np.ndarray:
    """Unmodified residue masses of *sequence* from the lookup table."""
    masses = _MASS_BY_CODE[np.frombuffer(sequence.encode("utf-8"), dtype=np.uint8)]
    if np.isnan(masses).any():
        for residue in sequence:
            residue_mass(residue)  # raises the KeyError naming the residue
    return masses


@dataclass(frozen=True)
class Peptide:
    """An (optionally modified) peptide.

    Parameters
    ----------
    sequence:
        One-letter amino-acid string, N- to C-terminus.
    modifications:
        Concrete modifications placed on this peptide.  Positions are
        0-based indices into ``sequence``.
    """

    sequence: str
    modifications: Tuple[Modification, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError("peptide sequence must be non-empty")
        for mod in self.modifications:
            if mod.position >= len(self.sequence):
                raise ValueError(
                    f"modification {mod.name!r} at position {mod.position} "
                    f"outside peptide of length {len(self.sequence)}"
                )

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def is_modified(self) -> bool:
        """True if the peptide carries at least one modification."""
        return bool(self.modifications)

    def residue_masses(self) -> np.ndarray:
        """Per-residue masses including any modification deltas (Da)."""
        masses = _residue_masses(self.sequence)
        for mod in self.modifications:
            masses[mod.position] += mod.mass_delta
        return masses

    @property
    def neutral_mass(self) -> float:
        """Monoisotopic neutral mass (Da): residues + one water."""
        return float(self.residue_masses().sum()) + WATER_MASS

    def precursor_mz(self, charge: int) -> float:
        """m/z of the [M + charge*H]^charge precursor ion."""
        if charge < 1:
            raise ValueError(f"charge must be >= 1, got {charge}")
        return (self.neutral_mass + charge * PROTON_MASS) / charge

    def fragment_mzs(self, max_fragment_charge: int = 1) -> np.ndarray:
        """m/z values of all b/y fragment ions, sorted ascending."""
        return np.sort([ion[3] for ion in self.fragment_ions(max_fragment_charge)])

    def fragment_ions(
        self, max_fragment_charge: int = 1
    ) -> List[Tuple[str, int, int, float]]:
        """Annotated fragments as ``(series, index, charge, mz)``, by m/z.

        ``b_i`` and ``y_i`` for ``i = 1 .. len-1`` at fragment charges 1
        .. ``max_fragment_charge``.  A modification shifts exactly the
        fragments holding its residue: ``b_i`` covers residues ``0 ..
        i-1``, ``y_i`` residues ``len-i .. len-1`` (:func:`fragment_block`).
        """
        if max_fragment_charge < 1:
            raise ValueError(
                f"max_fragment_charge must be >= 1, got {max_fragment_charge}"
            )
        neutral, sites = fragment_block([self])[0], len(self) - 1
        ions = [
            (series, index, charge, (neutral[start + index - 1] + charge * PROTON_MASS) / charge)
            for charge in range(1, max_fragment_charge + 1)
            for series, start in (("b", 0), ("y", sites))
            for index in range(1, sites + 1)
        ]
        ions.sort(key=lambda ion: ion[3])
        return ions

    def with_modification(self, modification: Modification) -> "Peptide":
        """Return a copy of this peptide with one more modification."""
        return Peptide(self.sequence, self.modifications + (modification,))

    def unmodified(self) -> "Peptide":
        """Return the unmodified form of this peptide."""
        if not self.modifications:
            return self
        return Peptide(self.sequence)

    def proforma(self) -> str:
        """Render a ProForma-like string, e.g. ``PEPT[Phospho]IDE``."""
        if not self.modifications:
            return self.sequence
        by_position = {mod.position: mod for mod in self.modifications}
        parts: List[str] = []
        for index, residue in enumerate(self.sequence):
            parts.append(residue)
            if index in by_position:
                parts.append(f"[{by_position[index].name}]")
        return "".join(parts)


def fragment_block(peptides: Sequence[Peptide]) -> np.ndarray:
    """Neutral b and y fragment masses of a block of peptides, padded.

    Row ``i`` holds ``b_1 .. b_{n-1}`` (prefix sums) from column 0 and
    ``y_1 .. y_{n-1}`` (suffix sums plus water) from column ``w``, for
    ``n`` the length of peptide ``i`` and ``w`` the longest length less
    one; unused columns are ``+inf``.
    """
    lengths = np.array([len(peptide) for peptide in peptides], dtype=np.int64)
    columns = np.arange(int(lengths.max(initial=1)))
    inside = columns < lengths[:, None]
    masses = np.zeros(inside.shape)
    masses[inside] = _residue_masses("".join(p.sequence for p in peptides))
    for row, peptide in enumerate(peptides):
        for mod in peptide.modifications:
            masses[row, mod.position] += mod.mass_delta
    # y ions sum the residues from the C-terminus: each row reversed.
    reverse = np.zeros_like(masses)
    reverse[inside] = masses[
        np.repeat(np.arange(len(peptides)), lengths),
        (lengths[:, None] - 1 - columns)[inside],
    ]
    neutral = np.concatenate(
        [np.cumsum(masses, axis=1)[:, :-1], np.cumsum(reverse, axis=1)[:, :-1] + WATER_MASS],
        axis=1,
    )
    neutral[~np.tile(inside[:, 1:], 2)] = np.inf
    return neutral


def neutral_mass_from_mz(precursor_mz: float, charge: int) -> float:
    """Invert :meth:`Peptide.precursor_mz`: neutral mass from m/z."""
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    return precursor_mz * charge - charge * PROTON_MASS
