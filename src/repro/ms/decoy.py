"""Decoy library generation for target-decoy FDR estimation.

The FDR filter (paper Section 3.4) "introduces non-existing decoy
spectra into the spectral library".  The standard construction — and the
one ANN-SoLo/HyperOMS use — is the *shuffled* decoy: permute the peptide
sequence while pinning the C-terminal residue (tryptic peptides end in
K/R, and y1 ions would otherwise betray the decoy), then regenerate a
theoretical spectrum.  Precursor mass is preserved exactly because the
residue multiset is unchanged.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from .peptide import Peptide
from .spectrum import Spectrum


def shuffle_sequence(
    sequence: str, rng: random.Random, max_attempts: int = 20
) -> str:
    """Shuffle all residues but the last; avoid returning the original.

    For degenerate sequences (e.g. ``"AAK"``) where every permutation
    equals the original, the original is returned — callers may drop
    such decoys.
    """
    if len(sequence) <= 2:
        return sequence
    prefix = list(sequence[:-1])
    for _ in range(max_attempts):
        rng.shuffle(prefix)
        candidate = "".join(prefix) + sequence[-1]
        if candidate != sequence:
            return candidate
    return "".join(prefix) + sequence[-1]


def reverse_sequence(sequence: str) -> str:
    """Pseudo-reverse decoy: reverse all residues but the C-terminal one."""
    if len(sequence) <= 2:
        return sequence
    return sequence[-2::-1] + sequence[-1]


def decoy_factory(seed: int) -> Callable[[Peptide, int, str], Spectrum]:
    """The simulator-backed decoy spectrum factory, seeded with *seed*.

    Decoys must look statistically like targets, so they are synthesised
    by the same simulator as a synthetic workload's spectra (pass the
    workload's ``config.seed`` to reproduce its generation model).  The
    simulator is imported here, so a caller that never builds decoys
    never loads :mod:`repro.ms.synthetic`.
    """
    from .synthetic import REFERENCE_NOISE, SpectrumSimulator

    simulator = SpectrumSimulator(seed=seed)

    def factory(peptide: Peptide, charge: int, identifier: str) -> Spectrum:
        """Generate one simulated decoy spectrum."""
        return simulator.spectrum(
            peptide, charge, identifier, noise=REFERENCE_NOISE
        )

    return factory


def make_decoy_spectrum(
    reference: Spectrum,
    spectrum_factory: Callable[[Peptide, int, str], Spectrum],
    rng: random.Random,
    method: str = "shuffle",
) -> Optional[Spectrum]:
    """Build a decoy spectrum from a target library entry.

    Parameters
    ----------
    reference:
        The target spectrum (must carry a peptide annotation).
    spectrum_factory:
        ``(peptide, charge, identifier) -> Spectrum``; typically the
        synthetic generator's theoretical-spectrum builder, so decoys
        share the targets' peak statistics.
    method:
        ``"shuffle"`` (default) or ``"reverse"``.

    Returns None when the reference has no peptide or the decoy sequence
    collapses onto the target sequence.
    """
    if reference.peptide is None:
        return None
    sequence = reference.peptide.sequence
    if method == "shuffle":
        decoy_sequence = shuffle_sequence(sequence, rng)
    elif method == "reverse":
        decoy_sequence = reverse_sequence(sequence)
    else:
        raise ValueError(f"unknown decoy method {method!r}")
    if decoy_sequence == sequence:
        return None
    decoy = spectrum_factory(
        Peptide(decoy_sequence),
        reference.precursor_charge,
        f"DECOY_{reference.identifier}",
    )
    decoy.is_decoy = True
    return decoy


def append_decoys(
    references: Sequence[Spectrum],
    spectrum_factory: Callable[[Peptide, int, str], Spectrum],
    seed: int = 0,
    method: str = "shuffle",
) -> List[Spectrum]:
    """Return ``references`` plus one decoy per target (where possible).

    The result keeps all targets first, then decoys, preserving input
    order within each group — convenient for tests and deterministic
    given ``seed``.
    """
    rng = random.Random(seed)
    decoys: List[Spectrum] = []
    for reference in references:
        if reference.is_decoy:
            continue
        decoy = make_decoy_spectrum(reference, spectrum_factory, rng, method)
        if decoy is not None:
            decoys.append(decoy)
    return list(references) + decoys
