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

import functools
import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .peptide import Peptide
from .spectrum import Spectrum

#: Decoys :func:`iter_decoys` simulates per block.
DECOY_BLOCK = 128


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
    never loads :mod:`repro.ms.synthetic`.  The factory's ``block``
    attribute simulates many decoys in one call (:func:`iter_decoys`).
    """
    from .synthetic import REFERENCE_NOISE, SpectrumSimulator

    simulator = SpectrumSimulator(seed=seed)

    def factory(peptide: Peptide, charge: int, identifier: str) -> Spectrum:
        """Generate one simulated decoy spectrum."""
        return simulator.spectrum(peptide, charge, identifier, noise=REFERENCE_NOISE)

    factory.block = functools.partial(simulator.spectra, noise=REFERENCE_NOISE)
    return factory


def _decoy_peptide(reference: Spectrum, rng: random.Random, method: str) -> Optional[Peptide]:
    """The decoy peptide of *reference*: None without a peptide or a new sequence."""
    if reference.is_decoy or reference.peptide is None:
        return None
    sequence = reference.peptide.sequence
    if method == "shuffle":
        decoy_sequence = shuffle_sequence(sequence, rng)
    elif method == "reverse":
        decoy_sequence = reverse_sequence(sequence)
    else:
        raise ValueError(f"unknown decoy method {method!r}")
    return None if decoy_sequence == sequence else Peptide(decoy_sequence)


def iter_decoys(
    references: Iterable[Spectrum],
    spectrum_factory: Callable[[Peptide, int, str], Spectrum],
    seed: int = 0,
    method: str = "shuffle",
) -> Iterator[Spectrum]:
    """Yield one decoy per target of *references* (where possible), in order.

    ``method`` is ``"shuffle"`` (default) or ``"reverse"``; one
    ``random.Random(seed)`` shuffles every target sequence in turn.
    ``spectrum_factory`` is ``(peptide, charge, identifier) ->
    Spectrum``, typically the simulator, so decoys share the targets'
    peak statistics; its ``block`` attribute, when it has one, simulates
    ``DECOY_BLOCK`` decoys per call.  Only one block is resident, so
    *references* may be a stream.  A target without a peptide, or whose
    decoy sequence collapses onto its own, gets no decoy.
    """
    rng = random.Random(seed)
    simulate = getattr(spectrum_factory, "block", None) or (
        lambda *columns: [spectrum_factory(*decoy) for decoy in zip(*columns)]
    )
    planned: List[Tuple[Peptide, int, str]] = []
    for reference in references:
        peptide = _decoy_peptide(reference, rng, method)
        if peptide is not None:
            planned.append(
                (peptide, reference.precursor_charge, f"DECOY_{reference.identifier}")
            )
            if len(planned) >= DECOY_BLOCK:
                yield from _simulated(simulate, planned)
    yield from _simulated(simulate, planned)


def _simulated(simulate, planned: List[Tuple[Peptide, int, str]]) -> List[Spectrum]:
    """The decoy spectra of *planned*, which is emptied."""
    decoys = simulate(*zip(*planned)) if planned else []
    planned.clear()
    for decoy in decoys:
        decoy.is_decoy = True
    return decoys


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
    references = list(references)
    return references + list(iter_decoys(references, spectrum_factory, seed, method))
