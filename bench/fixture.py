"""Seeded inputs, the brute-force oracle, and answer checking.

Inputs are a pure function of ``--seed`` (and ``--scale``): a synthetic
library, an append library of further peptides, and query spectra of
which 45% carry a modification and 10% are foreign to the library.
They are written to MSP/MGF files and *read back*, because the files
round coordinates and the program under test only ever sees the files:
the oracle must score exactly what the program scores.

The oracle is :class:`repro.oms.HDOmsSearcher` — per-query brute force,
the one engine every other composition is required to equal.  It scores
with the bit-packed backend: the same integers as the dense backend the
program defaults to, by different arithmetic, and several times faster,
which is what lets a run check every answer it receives.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.constants import DEFAULT_FDR_THRESHOLD
from repro.index import LibraryIndex
from repro.ms.mgf import read_mgf, write_mgf
from repro.ms.msp import write_msp
from repro.ms.spectrum import Spectrum
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.oms import HDOmsSearcher, HDSearchConfig, PSM, PackedBackend, grouped_fdr
from repro.store import SegmentedStore

#: Library targets at ``--scale 1`` (the CLI adds one decoy per target).
LIBRARY_TARGETS = 1500

#: Rows per segment of the segmented store (6 segments at scale 1).
SEGMENT_ROWS = 500

MODIFIED_SHARE = 0.45
FOREIGN_SHARE = 0.10


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """``count`` scaled by ``--scale``, never below ``minimum``."""
    return max(minimum, int(round(count * scale)))


@dataclass
class Inputs:
    """What one seed generates, before anything is written.

    Attributes:
        library: Target reference spectra of the base library.
        extra: Further target spectra, disjoint from ``library`` (the
            append library of ``ingest_append_merge``).
        queries: Query spectra, shuffled (modified, unmodified and
            foreign interleaved).
        modified: Identifiers of the queries that carry a modification.
    """

    library: List[Spectrum]
    extra: List[Spectrum]
    queries: List[Spectrum]
    modified: Set[str]


def generate(seed: int, targets: int, queries: int, extra: int = 0) -> Inputs:
    """Build the inputs for ``seed``.

    The first ``targets`` references do not depend on ``queries`` or
    ``extra``: the peptide sampler draws references first, in order, so
    every workload of one seed searches the same library.
    """
    workload = build_workload(
        WorkloadConfig(
            name=f"s{seed}",
            num_references=targets + extra,
            num_queries=queries,
            seed=seed,
            modification_probability=MODIFIED_SHARE,
            foreign_fraction=FOREIGN_SHARE,
        )
    )
    modified = {
        query.identifier
        for query in workload.queries
        if query.peptide is not None and query.peptide.is_modified
    }
    return Inputs(
        library=workload.references[:targets],
        extra=workload.references[targets:],
        queries=workload.queries,
        modified=modified,
    )


def write_library(spectra: Sequence[Spectrum], path: Path) -> Path:
    """Write reference spectra as an MSP library."""
    write_msp(spectra, path)
    return path


def write_queries(spectra: Sequence[Spectrum], path: Path) -> List[Spectrum]:
    """Write queries as MGF and return them as the program will read them."""
    write_mgf(spectra, path)
    return list(read_mgf(path))


def load_index(path: Path) -> LibraryIndex:
    """The rows the program built at ``path``: an ``.npz`` index or a store."""
    if path.is_dir():
        with SegmentedStore.open(path) as store:
            return store.to_index()
    return LibraryIndex.load(path)


def chunks(items: Sequence, size: int) -> List[Sequence]:
    """Split ``items`` into consecutive chunks of ``size`` (last may be short)."""
    return [items[i : i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# oracle and checking
# ----------------------------------------------------------------------


class Oracle:
    """Brute-force expected answers over one built index."""

    def __init__(self, index, mode: str, query_ber: float = 0.0) -> None:
        self.searcher = HDOmsSearcher.from_index(
            index,
            config=HDSearchConfig(mode=mode, query_ber=query_ber),
            backend=PackedBackend(),
        )

    def expect(self, queries: Sequence[Spectrum]) -> Dict[str, Optional[PSM]]:
        """Expected PSM (or ``None`` for "no match") per query identifier."""
        return answers(self.searcher.search(list(queries)).psms, queries)


def answers(
    psms: Iterable[Optional[PSM]], queries: Sequence[Spectrum]
) -> Dict[str, Optional[PSM]]:
    """``query_id -> PSM`` over ``queries``; ``None`` where no PSM came back."""
    by_query: Dict[str, Optional[PSM]] = {q.identifier: None for q in queries}
    for psm in psms:
        if psm is not None:
            by_query[psm.query_id] = psm
    return by_query


def accepted_at_fdr(psms: Iterable[Optional[PSM]]) -> List[PSM]:
    """The PSMs accepted at the CLI's default 1% grouped FDR.

    Works on copies: the FDR filter writes q-values into its input.
    """
    copies = [dataclasses.replace(psm) for psm in psms if psm is not None]
    return grouped_fdr(copies, DEFAULT_FDR_THRESHOLD)


class Checker:
    """Counts answers that agree with the oracle, and remembers the rest."""

    def __init__(self) -> None:
        self.checked = 0
        self.agreed = 0
        self.mismatches: List[str] = []

    @property
    def agreement(self) -> float:
        """Share of checked answers equal to the oracle's (1.0 if none)."""
        return self.agreed / self.checked if self.checked else 1.0

    def _record(self, query_id: str, same: bool, got: object, want: object) -> None:
        self.checked += 1
        if same:
            self.agreed += 1
        elif len(self.mismatches) < 5:
            self.mismatches.append(f"{query_id}: got {got!r}, expected {want!r}")

    def check_psms(
        self,
        expected: Dict[str, Optional[PSM]],
        got: Dict[str, Optional[PSM]],
    ) -> None:
        """Full-PSM comparison (HTTP replies, CLI JSONL streams).

        Every expected query is checked; one the program never answered
        counts as a disagreement, not as a skipped check.
        """
        missing = object()
        for query_id, want in expected.items():
            have = got.get(query_id, missing)
            self._record(query_id, have is not missing and have == want, have, want)

    def check_tsv(self, expected: Dict[str, Optional[PSM]], tsv: Path) -> int:
        """Compare an accepted-PSM TSV with the oracle's accepted set.

        A query agrees when its TSV row names the oracle's reference,
        score and mode, or when both sides leave it out.  Returns the
        number of rows in the TSV (identifications at 1% FDR).
        """
        want = {
            psm.query_id: (psm.reference_id, round(psm.score, 1), psm.mode)
            for psm in accepted_at_fdr(expected.values())
        }
        have = read_tsv(tsv)
        for query_id in expected:
            self._record(
                query_id,
                have.get(query_id) == want.get(query_id),
                have.get(query_id),
                want.get(query_id),
            )
        return len(have)


def read_tsv(path: Path) -> Dict[str, tuple]:
    """``query_id -> (reference_id, score, mode)`` from a CLI PSM TSV.

    Columns are found by header name, so added columns do not matter.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    column = {name: header.index(name) for name in ("query_id", "reference_id", "score", "mode")}
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        rows[cells[column["query_id"]]] = (
            cells[column["reference_id"]],
            float(cells[column["score"]]),
            cells[column["mode"]],
        )
    return rows


def read_jsonl(path: Path, queries: Sequence[Spectrum]) -> Dict[str, Optional[PSM]]:
    """``query_id -> PSM`` from a CLI JSONL stream (absent = no match)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return answers(
        (PSM.from_dict(json.loads(line)) for line in lines if line.strip()), queries
    )


def corrupt(expected: Dict[str, Optional[PSM]]) -> None:
    """Falsify one expected PSM in place (the self-check's negative control)."""
    targets = [psm for psm in expected.values() if psm is not None and not psm.is_decoy]
    if not targets:
        raise ValueError("no expected PSM to corrupt")
    # The best-scoring target is accepted at any FDR, so the falsified
    # row is visible to the TSV check as well as to the full-PSM check.
    victim = max(targets, key=lambda psm: psm.score)
    expected[victim.query_id] = dataclasses.replace(
        victim, reference_id=victim.reference_id + "-corrupted"
    )
