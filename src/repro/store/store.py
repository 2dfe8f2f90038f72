"""Read side of a segmented store: lazy segments.

:class:`SegmentedStore` opens the manifest only; segment archives are
memory-mapped on first touch (:meth:`SegmentedStore.segment`) and
cached.  The manifest's per-segment mass ranges are the hulls the
searcher routes queries by, so a window-restricted search never pays
I/O — or scorer memory — for segments it cannot match.  Per-segment
open counters make that laziness assertable in tests.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterator, List, Union

import numpy as np

from ..hdc.spaces import HDSpaceConfig
from ..index.library import LibraryIndex, ReferenceRecord
# Re-exported as ``repro.store.open_search_source``.
from ..index.library import open_search_source as open_search_source
from ..ms.preprocessing import PreprocessingConfig
from ..ms.vectorize import BinningConfig
from .manifest import (
    SegmentIntegrityError,
    SegmentMeta,
    StoreCompatibilityError,
    StoreManifest,
)


class SegmentedStore:
    """A manifest-backed library that opens segments on demand.

    Presents the provenance surface of a :class:`LibraryIndex`
    (``dim``, ``num_references``, ``provenance()``, ``summary()``,
    ``make_encoder()``) without loading a single vector until a
    segment is actually requested.
    """

    def __init__(self, root: Union[str, Path], manifest: StoreManifest) -> None:
        """Adopt a loaded manifest; prefer :meth:`open`.

        Args:
            root: The store directory holding ``manifest.json``.
            manifest: The parsed manifest for that directory.
        """
        self.root = Path(root)
        self.manifest = manifest
        self._segments: dict[int, LibraryIndex] = {}
        self._open_counts = [0] * len(manifest.segments)
        # Searchers may share one store across scoring threads; the
        # lock keeps the segment cache and its open counters exact.
        self._segment_lock = threading.Lock()

    @classmethod
    def open(cls, path: Union[str, Path]) -> "SegmentedStore":
        """Open a store from its root directory (or the manifest file)."""
        manifest_path = StoreManifest.manifest_path(path)
        return cls(manifest_path.parent, StoreManifest.load(manifest_path))

    # ------------------------------------------------------------------
    # segment access
    # ------------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Number of segment archives in the manifest."""
        return len(self.manifest.segments)

    @property
    def segment_metas(self) -> List[SegmentMeta]:
        """The manifest's segment descriptors, in global row order."""
        return list(self.manifest.segments)

    def segment(self, segment_id: int, mmap: bool = True) -> LibraryIndex:
        """Load (and cache) one segment archive.

        The per-segment open counter increments only on an actual disk
        open, not on cache hits — it measures laziness, not traffic.

        Raises:
            SegmentIntegrityError: When the file is missing, is not a
                readable index archive, or is not the segment the
                manifest describes.
        """
        index = self._segments.get(segment_id)
        if index is not None:
            return index
        with self._segment_lock:
            index = self._segments.get(segment_id)
            if index is None:
                index = self.load_segment(
                    self.manifest.segments[segment_id], mmap
                )
                self._segments[segment_id] = index
                self._open_counts[segment_id] += 1
        return index

    def load_segment(self, meta: SegmentMeta, mmap: bool) -> LibraryIndex:
        """Open one segment archive and check it against its manifest entry.

        Uncached — :meth:`segment` is the caching accessor.  Global row
        numbers, mass pruning and the query encoder all come
        from the manifest, so a file that disagrees with it would yield
        wrong PSMs rather than an error further down.
        """
        expected = (
            meta.num_references, self.manifest.dim, meta.mass_min, meta.mass_max
        )
        try:
            index = LibraryIndex.load(self.root / meta.file, mmap=mmap)
            index.validate(*self.manifest.configs())
            masses = index.neutral_masses
            found = (
                index.num_references, index.dim, float(masses.min()), float(masses.max())
            )
            if found != expected:
                raise ValueError(
                    "its (rows, dim, mass_min, mass_max) is "
                    f"{found}, the manifest says {expected}"
                )
        # ValueError: the mismatch above or IndexCompatibilityError (an
        # unreadable file, or one encoded under other configs).
        except ValueError as error:
            raise SegmentIntegrityError(
                f"segment {meta.file} cannot be used: "
                f"{type(error).__name__}: {' '.join(str(error).split())}"
            ) from error
        return index

    @property
    def offsets(self) -> np.ndarray:
        """Global row offset of each segment (manifest order)."""
        counts = [meta.num_references for meta in self.manifest.segments]
        return np.concatenate(([0], np.cumsum(counts)))[:-1].astype(np.int64)

    @property
    def open_counts(self) -> tuple:
        """Per-segment disk-open counts (the laziness assertion hook)."""
        return tuple(self._open_counts)

    def close(self) -> None:
        """Drop cached segment arrays (mmaps release with them)."""
        self._segments.clear()

    def __enter__(self) -> "SegmentedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # LibraryIndex-compatible provenance surface
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Unpacked hypervector dimensionality."""
        return self.manifest.dim

    @property
    def num_references(self) -> int:
        """Total reference rows across all segments."""
        return self.manifest.num_references

    def __len__(self) -> int:
        return self.num_references

    @property
    def space_config(self) -> HDSpaceConfig:
        """HD space the segments were encoded in."""
        return self.manifest.configs()[0]

    @property
    def binning(self) -> BinningConfig:
        """Peak binning the segments were encoded with."""
        return self.manifest.configs()[1]

    @property
    def preprocessing(self) -> PreprocessingConfig:
        """Preprocessing every segment's rows went through."""
        return self.manifest.configs()[2]

    def make_encoder(self):
        """Reconstruct the query encoder from the recorded provenance."""
        from ..hdc.encoder import SpectrumEncoder
        from ..hdc.spaces import HDSpace

        space, binning, _pre = self.manifest.configs()
        return SpectrumEncoder(HDSpace(space), binning)

    def provenance(self) -> dict:
        """Store provenance, segment list included.

        The segment list makes the service's config fingerprint — and
        therefore its result cache — roll over whenever the manifest
        changes, so a hot-reloaded route can never serve results cached
        against a stale segment set.
        """
        return self.manifest.provenance()

    def summary(self) -> str:
        """One-line human-readable description."""
        tiers = sorted({meta.tier for meta in self.manifest.segments})
        return (
            f"SegmentedStore: {self.num_references} references in "
            f"{self.num_segments} segments (tiers {tiers}), dim "
            f"{self.dim}, at {self.root}"
        )

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def iter_records(self) -> Iterator[ReferenceRecord]:
        """Yield every reference record in global row order."""
        for segment_id in range(self.num_segments):
            yield from self.segment(segment_id).records()

    def to_index(self, mmap: bool = True) -> LibraryIndex:
        """Concatenate every segment into one in-memory index.

        Convenience for tests and for workloads that fit in RAM after
        all — the resulting rows are exactly the store's global row
        order, so searches over it are bit-identical to segmented
        searches.
        """
        if self.num_segments == 0:
            raise StoreCompatibilityError(f"store at {self.root} has no segments")
        parts = [
            self.segment(segment_id, mmap=mmap)
            for segment_id in range(self.num_segments)
        ]
        space, binning, preprocessing = self.manifest.configs()
        return LibraryIndex(
            packed=np.concatenate([np.asarray(part.packed) for part in parts]),
            dim=self.dim,
            identifiers=[i for part in parts for i in part.identifiers],
            peptide_keys=[k for part in parts for k in part.peptide_keys],
            is_decoy=np.concatenate([part.is_decoy for part in parts]),
            neutral_masses=np.concatenate(
                [part.neutral_masses for part in parts]
            ),
            charges=np.concatenate([part.charges for part in parts]),
            space_config=space,
            binning=binning,
            preprocessing=preprocessing,
            source=f"store:{self.root}",
        )
