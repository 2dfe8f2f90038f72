"""Streaming ingest, append, and compaction for segmented stores.

:class:`StreamingStoreBuilder` consumes spectra one at a time —
pair it with :func:`repro.ms.iter_spectra` and only ``segment_rows``
spectra (plus one encode chunk) are ever resident — and flushes each
full buffer as a tier-0 segment through the existing
:meth:`~repro.index.library.LibraryIndex.build` pipeline (chunked
charge-bucket encode, bit-packing).
The manifest is rewritten atomically after every segment, so a crash
mid-ingest leaves a valid store holding the segments completed so far;
an exception (a malformed input file, say) instead rolls
:func:`build_store` / :func:`append_store` back to the store as it was.

Because each row's hypervector is a pure function of (spectrum,
encoding config) and segments concatenate in ingestion order, any
split of one spectrum stream across :func:`build_store` and
:func:`append_store` calls produces bit-identical packed rows — and
:func:`merge_store` compacts segments by concatenating those rows
without re-encoding, so search results survive compaction unchanged.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path
from typing import Iterable, List, Optional, Union

import numpy as np

from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..index.library import (
    DEFAULT_CHUNK_SIZE,
    IndexCompatibilityError,
    LibraryIndex,
)
from ..ms.preprocessing import EmptyLibraryError, PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig
from .manifest import (
    MANIFEST_NAME,
    SEGMENT_DIR,
    SegmentIntegrityError,
    SegmentMeta,
    StoreCompatibilityError,
    StoreManifest,
)
from .store import SegmentedStore

logger = logging.getLogger(__name__)

#: Spectra buffered per segment before a flush.
DEFAULT_SEGMENT_ROWS = 8192


class StreamingStoreBuilder:
    """Accumulate spectra into segment files, one bounded buffer at a time.

    Use :func:`build_store` / :func:`append_store` unless you need
    fine-grained control over when spectra arrive.  The builder holds
    at most ``segment_rows`` raw spectra; every flush runs the normal
    chunked charge-bucket encode and writes one tier-0 segment plus an
    updated manifest.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        space_config: Optional[HDSpaceConfig] = None,
        binning: Optional[BinningConfig] = None,
        preprocessing: Optional[PreprocessingConfig] = None,
        encoder: Optional[SpectrumEncoder] = None,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        source: str = "",
        manifest: Optional[StoreManifest] = None,
    ) -> None:
        """Open a new store (or continue an existing manifest).

        Args:
            root: Store directory (created if missing).
            space_config: HD space to encode in (ignored with ``encoder``).
            binning: Peak binning config.
            preprocessing: Spectrum preprocessing config.
            encoder: Ready encoder to share across builds.
            segment_rows: Spectra buffered per segment flush.
            chunk_size: Spectra per fused encode call inside a flush.
            source: Free-form origin recorded on each segment.
            manifest: Pass the existing manifest when appending; the
                derived configs are validated against it.

        Raises:
            ValueError: On non-positive ``segment_rows``/``chunk_size``.
            FileExistsError: When creating a fresh store over an
                existing manifest (use :func:`append_store` instead).
            StoreCompatibilityError: When appending with configs that
                disagree with the manifest.
        """
        if segment_rows < 1:
            raise ValueError(f"segment_rows must be >= 1, got {segment_rows}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.root = Path(root)
        # Mirror LibraryIndex.build's config resolution exactly so a
        # store and a monolithic index built from the same arguments
        # share provenance (and therefore encoded bits).
        binning = binning or (encoder.binning if encoder else BinningConfig())
        if encoder is None:
            space_config = space_config or HDSpaceConfig()
            space_config = dataclasses.replace(
                space_config, num_bins=binning.num_bins
            )
            encoder = SpectrumEncoder(HDSpace(space_config), binning)
        else:
            space_config = encoder.space.config
            if encoder.binning != binning:
                raise IndexCompatibilityError(
                    "encoder binning disagrees with the binning argument"
                )
        preprocessing = preprocessing or PreprocessingConfig()
        self._encoder = encoder
        self._preprocessing = preprocessing
        self._segment_rows = segment_rows
        self._chunk_size = chunk_size
        self._source = source
        if manifest is not None:
            manifest.validate_configs(space_config, binning, preprocessing)
            self.manifest = manifest
        else:
            if StoreManifest.manifest_path(self.root).exists():
                raise FileExistsError(
                    f"{self.root} already holds a store manifest; use "
                    "append_store() to add spectra to it"
                )
            self.manifest = StoreManifest.from_configs(
                space_config, binning, preprocessing
            )
        self._next_id = self.manifest.next_segment_id()
        # What abort() restores: the segments recorded at open, and the
        # directories that did not exist yet.
        self._initial_segments = len(self.manifest.segments)
        self._new_dirs = [
            path
            for path in (self.root / SEGMENT_DIR, self.root)
            if not path.exists()
        ]
        self._written: List[Path] = []
        self._buffer: List[Spectrum] = []
        self.num_ingested = 0
        self.num_dropped = 0
        self._finalized = False

    def add(self, spectrum: Spectrum) -> None:
        """Buffer one spectrum, flushing a segment when the buffer fills."""
        self._buffer.append(spectrum)
        self.num_ingested += 1
        if len(self._buffer) >= self._segment_rows:
            self._flush()

    def extend(self, spectra: Iterable[Spectrum]) -> None:
        """Stream many spectra through :meth:`add`."""
        for spectrum in spectra:
            self.add(spectrum)

    def _flush(self) -> None:
        """Encode the buffered spectra into one segment file."""
        buffer, self._buffer = self._buffer, []
        if not buffer:
            return
        try:
            index = LibraryIndex.build(
                buffer,
                encoder=self._encoder,
                preprocessing=self._preprocessing,
                chunk_size=self._chunk_size,
                source=self._source,
            )
        except EmptyLibraryError:
            # An all-dropped buffer is a legitimate streaming event:
            # skip the segment.
            self.num_dropped += len(buffer)
            logger.info(
                "segment buffer of %d spectra fully dropped by "
                "preprocessing; no segment written",
                len(buffer),
            )
            return
        self.num_dropped += len(buffer) - index.num_references
        name = f"seg-{self._next_id:06d}.npz"
        self._next_id += 1
        written = index.save(self.root / SEGMENT_DIR / name)
        self._written.append(written)
        self.manifest.segments.append(
            SegmentMeta(
                file=f"{SEGMENT_DIR}/{written.name}",
                num_references=index.num_references,
                mass_min=float(index.neutral_masses.min()),
                mass_max=float(index.neutral_masses.max()),
                tier=0,
                source=self._source,
            )
        )
        # Persist after every segment: a crash leaves a valid store
        # holding everything flushed so far.
        self.manifest.save(self.root)
        logger.info(
            "wrote %s: %d references, mass %.1f..%.1f",
            name,
            index.num_references,
            float(index.neutral_masses.min()),
            float(index.neutral_masses.max()),
        )

    def abort(self) -> None:
        """Undo every write of this builder.

        Its segment files are deleted and the manifest goes back to the
        segments it held when the builder opened — or, for a new store,
        is removed with the directories the builder created.  Nothing
        else in ``root`` is touched.
        """
        self._buffer = []
        for path in self._written:
            path.unlink(missing_ok=True)
        self._written = []
        del self.manifest.segments[self._initial_segments :]
        if self._initial_segments:
            self.manifest.save(self.root)
        else:
            StoreManifest.manifest_path(self.root).unlink(missing_ok=True)
            for path in self._new_dirs:
                if path.is_dir() and not any(path.iterdir()):
                    path.rmdir()

    def _ingest(self, spectra: Iterable[Spectrum]) -> SegmentedStore:
        """:meth:`extend` then :meth:`finalize`, all or nothing.

        An exception while reading or encoding the stream aborts the
        ingest, so the store is left as it was found.
        """
        try:
            self.extend(spectra)
            return self.finalize()
        except Exception:
            self.abort()
            raise

    def finalize(self) -> SegmentedStore:
        """Flush the tail buffer and return the opened store.

        Raises:
            ValueError: When no spectrum in the whole stream survived
                preprocessing (matching ``LibraryIndex.build``).
        """
        if self._finalized:
            return SegmentedStore.open(self.root)
        self._flush()
        if not self.manifest.segments:
            raise EmptyLibraryError()
        self.manifest.save(self.root)
        self._finalized = True
        return SegmentedStore.open(self.root)


def build_store(
    spectra: Iterable[Spectrum],
    root: Union[str, Path],
    *,
    space_config: Optional[HDSpaceConfig] = None,
    binning: Optional[BinningConfig] = None,
    preprocessing: Optional[PreprocessingConfig] = None,
    encoder: Optional[SpectrumEncoder] = None,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    source: str = "",
) -> SegmentedStore:
    """Stream ``spectra`` into a fresh segmented store at ``root``.

    Peak memory is bounded by ``segment_rows`` buffered spectra plus
    one segment's encode working set, regardless of library size.

    Returns:
        The opened store.
    """
    builder = StreamingStoreBuilder(
        root,
        space_config=space_config,
        binning=binning,
        preprocessing=preprocessing,
        encoder=encoder,
        segment_rows=segment_rows,
        chunk_size=chunk_size,
        source=source,
    )
    return builder._ingest(spectra)


def append_store(
    root: Union[str, Path],
    spectra: Iterable[Spectrum],
    *,
    space_config: Optional[HDSpaceConfig] = None,
    binning: Optional[BinningConfig] = None,
    preprocessing: Optional[PreprocessingConfig] = None,
    encoder: Optional[SpectrumEncoder] = None,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    source: str = "",
) -> SegmentedStore:
    """Append new segments to an existing store without a rebuild.

    The encoding configs are read from the manifest; any explicitly
    supplied config (or a shared ``encoder``) is validated against the
    recorded provenance first, so two libraries encoded differently can
    never end up in one store.

    Returns:
        The reopened store (old segments untouched, new ones appended).

    Raises:
        StoreCompatibilityError: On provenance mismatch or when ``root``
            holds no manifest.
    """
    manifest = StoreManifest.load(root)
    stored_space, stored_binning, stored_pre = manifest.configs()
    manifest.validate_configs(space_config, binning, preprocessing)
    if encoder is not None and encoder.space.config != stored_space:
        raise StoreCompatibilityError(
            "store provenance mismatch on append: the supplied encoder's "
            "space config disagrees with the manifest"
        )
    builder = StreamingStoreBuilder(
        root,
        space_config=stored_space,
        binning=stored_binning,
        preprocessing=stored_pre,
        encoder=encoder,
        segment_rows=segment_rows,
        chunk_size=chunk_size,
        source=source,
        manifest=manifest,
    )
    return builder._ingest(spectra)


def merge_store(
    root: Union[str, Path],
    *,
    target_rows: Optional[int] = None,
) -> SegmentedStore:
    """Compact adjacent segments without re-encoding a single row.

    Consecutive segments are greedily grouped until a group would
    exceed ``target_rows`` (``None`` merges everything into one
    segment); each multi-segment group is rewritten as one archive by
    concatenating the already-encoded packed rows, its tier set to
    ``max(input tiers) + 1``.  Grouping only ever touches *adjacent*
    segments, so the global row order — and therefore every search
    result — is bit-identical before and after.  The new manifest is
    swapped in atomically before the superseded segment files are
    unlinked.

    Returns:
        The reopened, compacted store.
    """
    root = Path(root)
    manifest = StoreManifest.load(root)
    space, binning, preprocessing = manifest.configs()

    groups: List[List[SegmentMeta]] = []
    for meta in manifest.segments:
        if (
            groups
            and target_rows is not None
            and sum(m.num_references for m in groups[-1]) + meta.num_references
            > target_rows
        ):
            groups.append([meta])
        elif not groups:
            groups.append([meta])
        else:
            groups[-1].append(meta)
    if all(len(group) == 1 for group in groups):
        return SegmentedStore.open(root)  # nothing to compact

    store = SegmentedStore(root, manifest)
    next_id = manifest.next_segment_id()
    new_segments: List[SegmentMeta] = []
    written: List[Path] = []
    for group in groups:
        if len(group) == 1:
            new_segments.append(group[0])
            continue
        try:
            # Through the store, so every file is checked against its
            # manifest entry before its rows are copied anywhere.
            parts = [store.load_segment(meta, mmap=False) for meta in group]
        except SegmentIntegrityError:
            # The manifest has not flipped; without the groups already
            # rewritten the store is exactly what it was.
            for path in written:
                path.unlink()
            raise
        merged = LibraryIndex(
            packed=np.concatenate([np.asarray(part.packed) for part in parts]),
            dim=manifest.dim,
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
            source="merge",
        )
        name = f"seg-{next_id:06d}.npz"
        next_id += 1
        path = merged.save(root / SEGMENT_DIR / name)
        written.append(path)
        new_segments.append(
            SegmentMeta(
                file=f"{SEGMENT_DIR}/{path.name}",
                num_references=merged.num_references,
                mass_min=float(merged.neutral_masses.min()),
                mass_max=float(merged.neutral_masses.max()),
                tier=max(meta.tier for meta in group) + 1,
                source="merge",
            )
        )

    old_files = {meta.file for meta in manifest.segments}
    manifest.segments = new_segments
    # Ordering is the crash-safety contract: new segments exist on disk,
    # then the manifest flips atomically, and only then do the
    # superseded files go away.  A crash at any point leaves a valid
    # store (possibly with orphaned-but-unreferenced files).
    manifest.save(root)
    for relative in old_files - {meta.file for meta in new_segments}:
        (root / relative).unlink(missing_ok=True)
    logger.info(
        "merged %d segments into %d (%s)",
        len(old_files),
        len(new_segments),
        root / MANIFEST_NAME,
    )
    return SegmentedStore.open(root)
