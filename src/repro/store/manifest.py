"""JSON manifest describing a segmented library store.

A store is a directory::

    mystore/
      manifest.json
      segments/
        seg-000000.npz
        seg-000001.npz
        ...

Each segment file is a standard :class:`~repro.index.library.LibraryIndex`
archive (so every existing loader, memory-mapper, and provenance check
applies unchanged); the manifest records the encoding provenance once
plus, per segment, the row count, the precursor neutral-mass range, the
compaction tier, and the ingest source.  Global library row order is
the concatenation of segments in manifest order — appending segments
never reorders existing rows, which is what makes incremental builds
bit-identical to from-scratch builds.

The manifest is always rewritten atomically (temp file + ``os.replace``
in the same directory), and ingest flushes it after every segment
write, so a crash mid-build leaves a valid store containing the
segments completed so far.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..hdc.spaces import HDSpaceConfig
from ..index.library import (
    INDEX_FORMAT_VERSION,
    MANIFEST_NAME,
    IndexCompatibilityError,
)
from ..ms.preprocessing import PreprocessingConfig
from ..ms.vectorize import BinningConfig

#: Bumped when the manifest layout or the encoding changes incompatibly
#: (2: follows index format version 2's new ID codebook).
STORE_FORMAT_VERSION = 2

#: The subdirectory holding segment archives.
SEGMENT_DIR = "segments"


class StoreCompatibilityError(IndexCompatibilityError):
    """A store's recorded provenance conflicts with the requested config.

    A store is the segmented flavour of an index, so whoever handles an
    unreadable or mismatched index handles this too.
    """


class SegmentIntegrityError(StoreCompatibilityError):
    """A segment file is missing, unreadable, or not the one the manifest names."""


@dataclass(frozen=True)
class SegmentMeta:
    """One segment's row count, precursor-mass range, and lineage.

    Attributes:
        file: Path of the archive, relative to the store root.
        num_references: Rows in this segment.
        mass_min: Smallest reference neutral mass in the segment.
        mass_max: Largest reference neutral mass in the segment.
        tier: Compaction generation — ``0`` for freshly ingested
            segments, ``max(inputs) + 1`` after a merge.
        source: Free-form ingest origin (library path, ``"merge"``).
    """

    file: str
    num_references: int
    mass_min: float
    mass_max: float
    tier: int = 0
    source: str = ""

    def to_dict(self) -> dict:
        """JSON-safe dict form (manifest serialization)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentMeta":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            file=str(payload["file"]),
            num_references=int(payload["num_references"]),
            mass_min=float(payload["mass_min"]),
            mass_max=float(payload["mass_max"]),
            tier=int(payload.get("tier", 0)),
            source=str(payload.get("source", "")),
        )


class StoreManifest:
    """In-memory form of ``manifest.json`` with atomic persistence."""

    def __init__(
        self,
        *,
        dim: int,
        space: Dict,
        binning: Dict,
        preprocessing: Dict,
        segments: Optional[List[SegmentMeta]] = None,
    ) -> None:
        self.dim = int(dim)
        self.space = dict(space)
        self.binning = dict(binning)
        self.preprocessing = dict(preprocessing)
        self.segments: List[SegmentMeta] = list(segments or [])

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------

    @classmethod
    def from_configs(
        cls,
        space_config: HDSpaceConfig,
        binning: BinningConfig,
        preprocessing: PreprocessingConfig,
    ) -> "StoreManifest":
        """Create an empty manifest recording the given provenance."""
        return cls(
            dim=space_config.dim,
            space=dataclasses.asdict(space_config),
            binning=dataclasses.asdict(binning),
            preprocessing=dataclasses.asdict(preprocessing),
        )

    @classmethod
    def manifest_path(cls, path: Union[str, Path]) -> Path:
        """Resolve a store root or manifest file to the manifest path."""
        path = Path(path)
        if path.name == MANIFEST_NAME:
            return path
        return path / MANIFEST_NAME

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StoreManifest":
        """Load a manifest from a store root (or the file itself).

        Raises:
            StoreCompatibilityError: Naming the manifest path when the
                file is missing, not a JSON object, or has a missing or
                wrongly typed field or another format version.
        """
        manifest_path = cls.manifest_path(path)
        try:
            payload = json.loads(manifest_path.read_text(encoding="utf-8"))
            version = payload.get("format_version")  # AttributeError: not an object
            if version != STORE_FORMAT_VERSION:
                raise StoreCompatibilityError(
                    f"store format version mismatch: {manifest_path} has "
                    f"{version!r}, this build reads {STORE_FORMAT_VERSION}: "
                    "rebuild the index"
                )
            manifest = cls(
                dim=payload["dim"],
                space=payload["space"],
                binning=payload["binning"],
                preprocessing=payload["preprocessing"],
                segments=[SegmentMeta.from_dict(s) for s in payload["segments"]],
            )
            manifest.configs()  # a bad config field fails here, not mid-search
        except FileNotFoundError:
            raise StoreCompatibilityError(
                f"{manifest_path.parent} is not a segmented store "
                f"(no {MANIFEST_NAME})"
            ) from None
        except StoreCompatibilityError:
            raise
        # Unreadable bytes or JSON (OSError, ValueError), or a wrong shape.
        except (OSError, ValueError, AttributeError, KeyError, TypeError) as error:
            raise StoreCompatibilityError(
                f"{manifest_path} is not a usable manifest: {type(error).__name__}: {error}"
            ) from None
        return manifest

    def to_dict(self) -> dict:
        """JSON-safe dict form of the whole manifest."""
        return {
            "format_version": STORE_FORMAT_VERSION,
            "index_format_version": INDEX_FORMAT_VERSION,
            "dim": self.dim,
            "space": self.space,
            "binning": self.binning,
            "preprocessing": self.preprocessing,
            "segments": [meta.to_dict() for meta in self.segments],
        }

    def save(self, root: Union[str, Path]) -> Path:
        """Atomically write ``manifest.json`` under ``root``.

        The temp file lives in the same directory so ``os.replace`` is
        a same-filesystem atomic rename: readers only ever observe the
        old or the new manifest, never a partial write.
        """
        root = Path(root)
        target = self.manifest_path(root)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, target)
        return target

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------

    def configs(
        self,
    ) -> Tuple[HDSpaceConfig, BinningConfig, PreprocessingConfig]:
        """Reconstruct the dataclass configs the manifest records."""
        return (
            HDSpaceConfig(**self.space),
            BinningConfig(**self.binning),
            PreprocessingConfig(**self.preprocessing),
        )

    def validate_configs(
        self,
        space_config: Optional[HDSpaceConfig] = None,
        binning: Optional[BinningConfig] = None,
        preprocessing: Optional[PreprocessingConfig] = None,
    ) -> None:
        """Reject configs that disagree with the recorded provenance.

        Only the arguments actually supplied are checked, so callers
        can pass through user overrides untouched.

        Raises:
            StoreCompatibilityError: Naming every mismatched section.
        """
        stored_space, stored_binning, stored_pre = self.configs()
        mismatches = []
        if space_config is not None and space_config != stored_space:
            mismatches.append("space")
        if binning is not None and binning != stored_binning:
            mismatches.append("binning")
        if preprocessing is not None and preprocessing != stored_pre:
            mismatches.append("preprocessing")
        if mismatches:
            raise StoreCompatibilityError(
                "store provenance mismatch on append: requested config "
                f"disagrees with the manifest in {mismatches}"
            )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Total rows across all segments, in manifest order."""
        return sum(meta.num_references for meta in self.segments)

    def next_segment_id(self) -> int:
        """Smallest id larger than any segment file ever recorded."""
        highest = -1
        for meta in self.segments:
            stem = Path(meta.file).stem
            try:
                highest = max(highest, int(stem.split("-")[-1]))
            except ValueError:
                continue
        return highest + 1

    def provenance(self) -> dict:
        """Config + segment provenance (feeds the cache fingerprint).

        Includes the segment list so a route's fingerprint — and
        therefore its result cache — changes whenever the manifest
        gains, loses, or rewrites segments.
        """
        return {
            "store_format_version": STORE_FORMAT_VERSION,
            "format_version": INDEX_FORMAT_VERSION,
            "dim": self.dim,
            "space": self.space,
            "binning": self.binning,
            "preprocessing": self.preprocessing,
            "num_references": self.num_references,
            "segments": [meta.to_dict() for meta in self.segments],
        }
