"""Build, persist, and reload an encoded spectral-library index.

A :class:`LibraryIndex` is the on-disk unit of the build-once /
search-many workflow:

* hypervectors are encoded in chunks, one precursor-charge bucket at a
  time (mirroring how the batched searcher and the accelerator schedule
  the library), straight to *bit-packed* rows in the
  :func:`~repro.hdc.packing.pack_bipolar` layout the digital search path
  uses — 8x smaller than an int8 bipolar matrix, which is never formed;
* per-reference metadata (identifier, canonical peptide key, decoy
  flag, neutral mass, charge) rides along so a searcher reconstructed
  from the index produces byte-identical PSMs without the original
  :class:`~repro.ms.spectrum.Spectrum` objects;
* the exact :class:`~repro.hdc.spaces.HDSpaceConfig`,
  :class:`~repro.ms.vectorize.BinningConfig` and
  :class:`~repro.ms.preprocessing.PreprocessingConfig` are serialised as
  provenance and re-validated on load, so an index can never be silently
  searched with an incompatible encoder.

The file format is a plain uncompressed ``.npz``; :meth:`LibraryIndex.load`
memory-maps the packed bit matrix straight out of the archive (falling
back to a normal read if the member layout does not allow it), so a
multi-gigabyte library costs near-zero load time and processes that
open the same file (``repro serve`` workers, say) share the OS page
cache.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ann import AnnConfig, AnnRows
from ..hdc.encoder import SpectrumEncoder, encode_packed_rows
from ..hdc.packing import unpack_bipolar
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..ms.preprocessing import EmptyLibraryError, PreprocessingConfig, preprocess_many
from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig

logger = logging.getLogger(__name__)

#: Bump when the on-disk layout or the encoding changes incompatibly
#: (2: the ID codebook is drawn from one generator, so every
#: hypervector differs from version 1's).
INDEX_FORMAT_VERSION = 2

#: Default number of spectra encoded per ``encode_batch`` call.
DEFAULT_CHUNK_SIZE = 512

#: The manifest file of a segmented store directory (:mod:`repro.store`).
MANIFEST_NAME = "manifest.json"


class IndexCompatibilityError(ValueError):
    """A persisted index does not match the requested configuration."""


@dataclass(frozen=True)
class ReferenceRecord:
    """Searchable metadata of one indexed reference spectrum.

    Quacks like :class:`~repro.ms.spectrum.Spectrum` for everything the
    search path touches (``identifier``, ``peptide_key()``, ``is_decoy``,
    ``neutral_mass``, ``precursor_charge``) without carrying peak arrays.
    """

    identifier: str
    peptide: Optional[str]
    is_decoy: bool
    neutral_mass: float
    precursor_charge: int

    def peptide_key(self) -> Optional[str]:
        """Canonical peptide string (already includes the charge)."""
        return self.peptide


def _config_to_dict(config) -> dict:
    return dataclasses.asdict(config)


def _mmap_npz_array(path: Path, member: str) -> Optional[np.ndarray]:
    """Memory-map one array member of an uncompressed ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request
    for zipped archives, so we locate the stored member ourselves: find
    its local file header, skip it, parse the ``.npy`` header, and map
    the raw data region.  Returns None when mapping is not possible
    (compressed member, Fortran order, unexpected format version) so the
    caller can fall back to a regular read.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            header_offset = info.header_offset
        with open(path, "rb") as handle:
            handle.seek(header_offset)
            local_header = handle.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                return None
            name_length, extra_length = struct.unpack(
                "<HH", local_header[26:30]
            )
            handle.seek(header_offset + 30 + name_length + extra_length)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                    handle
                )
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                    handle
                )
            else:
                return None
            if fortran or dtype.hasobject:
                return None
            data_offset = handle.tell()
        return np.memmap(
            path, dtype=dtype, mode="r", offset=data_offset, shape=shape
        )
    except (OSError, KeyError, ValueError):
        return None


class LibraryIndex:
    """A persisted encoded reference library plus its provenance.

    Construct via :meth:`build` (from spectra) or :meth:`load` (from
    disk); instances are immutable in spirit — searchers only read.
    """

    def __init__(
        self,
        packed: np.ndarray,
        dim: int,
        identifiers: Sequence[str],
        peptide_keys: Sequence[Optional[str]],
        is_decoy: np.ndarray,
        neutral_masses: np.ndarray,
        charges: np.ndarray,
        space_config: HDSpaceConfig,
        binning: BinningConfig,
        preprocessing: PreprocessingConfig,
        source: str = "",
    ) -> None:
        """Adopt ready-made arrays; prefer :meth:`build` / :meth:`load`.

        Args:
            packed: ``(n, ceil(dim / 8))`` uint8 bit-packed hypervectors.
            dim: Unpacked hypervector dimensionality.
            identifiers: Per-row spectrum identifiers.
            peptide_keys: Per-row canonical peptide keys (None allowed).
            is_decoy: Per-row decoy flags.
            neutral_masses: Per-row neutral masses in Da.
            charges: Per-row precursor charges.
            space_config: HD space the rows were encoded in.
            binning: Peak binning the rows were encoded with.
            preprocessing: Preprocessing the rows went through.
            source: Free-form origin string (provenance only).

        Raises:
            ValueError: If array lengths or the packed width disagree.
        """
        self.packed = packed
        self.dim = int(dim)
        self.identifiers = list(identifiers)
        self.peptide_keys = list(peptide_keys)
        self.is_decoy = np.asarray(is_decoy, dtype=bool)
        self.neutral_masses = np.asarray(neutral_masses, dtype=np.float64)
        self.charges = np.asarray(charges, dtype=np.int64)
        self.space_config = space_config
        self.binning = binning
        self.preprocessing = preprocessing
        self.source = source
        n = len(self.identifiers)
        if not (
            packed.shape[0]
            == len(self.peptide_keys)
            == len(self.is_decoy)
            == len(self.neutral_masses)
            == len(self.charges)
            == n
        ):
            raise ValueError("index arrays disagree on reference count")
        expected_words = -(-self.dim // 8)
        if packed.ndim != 2 or packed.shape[1] != expected_words:
            raise ValueError(
                f"packed matrix has {packed.shape[1] if packed.ndim == 2 else '?'} "
                f"words per row, expected {expected_words} for dim {self.dim}"
            )
        #: Set by :meth:`attach_ann`; never persisted.
        self.ann: Optional[AnnRows] = None

    def shard_bounds(self, num_shards: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` row ranges splitting the library.

        Matches ``np.array_split`` semantics (the first ``n % k`` shards
        get one extra row), so shard payloads can be zero-copy row-range
        views of the packed matrix — contiguity is what lets the exec
        layer share slabs instead of gather copies.

        Raises:
            ValueError: If ``num_shards`` is outside ``[1, num_rows]``.
        """
        total = self.num_references
        if not 1 <= num_shards <= total:
            raise ValueError(
                f"cannot split {total} references into {num_shards} shards"
            )
        base, extra = divmod(total, num_shards)
        bounds: List[Tuple[int, int]] = []
        start = 0
        for shard in range(num_shards):
            stop = start + base + (1 if shard < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        references: Sequence[Spectrum],
        encoder: Optional[SpectrumEncoder] = None,
        space_config: Optional[HDSpaceConfig] = None,
        binning: Optional[BinningConfig] = None,
        preprocessing: Optional[PreprocessingConfig] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        source: str = "",
    ) -> "LibraryIndex":
        """Encode *references* once into a reusable index.

        Either pass a ready ``encoder`` or the ``space_config`` /
        ``binning`` pair to build one.  Encoding walks the library one
        precursor-charge bucket at a time in chunks of ``chunk_size``
        spectra, so peak memory stays bounded and the access pattern
        matches the charge-bucketed layout every searcher uses; rows are
        scattered back into library order so downstream results are
        bit-identical to encoding in place.

        Args:
            references: Library spectra (targets and decoys).
            encoder: Ready spectrum encoder; built from ``space_config``
                / ``binning`` when omitted.
            space_config: HD space to encode in (ignored with ``encoder``).
            binning: Peak binning config.
            preprocessing: Spectrum preprocessing config.
            chunk_size: Spectra encoded per fused batch call.
            source: Free-form origin string stored in the provenance.

        Returns:
            The fully encoded, searchable index.

        Raises:
            ValueError: On bad ``chunk_size`` or when no reference
                survives preprocessing.
            IndexCompatibilityError: When ``encoder`` and ``binning``
                disagree.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
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

        kept_originals: List[Spectrum] = []
        kept_processed: List[Spectrum] = []
        for reference, processed in zip(
            references, preprocess_many(references, preprocessing)
        ):
            if processed is not None:
                kept_originals.append(reference)
                kept_processed.append(processed)
        if not kept_originals:
            raise EmptyLibraryError()

        num_kept = len(kept_originals)
        encode_started = time.perf_counter()
        logger.info(
            "building index: %d/%d references survived preprocessing "
            "(dim=%d, chunk_size=%d)",
            num_kept,
            len(references),
            encoder.space.dim,
            chunk_size,
        )
        charges = np.array(
            [ref.precursor_charge for ref in kept_originals], dtype=np.int64
        )
        packed = np.empty((num_kept, -(-encoder.space.dim // 8)), dtype=np.uint8)
        for charge in sorted(set(charges.tolist())):
            positions = np.flatnonzero(charges == charge)
            for start in range(0, len(positions), chunk_size):
                chunk = positions[start : start + chunk_size]
                packed[chunk] = encode_packed_rows(
                    encoder, [kept_processed[int(pos)] for pos in chunk]
                )

        index = cls(
            packed=packed,
            dim=encoder.space.dim,
            identifiers=[ref.identifier for ref in kept_originals],
            peptide_keys=[ref.peptide_key() for ref in kept_originals],
            is_decoy=np.array(
                [ref.is_decoy for ref in kept_originals], dtype=bool
            ),
            neutral_masses=np.array(
                [ref.neutral_mass for ref in kept_originals], dtype=np.float64
            ),
            charges=charges,
            space_config=space_config,
            binning=binning,
            preprocessing=preprocessing,
            source=source,
        )
        logger.info(
            "encoded %d references in %.2f s",
            num_kept,
            time.perf_counter() - encode_started,
        )
        return index

    def attach_ann(self, config: Optional[AnnConfig] = None) -> AnnRows:
        """Pair this index's rows with a candidate-pass config.

        Nothing is built: ``self.ann`` becomes a view of the packed
        matrix a :class:`~repro.ann.CandidatePrefilter` can read.

        Args:
            config: ANN knobs; defaults to :class:`~repro.ann.AnnConfig`.
        """
        self.ann = AnnRows(self.packed, config or AnnConfig())
        return self.ann

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def provenance(self) -> dict:
        """The configuration provenance persisted alongside the vectors."""
        return {
            "format_version": INDEX_FORMAT_VERSION,
            "space": _config_to_dict(self.space_config),
            "binning": _config_to_dict(self.binning),
            "preprocessing": _config_to_dict(self.preprocessing),
            "source": self.source,
            "num_references": self.num_references,
            "dim": self.dim,
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the index as an uncompressed ``.npz`` (mmap-friendly).

        Args:
            path: Destination path; ``.npz`` is appended when missing.

        Returns:
            The actual file written.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        members = {
            "format_version": np.array(INDEX_FORMAT_VERSION, dtype=np.int64),
            "packed": np.ascontiguousarray(self.packed),
            "dim": np.array(self.dim, dtype=np.int64),
            "identifiers": np.array(self.identifiers),
            "peptide_keys": np.array(
                [key if key is not None else "" for key in self.peptide_keys]
            ),
            "is_decoy": self.is_decoy,
            "neutral_masses": self.neutral_masses,
            "charges": self.charges,
            "provenance_json": np.array(json.dumps(self.provenance())),
        }
        np.savez(path, **members)
        # np.savez appends ".npz" when missing; report the real file.
        written = path if path.suffix == ".npz" else Path(str(path) + ".npz")
        logger.info(
            "saved index with %d references (%d bytes packed) to %s",
            len(self.identifiers),
            self.packed.nbytes,
            written,
        )
        return written

    @classmethod
    def load(cls, path: Union[str, Path], mmap: bool = True) -> "LibraryIndex":
        """Reload a persisted index, memory-mapping the bit matrix.

        ``mmap=False`` forces an eager in-memory read (useful when the
        file will be deleted while the index is still in use).  Only
        the members :meth:`save` writes are read; anything else in the
        archive (the ``ann_*`` tables older builds persisted) is ignored.

        Args:
            path: Archive previously written by :meth:`save`.
            mmap: Memory-map the packed matrix when possible.

        Returns:
            The reconstructed index.

        Raises:
            IndexCompatibilityError: If the file is missing, truncated,
                not a LibraryIndex archive or lacks a member, or its
                format version is unsupported.
        """
        path = Path(path)
        try:
            return cls._read(path, mmap)
        except IndexCompatibilityError:
            raise
        # ValueError: np.load on a non-archive, a truncated .npy member,
        # or arrays that disagree on the row count.
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as error:
            raise IndexCompatibilityError(
                f"{path} cannot be read as a LibraryIndex archive: "
                f"{type(error).__name__}: {' '.join(str(error).split())}"
            ) from error

    @classmethod
    def _read(cls, path: Path, mmap: bool) -> "LibraryIndex":
        """:meth:`load` without the fault typing."""
        with np.load(path, allow_pickle=False) as archive:
            if "format_version" not in archive or "provenance_json" not in archive:
                raise IndexCompatibilityError(
                    f"{path} is not a LibraryIndex archive"
                )
            version = int(archive["format_version"])
            if version != INDEX_FORMAT_VERSION:
                raise IndexCompatibilityError(
                    f"{path} has index format version {version}, this "
                    f"build reads {INDEX_FORMAT_VERSION}: rebuild the index"
                )
            provenance = json.loads(str(archive["provenance_json"][()]))
            packed = None
            if mmap:
                packed = _mmap_npz_array(path, "packed.npy")
            if packed is None:
                packed = archive["packed"]
            dim = int(archive["dim"])
            # ``tolist`` converts in C; the empty key stands for None.
            identifiers = archive["identifiers"].tolist()
            peptide_keys = [key or None for key in archive["peptide_keys"].tolist()]
            is_decoy = archive["is_decoy"]
            neutral_masses = archive["neutral_masses"]
            charges = archive["charges"]
        logger.info(
            "loaded index from %s: %d references, dim=%d, mmap=%s",
            path,
            len(identifiers),
            dim,
            isinstance(packed, np.memmap),
        )
        return cls(
            packed=packed,
            dim=dim,
            identifiers=identifiers,
            peptide_keys=peptide_keys,
            is_decoy=is_decoy,
            neutral_masses=neutral_masses,
            charges=charges,
            space_config=HDSpaceConfig(**provenance["space"]),
            binning=BinningConfig(**provenance["binning"]),
            preprocessing=PreprocessingConfig(**provenance["preprocessing"]),
            source=provenance.get("source", ""),
        )

    # ------------------------------------------------------------------
    # validation / reconstruction
    # ------------------------------------------------------------------

    def validate(
        self,
        space_config: Optional[HDSpaceConfig] = None,
        binning: Optional[BinningConfig] = None,
        preprocessing: Optional[PreprocessingConfig] = None,
    ) -> None:
        """Raise :class:`IndexCompatibilityError` on any config mismatch.

        Only the configs actually passed are checked, so callers can
        pin down exactly the knobs they care about.
        """
        mismatches = []
        for name, stored, requested in (
            ("space", self.space_config, space_config),
            ("binning", self.binning, binning),
            ("preprocessing", self.preprocessing, preprocessing),
        ):
            if requested is not None and requested != stored:
                mismatches.append(
                    f"{name}: index has {stored!r}, caller wants {requested!r}"
                )
        if mismatches:
            raise IndexCompatibilityError(
                "index configuration mismatch:\n  " + "\n  ".join(mismatches)
            )

    def make_space(self) -> HDSpace:
        """Materialise the HD space the index was encoded with."""
        return HDSpace(self.space_config)

    def make_encoder(self) -> SpectrumEncoder:
        """Reconstruct the exact encoder (for query-side encoding)."""
        return SpectrumEncoder(self.make_space(), self.binning)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Number of reference rows stored in the index."""
        return len(self.identifiers)

    def __len__(self) -> int:
        return self.num_references

    def hypervectors(self) -> np.ndarray:
        """The full bipolar ``(n, dim)`` int8 matrix (unpacked copy)."""
        return unpack_bipolar(np.asarray(self.packed), self.dim)

    def record(self, row: int) -> ReferenceRecord:
        """The spectrum-shaped metadata of one row (a search winner)."""
        return ReferenceRecord(
            identifier=self.identifiers[row],
            peptide=self.peptide_keys[row],
            is_decoy=bool(self.is_decoy[row]),
            neutral_mass=float(self.neutral_masses[row]),
            precursor_charge=int(self.charges[row]),
        )

    def records(self) -> List[ReferenceRecord]:
        """Every row's :meth:`record`, in row order."""
        return [self.record(row) for row in range(self.num_references)]

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the packed matrix."""
        return int(np.asarray(self.packed).nbytes)

    def summary(self) -> str:
        """One-line human description (CLI / logging)."""
        decoys = int(self.is_decoy.sum())
        return (
            f"LibraryIndex: {self.num_references} references "
            f"({decoys} decoys), D={self.dim}, "
            f"{self.nbytes() / 1024:.0f} KiB packed, "
            f"charges {sorted(set(self.charges.tolist()))}"
        )


def open_search_source(path: Union[str, Path]):
    """Open either index flavor from one path argument.

    A directory (or an explicit ``manifest.json`` path) opens as a
    :class:`~repro.store.SegmentedStore`; anything else loads as a
    monolithic :class:`LibraryIndex` archive.  This is the dispatch every
    CLI verb and service route uses, so segmented stores are accepted
    anywhere a ``.npz`` path was.  The store tier is imported only for a
    store path.
    """
    path = Path(path)
    if path.is_dir() or path.name == MANIFEST_NAME:
        from ..store.store import SegmentedStore

        return SegmentedStore.open(path)
    return LibraryIndex.load(path)
