"""Segmented, manifest-driven library stores that scale past RAM.

A store is a directory of tiered segment archives (each a standard
:class:`~repro.index.library.LibraryIndex` ``.npz``) described by one
JSON manifest carrying the encoding provenance and each segment's
precursor-mass range.  Streaming ingest (:func:`build_store` /
:func:`append_store`) bounds peak memory by the segment size;
:func:`merge_store` compacts segments without re-encoding a row; and
:class:`SegmentedSearcher` opens only the segments whose mass range a
query batch can actually hit — all bit-identical to a monolithic
single-``.npz`` search.
"""

from .ingest import (
    DEFAULT_SEGMENT_ROWS,
    StreamingStoreBuilder,
    append_store,
    build_store,
    merge_store,
)
from .manifest import (
    MANIFEST_NAME,
    SEGMENT_DIR,
    STORE_FORMAT_VERSION,
    SegmentIntegrityError,
    SegmentMeta,
    StoreCompatibilityError,
    StoreManifest,
)
from .search import SegmentedSearcher
from .store import SegmentedStore, open_search_source

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "MANIFEST_NAME",
    "SEGMENT_DIR",
    "STORE_FORMAT_VERSION",
    "SegmentIntegrityError",
    "SegmentMeta",
    "SegmentedSearcher",
    "SegmentedStore",
    "StoreCompatibilityError",
    "StoreManifest",
    "StreamingStoreBuilder",
    "append_store",
    "build_store",
    "merge_store",
    "open_search_source",
]
