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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ingest": [
            "DEFAULT_SEGMENT_ROWS",
            "StreamingStoreBuilder",
            "append_store",
            "build_store",
            "merge_store",
        ],
        "manifest": [
            "MANIFEST_NAME",
            "SEGMENT_DIR",
            "STORE_FORMAT_VERSION",
            "SegmentIntegrityError",
            "SegmentMeta",
            "StoreCompatibilityError",
            "StoreManifest",
        ],
        "search": ["SegmentedSearcher"],
        "store": ["SegmentedStore", "open_search_source"],
    },
)
