"""Persistent encoded-library index and sharded parallel search.

The expensive half of open modification search — encoding a spectral
library into hypervectors — is a pure function of (space config, binning
config, preprocessing config, library).  :class:`LibraryIndex` runs that
function once, persists the packed hypervectors together with the exact
configuration provenance to a single ``.npz`` file, and memory-maps the
bit matrix back on load so a service process can start searching without
re-paying the build cost (the same amortisation argument HyperOMS makes
for GPUs and ANN-SoLo makes for its on-disk ANN index).

:class:`ShardedSearcher` consumes a loaded index, partitions it into N
row shards, and scores every query batch against all of them through
the shared fan-out core (:mod:`repro.oms.loop`) — serially or on the
core's threads, in-process over the index's own packed rows.  Results
are bit-identical to :class:`~repro.oms.search.HDOmsSearcher`.
"""

from .library import (
    INDEX_FORMAT_VERSION,
    IndexCompatibilityError,
    LibraryIndex,
    ReferenceRecord,
)
from .sharded import ShardedSearcher

__all__ = [
    "INDEX_FORMAT_VERSION",
    "IndexCompatibilityError",
    "LibraryIndex",
    "ReferenceRecord",
    "ShardedSearcher",
]
