"""Persistent encoded-library index.

The expensive half of open modification search — encoding a spectral
library into hypervectors — is a pure function of (space config, binning
config, preprocessing config, library).  :class:`LibraryIndex` runs that
function once, persists the packed hypervectors together with the exact
configuration provenance to a single ``.npz`` file, and memory-maps the
bit matrix back on load so a service process can start searching without
re-paying the build cost (the same amortisation argument HyperOMS makes
for GPUs and ANN-SoLo makes for its on-disk ANN index).

Searching goes through the store tier: :class:`repro.store.SegmentedSearcher`
opens a ``.npz`` (or adopts a loaded index) as a one-segment store and
splits it into ``EngineConfig.num_shards`` row-range parts.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "library": [
            "INDEX_FORMAT_VERSION",
            "IndexCompatibilityError",
            "LibraryIndex",
            "ReferenceRecord",
        ],
        # The layer harness's name for repro.store.SegmentedSearcher.
        ".store.search": ["ShardedSearcher"],
    },
)
