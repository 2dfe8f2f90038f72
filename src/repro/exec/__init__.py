"""Zero-copy parallel scoring execution (`repro.exec`).

The package owns everything that lets shard scoring run in parallel
without duplicating the packed library per worker:

* :class:`~repro.exec.arena.SharedShardArena` — the single sanctioned
  owner of ``multiprocessing.shared_memory`` segments.  Packed shard
  rows, precursor metadata, and persisted ANN tables are copied into
  one named segment exactly once; worker *processes* reattach by name
  and worker *threads* share the parent's mapping, so neither pays a
  per-worker index copy.
* :class:`~repro.exec.pool.ProcessShardExecutor` /
  :class:`~repro.exec.pool.ThreadShardExecutor` — the two
  ``executor={"process","thread"}`` modes behind
  :class:`~repro.index.sharded.ShardedSearcher`, with identical task
  and result layouts (results stay bit-identical across modes).
* :func:`~repro.exec.pipeline.pipeline_map` — the two-deep bounded
  queue that overlaps encoding of micro-batch ``k+1`` with scoring of
  micro-batch ``k``.
* :class:`~repro.exec.scorer.ShardScorer` — one shard's window-scoring
  kernel (:mod:`repro.oms.kernel`), shared by every execution mode.

See ``docs/performance.md`` for mode selection and tuning guidance.
"""

from .arena import ArenaSpec, SharedShardArena
from .pipeline import PIPELINE_DEPTH, pipeline_map
from .pool import (
    POOL_START_TIMEOUT,
    ProcessShardExecutor,
    ThreadShardExecutor,
)
from .scorer import BACKEND_FACTORIES, ShardScorer, resolve_backend, shard_payload

__all__ = [
    "ArenaSpec",
    "SharedShardArena",
    "PIPELINE_DEPTH",
    "pipeline_map",
    "POOL_START_TIMEOUT",
    "ProcessShardExecutor",
    "ThreadShardExecutor",
    "BACKEND_FACTORIES",
    "ShardScorer",
    "resolve_backend",
    "shard_payload",
]
