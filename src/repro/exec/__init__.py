"""Zero-copy parallel scoring execution (`repro.exec`).

The package owns everything that lets shard scoring run in parallel
without duplicating the packed library per worker:

* :class:`~repro.exec.arena.SharedShardArena` — the single sanctioned
  owner of ``multiprocessing.shared_memory`` segments.  Packed shard
  rows and precursor metadata are copied into one named segment
  exactly once and worker *processes* reattach it by name, so no
  worker pays an index copy.
* :class:`~repro.exec.pool.ProcessShardExecutor` — the
  ``executor="process"`` mode of
  :class:`~repro.index.sharded.ShardedSearcher`.  (``"thread"`` and
  serial scoring stay in the parent over its own row views — no arena —
  on the fan-out core's thread pool, :mod:`repro.oms.loop`.)
* :func:`~repro.exec.pipeline.pipeline_map` — the two-deep bounded
  queue that overlaps encoding of micro-batch ``k+1`` with scoring of
  micro-batch ``k``.
* :class:`~repro.oms.kernel.ShardScorer` — one shard's window-scoring
  kernel, shared by every execution mode (re-exported here).

See ``docs/performance.md`` for mode selection and tuning guidance.
"""

from .arena import ArenaSpec, SharedShardArena
from .pipeline import PIPELINE_DEPTH, pipeline_map
from .pool import POOL_START_TIMEOUT, ProcessShardExecutor
from ..oms.kernel import ShardScorer, shard_payload

__all__ = [
    "ArenaSpec",
    "SharedShardArena",
    "PIPELINE_DEPTH",
    "pipeline_map",
    "POOL_START_TIMEOUT",
    "ProcessShardExecutor",
    "ShardScorer",
    "shard_payload",
]
