"""Sharded parallel open search over a loaded :class:`LibraryIndex`.

A row-layout provider for the shared fan-out core
(:class:`~repro.oms.loop.FanOutSearcher`, which owns the query loop,
the scoring pass, the winner merge and the PSMs): the index rows are
partitioned into N contiguous shards and every query micro-batch is
scored against all of them.  Per-query shard winners merge with the
exact tie-break the single-process searcher applies (highest score,
then lowest precursor mass, then lowest library position), so results
are **bit-identical** to :class:`~repro.oms.search.HDOmsSearcher` for
every mode, shard count, worker count, and executor.

Serial and ``executor="thread"`` scoring stay in this process, over
zero-copy row-range views of the packed matrix (the core's thread pool
relies on the GIL-releasing NumPy kernels).  Only
``executor="process"`` copies the packed rows and precursor metadata
into one :class:`~repro.exec.arena.SharedShardArena` segment that pool
workers reattach by name, so only packed query batches and winners
cross the pipe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import EngineConfig
from ..exec.arena import SharedShardArena
from ..exec.pool import ProcessShardExecutor
from ..ms.preprocessing import PreprocessingConfig
from ..oms.candidates import WindowConfig
from ..oms.loop import FanOutSearcher
from ..oms.search import HDSearchConfig
from .library import LibraryIndex


class ShardedSearcher(FanOutSearcher):
    """Fan open-modification search across index shards and workers.

    Parameters
    ----------
    index:
        A built or loaded :class:`LibraryIndex`.
    preprocessing / windows / config:
        Stage configurations; preprocessing defaults to the index's own.
    encoder:
        Optional pre-built query encoder; validated against the index
        provenance.  By default the encoder is reconstructed from the
        index so a loaded file is fully self-contained.
    engine:
        The :class:`~repro.engine.EngineConfig` naming the execution
        knobs: ``num_shards`` contiguous row partitions, ``num_workers``
        (``None`` = ``min(num_shards, cpu_count)``; zero or one worker
        scores serially in-process: no arena, no pool), ``executor``
        (``"process"`` = a multiprocessing pool over a shared arena,
        ``"thread"`` = in-process threads), pipeline batch and ANN.
        Defaults to one shard scored serially.
    """

    engine_kind = "sharded"

    def __init__(
        self,
        index: LibraryIndex,
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        encoder=None,
        engine: Optional[EngineConfig] = None,
    ) -> None:
        engine = engine or EngineConfig()
        if encoder is not None:
            index.validate(encoder.space.config, encoder.binning)
        self.index = index
        self.num_shards = engine.num_shards
        self._init_core(
            encoder=encoder if encoder is not None else index.make_encoder(),
            preprocessing=preprocessing or index.preprocessing,
            windows=windows,
            config=config,
            engine=engine,
            num_parts=engine.num_shards,
            label=f"shardedx{engine.num_shards}",
        )
        self._arena: Optional[SharedShardArena] = None
        self._executor: Optional[ProcessShardExecutor] = None
        self._adopt_index(index, engine.num_shards)
        if self.executor_kind == "process":
            self._ensure_executor()

    # ------------------------------------------------------------------
    # process mode: arena + pool
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessShardExecutor:
        """Build (or rebuild, after :meth:`close`) the arena + pool."""
        if self._executor is None:
            self._arena, setup = self._build_arena()
            self._executor = ProcessShardExecutor(setup, self._num_workers)
        return self._executor

    def _build_arena(self) -> Tuple[SharedShardArena, Dict]:
        """Copy the scoring inputs into shared memory, once."""
        packed, masses, charges, dim = self._rows
        arena = SharedShardArena.create(
            {"packed": packed, "masses": masses, "charges": charges}
        )
        setup = {
            "spec": arena.spec(),
            "dim": dim,
            "charge_aware": self.windows.charge_aware,
            "bounds": self._bounds,
            "ann": self.config.ann,
        }
        return arena, setup

    def _map_parts(
        self, jobs: Sequence[Tuple[int, Tuple]]
    ) -> List[Tuple[float, Tuple]]:
        if self.executor_kind != "process":
            return super()._map_parts(jobs)
        raw = self._ensure_executor().run([(part,) + batch for part, batch in jobs])
        return [(result[1], result[2:]) for result in raw]

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pools down and unlink the arena (idempotent).

        In-flight shard tasks get ``timeout`` seconds to finish before
        the executor falls back to termination — and the shared-memory
        segment is unlinked **unconditionally** afterwards, including on
        the terminate-fallback path and when the pool initializer never
        came up, so no segment can outlive the searcher.
        """
        executor, self._executor = self._executor, None
        arena, self._arena = self._arena, None
        try:
            if executor is not None:
                executor.close(timeout)
        finally:
            if arena is not None:
                arena.close()
            super().close(timeout)

    @property
    def executor_kind(self) -> str:
        """The active execution mode: ``process``, ``thread``, ``serial``."""
        return "serial" if self._num_workers == 0 else self.engine.executor

    @property
    def arena_nbytes(self) -> int:
        """Shared-memory bytes backing the shards (process mode only)."""
        return self._arena.nbytes if self._arena is not None else 0
