"""Sharded parallel open search over a loaded :class:`LibraryIndex`.

A row-layout provider for the shared fan-out core
(:class:`~repro.oms.loop.FanOutSearcher`, which owns the query loop,
the scoring pass, the winner merge and the PSMs): the index rows are
partitioned into N contiguous shards and every query micro-batch is
scored against all of them.  Per-query shard winners merge with the
exact tie-break the single-process searcher applies (highest score,
then lowest precursor mass, then lowest library position), so results
are **bit-identical** to :class:`~repro.oms.search.HDOmsSearcher` for
every mode, shard count and worker count.

Scoring stays in this process, serially or on the core's thread pool,
over zero-copy row-range views of the packed matrix (the XOR/popcount
kernels release the GIL), so only the shard count and the worker count
shape a run.
"""

from __future__ import annotations

from typing import Optional

from ..engine import EngineConfig
from ..ms.preprocessing import PreprocessingConfig
from ..oms.candidates import WindowConfig
from ..oms.loop import FanOutSearcher
from ..oms.candidates import HDSearchConfig
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
        (``None`` = ``min(num_shards, cpu_count)`` scoring threads; zero
        or one worker scores serially in the calling thread), pipeline
        batch and ANN.  Defaults to one shard scored serially.
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
        self._adopt_index(index, engine.num_shards)
