"""Sharded parallel open search over a loaded :class:`LibraryIndex`.

The index rows are partitioned into N contiguous shards; each query
micro-batch is encoded once in the parent and fanned out to an
executor from :mod:`repro.exec`, where workers score their shard
through the existing :class:`~repro.oms.search.SimilarityBackend`
protocol.  The parent merges per-query shard winners with the exact
tie-break the single-process searcher applies (highest score, then
lowest precursor mass, then lowest library position), so results are
**bit-identical** to :class:`~repro.oms.search.HDOmsSearcher` for every
mode, shard count, worker count, and executor.

Parallelism is zero-copy: the packed rows, precursor metadata, and any
per-shard ANN tables live in one
:class:`~repro.exec.arena.SharedShardArena` segment created at
construction.  ``executor="process"`` workers reattach it by name (only
query batches and winners cross the pipe); ``executor="thread"``
scores shards concurrently over the parent's own views, relying on the
GIL-releasing NumPy kernels.  Multi-micro-batch searches additionally
overlap stages — batch ``k+1`` encodes while batch ``k`` scores — via
:func:`~repro.exec.pipeline.pipeline_map`.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ann import AnnStats, HammingLSHIndex
# EXECUTOR_KINDS moved to repro.engine; re-exported for compatibility.
from ..engine import EXECUTOR_KINDS as EXECUTOR_KINDS
from ..engine import EngineConfig
from ..exec.arena import SharedShardArena
from ..exec.pool import ProcessShardExecutor, ThreadShardExecutor
from ..exec.scorer import ShardScorer, resolve_backend, shard_payload
from ..hdc.noise import flip_bits
from ..hdc.packing import pack_bipolar
from ..ms.preprocessing import PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..obs.trace import get_tracer
from ..oms.candidates import WindowConfig
from ..oms.loop import MicroBatchSearchMixin
from ..oms.psm import PSM
from ..oms.search import ENCODE_BLOCK_SIZE, HDSearchConfig
from .library import LibraryIndex

#: Sentinel distinguishing "kwarg not passed" from an explicit value,
#: so only *explicit* legacy engine kwargs trigger the deprecation shim.
_UNSET = object()


def _resolve_engine(
    engine: Optional[EngineConfig],
    legacy: Dict[str, object],
    config: Optional[HDSearchConfig],
    owner: str,
    kinds: Tuple[str, ...],
    legacy_defaults: Dict[str, object],
) -> EngineConfig:
    """Shared legacy-kwargs → :class:`EngineConfig` shim.

    Explicitly passed legacy kwargs emit a :class:`DeprecationWarning`
    (and conflict with ``engine=``); a bare call silently keeps the
    owner's historical defaults.
    """
    if engine is not None and legacy:
        raise ValueError(
            f"{owner}: pass engine knobs via engine=EngineConfig(...) or "
            f"the legacy kwargs, not both: {sorted(legacy)}"
        )
    if legacy:
        warnings.warn(
            f"{owner} engine kwargs ({', '.join(sorted(legacy_defaults))}) "
            "are deprecated; pass engine=repro.engine.EngineConfig(...) "
            "instead",
            DeprecationWarning,
            stacklevel=3,
        )
    if engine is None:
        resolved = dict(legacy_defaults)
        resolved.update(legacy)
        engine = EngineConfig(
            kind=kinds[-1],
            ann=config.ann if config is not None else None,
            **resolved,
        )
    elif engine.kind not in ("auto",) + kinds:
        raise ValueError(
            f"{owner} cannot host engine kind {engine.kind!r}"
        )
    return engine


def _fold_engine_ann(
    engine: EngineConfig, config: Optional[HDSearchConfig]
) -> HDSearchConfig:
    """Merge ``engine.ann`` into the search config (conflicts rejected)."""
    config = config or HDSearchConfig()
    if engine.ann is None or engine.ann == config.ann:
        return config
    if config.ann is not None:
        raise ValueError(
            "conflicting ANN configs: engine.ann disagrees with config.ann"
        )
    return dataclasses.replace(config, ann=engine.ann)


class ShardedSearcher(MicroBatchSearchMixin):
    """Fan open-modification search across index shards and workers.

    Parameters
    ----------
    index:
        A built or loaded :class:`LibraryIndex`.
    engine:
        An :class:`~repro.engine.EngineConfig` naming the execution
        knobs (shards, workers, executor, backend, tiling, pipeline
        batch, ANN).  This is the preferred construction surface; the
        individual keyword arguments below remain as deprecated shims.
    num_shards:
        *Deprecated — use* ``engine``.  Number of contiguous row
        partitions (each becomes one scoring task per query batch);
        historically defaulted to 2.
    num_workers:
        *Deprecated — use* ``engine``.  Worker count; ``None`` picks
        ``min(num_shards, cpu_count)`` and ``0`` disables parallelism
        entirely (shards are scored serially in-process — handy for
        tests and tiny workloads).  A count that resolves to one worker
        also scores serially: no arena, no pool.
    backend:
        *Deprecated — use* ``engine``.  ``"dense"``, ``"packed"``, or a
        picklable zero-argument factory returning a
        :class:`~repro.oms.search.SimilarityBackend`.
    executor:
        *Deprecated — use* ``engine``.  ``"process"`` (default; a
        multiprocessing pool reattaching the shared arena by name) or
        ``"thread"`` (an in-process thread pool over the same arena —
        zero IPC, concurrency from GIL-releasing kernels).  Ignored
        when ``num_workers == 0``.
    score_block_rows:
        *Deprecated — use* ``engine``.  Rows per scoring block handed
        to backends that support tiling (``None`` = backend auto-sizes
        to its cache budget, ``0`` = untiled).  Never changes results.
    pipeline_batch:
        *Deprecated — use* ``engine``.  Queries per encode micro-batch
        in :meth:`search`; defaults to
        :data:`~repro.oms.search.ENCODE_BLOCK_SIZE`.  Batches beyond the
        first are encoded one stage ahead of scoring.
    encoder:
        Optional pre-built query encoder; validated against the index
        provenance.  By default the encoder is reconstructed from the
        index so a loaded file is fully self-contained.
    """

    #: Historical constructor defaults the legacy-kwarg shim preserves.
    _LEGACY_DEFAULTS = {
        "num_shards": 2,
        "backend": "dense",
        "num_workers": None,
        "executor": "process",
        "score_block_rows": None,
        "pipeline_batch": None,
    }

    def __init__(
        self,
        index: LibraryIndex,
        num_shards: int = _UNSET,
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        backend: Union[str, Callable] = _UNSET,
        num_workers: Optional[int] = _UNSET,
        encoder=None,
        executor: str = _UNSET,
        score_block_rows: Optional[int] = _UNSET,
        pipeline_batch: Optional[int] = _UNSET,
        engine: Optional[EngineConfig] = None,
    ) -> None:
        legacy = {
            name: value
            for name, value in (
                ("num_shards", num_shards),
                ("backend", backend),
                ("num_workers", num_workers),
                ("executor", executor),
                ("score_block_rows", score_block_rows),
                ("pipeline_batch", pipeline_batch),
            )
            if value is not _UNSET
        }
        engine = _resolve_engine(
            engine, legacy, config, "ShardedSearcher", ("sharded",),
            self._LEGACY_DEFAULTS,
        )
        config = _fold_engine_ann(engine, config)
        if engine.num_shards > index.num_references:
            raise ValueError(
                f"cannot split {index.num_references} references into "
                f"{engine.num_shards} shards"
            )
        if encoder is not None:
            index.validate(encoder.space.config, encoder.binning)
        resolve_backend(engine.backend)  # fail fast on bad factories
        self.index = index
        self.engine = engine
        self.num_shards = engine.num_shards
        self.encoder = encoder if encoder is not None else index.make_encoder()
        self.preprocessing = preprocessing or index.preprocessing
        self.windows = windows or WindowConfig()
        self.config = config
        self._backend = engine.backend
        self._backend_label = engine.backend_label
        self._noise_rng = np.random.default_rng(self.config.noise_seed)
        num_workers = engine.num_workers
        if num_workers is None:
            num_workers = min(engine.num_shards, os.cpu_count() or 1)
        if num_workers == 1:
            # A one-worker pool scores exactly what this process would,
            # after an arena copy, a fork and a pickled query matrix.
            num_workers = 0
        self._num_workers = num_workers
        self._executor_name = engine.executor
        self._score_block_rows = engine.score_block_rows
        self._pipeline_batch = engine.pipeline_batch or ENCODE_BLOCK_SIZE
        self._serial_scorers: Dict[int, ShardScorer] = {}
        self.ann_stats = AnnStats() if self.config.ann is not None else None

        self.references = index.records()
        self._bounds = index.shard_bounds(engine.num_shards)
        packed = np.asarray(index.packed)
        if self.config.reference_ber > 0:
            # Same RNG draw order as HDOmsSearcher: one flip pass over
            # the full matrix before any query is touched.
            noisy = flip_bits(
                index.hypervectors(), self.config.reference_ber, self._noise_rng
            )
            packed = pack_bipolar(noisy)
        # Kept so a closed searcher can lazily rebuild its arena on the
        # next search (a view of ``index.packed`` unless BER flipped).
        self._packed_source = packed
        self._arena: Optional[SharedShardArena] = None
        self._executor = None
        self._payloads: List[Dict] = []
        if num_workers == 0:
            # Serial in-process mode needs no shared segment: payloads
            # are zero-copy row-range views of the packed matrix.
            self._payloads = [
                shard_payload(
                    shard_id,
                    bounds,
                    packed,
                    self.index.neutral_masses,
                    self.index.charges,
                    dim=self.index.dim,
                    backend=self._backend,
                    charge_aware=self.windows.charge_aware,
                    ann=self.config.ann,
                    score_block_rows=engine.score_block_rows,
                )
                for shard_id, bounds in enumerate(self._bounds)
            ]
        else:
            self._ensure_executor()

    # ------------------------------------------------------------------
    # arena / executor plumbing
    # ------------------------------------------------------------------

    def _ensure_executor(self):
        """Build (or rebuild, after :meth:`close`) the arena + executor."""
        if self._executor is None and self._num_workers != 0:
            self._arena, setup = self._build_arena(self._packed_source)
            if self._executor_name == "thread":
                self._executor = ThreadShardExecutor(
                    self._arena, setup, self._num_workers
                )
            else:
                self._executor = ProcessShardExecutor(setup, self._num_workers)
        return self._executor

    def _build_arena(
        self, packed: np.ndarray
    ) -> Tuple[SharedShardArena, Dict]:
        """Copy the scoring inputs into shared memory, once.

        Per-shard ANN tables (when configured) are built here in the
        parent — from exactly the rows and config a worker would use,
        so the tables are identical — and shipped through the arena
        instead of being rebuilt N_workers times.
        """
        arrays: Dict[str, np.ndarray] = {
            "packed": packed,
            "masses": np.asarray(self.index.neutral_masses, dtype=np.float64),
            "charges": np.asarray(self.index.charges, dtype=np.int64),
        }
        ann_provenance = None
        if self.config.ann is not None:
            provenance = []
            for shard_id, (start, stop) in enumerate(self._bounds):
                lsh = HammingLSHIndex.build(
                    packed[start:stop], self.index.dim, self.config.ann
                )
                provenance.append(lsh.provenance())
                for key, value in lsh.to_arrays().items():
                    arrays[f"shard{shard_id}.{key}"] = value
            ann_provenance = tuple(provenance)
        arena = SharedShardArena.create(arrays)
        setup = {
            "spec": arena.spec(),
            "dim": self.index.dim,
            "backend": self._backend,
            "charge_aware": self.windows.charge_aware,
            "bounds": tuple(self._bounds),
            "ann": self.config.ann,
            "ann_provenance": ann_provenance,
            "score_block_rows": self._score_block_rows,
        }
        return arena, setup

    def close(self, timeout: float = 10.0) -> None:
        """Shut the executor down and unlink the arena (idempotent).

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

    def __enter__(self) -> "ShardedSearcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Total reference rows across all shards."""
        return len(self.references)

    @property
    def backend_name(self) -> str:
        """Human-readable engine label (feeds logs and search results)."""
        suffix = "+ann" if self.config.ann is not None else ""
        return f"sharded-{self._backend_label}x{self.num_shards}{suffix}"

    @property
    def executor_kind(self) -> str:
        """The active execution mode: ``process``, ``thread``, ``serial``."""
        return "serial" if self._num_workers == 0 else self._executor_name

    @property
    def arena_nbytes(self) -> int:
        """Shared-memory bytes backing the shards (0 in serial mode)."""
        return self._arena.nbytes if self._arena is not None else 0

    def _score_all_shards(
        self,
        query_hvs: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> List[Tuple[np.ndarray, ...]]:
        tasks = [
            (shard_id, query_hvs, query_masses, query_charges, half_width)
            for shard_id in range(self.num_shards)
        ]
        tracer = get_tracer()
        with tracer.span(
            "shard.fanout",
            shards=self.num_shards,
            workers=self._num_workers,
            executor=self.executor_kind,
            queries=len(query_masses),
        ):
            executor = self._ensure_executor()
            if executor is None:
                raw = [_score_serial(self, task) for task in tasks]
            else:
                raw = executor.run(tasks)
            if tracer.enabled:
                # Workers time their own scoring (a bare float crosses
                # the pool boundary); merge those timings here as spans
                # on virtual per-shard lanes under the fanout span.
                for result in raw:
                    tracer.emit(
                        "shard.score",
                        duration=float(result[1]),
                        thread=f"shard-{result[0]}",
                        shard=int(result[0]),
                        queries=len(query_masses),
                    )
        by_shard = {result[0]: result[2:] for result in raw}
        return [by_shard[shard_id] for shard_id in range(self.num_shards)]

    def _run_pass(
        self,
        pairs: Sequence[Tuple[Spectrum, np.ndarray]],
        mode: str,
    ) -> List[Optional[PSM]]:
        """One windowed scoring pass over already-encoded queries."""
        query_hvs = np.stack([hv for _, hv in pairs])
        query_masses = np.array([q.neutral_mass for q, _ in pairs])
        query_charges = np.array(
            [q.precursor_charge for q, _ in pairs], dtype=np.int64
        )
        half_width = (
            self.windows.standard_tolerance_da
            if mode == "standard"
            else self.windows.open_window_da
        )
        per_shard = self._score_all_shards(
            query_hvs, query_masses, query_charges, half_width
        )
        if self.ann_stats is not None:
            # Shard workers pre-aggregate their outcome counts; one
            # merge per shard keeps stats cheap across the process
            # boundary.  Counts are per (query, shard) pair.
            for shard in per_shard:
                self.ann_stats.record_batch(
                    shard[4], int(shard[0].sum()), int(shard[5][0])
                )
        counts = np.stack([shard[0] for shard in per_shard])
        scores = np.stack([shard[1] for shard in per_shard])
        masses = np.stack([shard[2] for shard in per_shard])
        positions = np.stack([shard[3] for shard in per_shard])
        totals = counts.sum(axis=0)
        # Winner per query: max score, ties to lowest reference mass,
        # then lowest library position — exactly HDOmsSearcher's argmax
        # over its mass-sorted candidate window.
        winner = np.lexsort((positions, masses, -scores), axis=0)[0]

        results: List[Optional[PSM]] = []
        for column, (query, _hv) in enumerate(pairs):
            if totals[column] == 0 or totals[column] < self.config.min_candidates:
                results.append(None)
                continue
            shard = int(winner[column])
            reference = self.references[int(positions[shard, column])]
            results.append(
                PSM(
                    query_id=query.identifier,
                    reference_id=reference.identifier,
                    peptide_key=reference.peptide_key(),
                    score=float(scores[shard, column]),
                    is_decoy=reference.is_decoy,
                    precursor_mass_difference=query.neutral_mass
                    - reference.neutral_mass,
                    mode=mode,
                    reference_mass=float(reference.neutral_mass),
                    library_position=int(positions[shard, column]),
                )
            )
        return results


def _score_serial(searcher: ShardedSearcher, task: Tuple) -> Tuple:
    """In-process fallback used when ``num_workers=0``.

    Matches the executors' result layout, wall time of the scoring call
    included, so the parent merges spans identically for every
    execution path.
    """
    shard_id = task[0]
    scorer = searcher._serial_scorers.get(shard_id)
    if scorer is None:
        scorer = ShardScorer(searcher._payloads[shard_id])
        searcher._serial_scorers[shard_id] = scorer
    started = time.perf_counter()
    scored = scorer.score_batch(*task[1:])
    return (shard_id, time.perf_counter() - started) + scored
