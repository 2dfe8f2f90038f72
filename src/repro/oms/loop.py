"""The fan-out search core: one query pass over differently laid-out rows.

HyperOMS and RapidOMS each describe *one* dataflow — encode, window,
score, best match — over reference memory that happens to be laid out
differently.  :class:`FanOutSearcher` is that dataflow, once: queries
are preprocessed and encoded in micro-batches on the caller's thread,
BER noise is injected in arrival order on the packed rows, cascade mode
retries unmatched queries through the open pass, and each pass routes
every query to the *parts* whose precursor-mass hull meets its window
(each part a :class:`~repro.oms.kernel.ShardScorer` over a contiguous
set of library rows, or a remote worker), merges the per-part winners
with the brute-force tie-break and builds the PSMs.  The only thread
the core starts is the part-scoring pool.

The searchers are row-layout providers on top of it — they say which
parts exist, how a part is opened and which record sits at library row
*p*:

* :class:`~repro.oms.batch.BatchedHDOmsSearcher` — one in-process part;
* :class:`~repro.index.sharded.ShardedSearcher` — N row ranges of one
  index;
* :class:`~repro.store.search.SegmentedSearcher` — lazily opened,
  mass-pruned store segments;
* :class:`~repro.coord.coordinator.Coordinator` — partitions scored by
  ``repro serve`` workers over the ``/score`` hop.

:class:`~repro.oms.search.HDOmsSearcher`, the per-query brute force, is
deliberately *not* built on this: it is the oracle all of them equal.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import OUTCOMES, AnnStats
from ..engine import EngineConfig
from ..hdc.encoder import encode_packed_rows
from ..hdc.noise import flip_packed
from ..ms.preprocessing import PreprocessingConfig, preprocess_many
from ..ms.spectrum import Spectrum
from ..obs.trace import get_tracer
from .candidates import ENCODE_BLOCK_SIZE, HDSearchConfig, WindowConfig
from .kernel import ShardScorer, shard_payload
from .psm import PSM, SearchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.library import LibraryIndex


class FanOutSearcher:
    """Preprocess → encode → BER → mode/cascade → scored, merged pass.

    Subclasses call :meth:`_init_core`, then either hand over rows that
    are already in memory (:meth:`_adopt_rows` / :meth:`_adopt_index`:
    contiguous row ranges, every range scored for every query) or set
    :attr:`_hulls` and override

    * ``_part_payload(part)`` — the :func:`~repro.oms.kernel.shard_payload`
      of one part, with ``positions`` carrying *library-wide* row
      numbers (called once per part, under ``_open_lock``);
    * ``_reference(position)`` — the record at a library row (built
      for a winner only, never for every row at open).
    """

    #: Names one unit of fan-out in spans (``<part>.fanout`` /
    #: ``<part>.score`` / ``<part>.merge``).
    part_name = "shard"
    #: The :attr:`EngineConfig.kind` this provider answers to besides
    #: ``"auto"`` (``None`` = any).
    engine_kind: Optional[str] = None
    #: ``(parts, 2)`` precursor-mass hull ``[min, max]`` of every part,
    #: or ``None`` to route every query to every part.
    _hulls: Optional[np.ndarray] = None

    def _init_core(
        self,
        *,
        encoder,
        preprocessing: PreprocessingConfig,
        windows: Optional[WindowConfig],
        config: Optional[HDSearchConfig],
        engine: EngineConfig,
        num_parts: int,
        label: str,
    ) -> None:
        """Adopt the search-stage configs and size the scoring threads.

        ``engine.num_workers`` threads score parts concurrently
        (``None`` = one per part up to the CPU count); zero or one
        worker scores serially in the calling thread.
        """
        if self.engine_kind and engine.kind not in ("auto", self.engine_kind):
            raise ValueError(
                f"{type(self).__name__} cannot host engine kind {engine.kind!r}"
            )
        self.encoder = encoder
        self.preprocessing = preprocessing
        self.windows = windows or WindowConfig()
        self.config = engine.search_config(config)
        self.engine = engine
        self._label = label
        self._noise_rng = np.random.default_rng(self.config.noise_seed)
        workers = engine.num_workers
        if workers is None:
            workers = min(max(num_parts, 1), os.cpu_count() or 1)
        # One worker scores exactly what the caller would, one hand-off later.
        self._num_workers = 0 if workers == 1 else workers
        self._scorers: Dict[int, ShardScorer] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        # Concurrent searches share one searcher (service batches, the
        # coordinator's workers): part opens and pool creation serialize.
        self._open_lock = threading.Lock()
        self.ann_stats = AnnStats() if self.config.ann is not None else None

    # ------------------------------------------------------------------
    # row layout: in-memory row ranges unless a provider overrides
    # ------------------------------------------------------------------

    def _adopt_rows(self, record, packed, masses, charges, dim, bounds) -> None:
        """Lay in-memory library arrays out as contiguous row ranges.

        ``record(p)`` returns the record at library row ``p``.
        """
        self._record = record
        self._rows = (
            packed,
            np.asarray(masses, dtype=np.float64),
            np.asarray(charges, dtype=np.int64),
            int(dim),
        )
        self._bounds = tuple(bounds)

    def warm(self) -> None:
        """Open every in-memory row range now, not under the first batch.

        Left alone, a range is laid out by the first pass that scores
        it, which is what a one-shot CLI run wants.  A service calls
        this instead, so a route that reports ready (or was just
        reloaded) answers its first request at full speed.
        """
        for part in range(len(self._bounds)):
            self._scorer(part)

    def _adopt_index(self, index: "LibraryIndex", num_parts: int) -> None:
        """Lay a library index out as ``num_parts`` row ranges."""
        # Same RNG draw order as HDOmsSearcher: one flip pass over the
        # full matrix before any query is touched.
        packed = flip_packed(
            index.packed, index.dim, self.config.reference_ber, self._noise_rng
        )
        self._adopt_rows(
            index.record,
            packed,
            index.neutral_masses,
            index.charges,
            index.dim,
            index.shard_bounds(num_parts),
        )

    def _parts_for(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``(parts, queries)`` mask: may part *p* hold a row in ``[lows[q], highs[q]]``?

        The one precursor-hull test: a part whose hull misses a window
        adds neither candidates nor counts to it, so skipping the cell
        is exact.  Without :attr:`_hulls` every query goes everywhere.
        """
        if self._hulls is None:
            return np.ones((len(self._bounds), len(lows)), dtype=bool)
        return (self._hulls[:, 1:] >= lows) & (self._hulls[:, :1] <= highs)

    def _part_payload(self, part: int) -> Dict:
        return self._payload(part, self._bounds[part], *self._rows)

    def _reference(self, position: int):
        """The record at library row ``position``."""
        return self._record(position)

    def _payload(self, part, bounds, packed, masses, charges, dim) -> Dict:
        """:func:`shard_payload` with this searcher's scoring knobs filled in."""
        return shard_payload(
            part,
            bounds,
            packed,
            masses,
            charges,
            dim=dim,
            charge_aware=self.windows.charge_aware,
            ann=self.config.ann,
        )

    # ------------------------------------------------------------------
    # properties and lifecycle
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Total library rows across all parts."""
        return len(self._rows[1])

    @property
    def backend_name(self) -> str:
        """Human-readable engine label (feeds logs, results and ``/stats``)."""
        return self._label + ("+ann" if self.config.ann is not None else "")

    @property
    def executor_kind(self) -> str:
        """The active execution mode: ``serial`` or ``thread``."""
        return "serial" if self._num_workers == 0 else "thread"

    @property
    def arena_nbytes(self) -> int:
        """Shared-memory bytes in use: always 0, scoring stays in-process.

        Kept for the layer harness, which still reads it.
        """
        return 0

    def close(self, timeout: float = 10.0) -> None:
        """Release the scoring threads and every opened part (idempotent).

        In-flight scoring gets ``timeout`` seconds to finish; after that
        the pool is abandoned with its pending work cancelled, so a
        wedged scorer cannot hang the caller.  A closed searcher reopens
        its parts on the next search.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            waiter = threading.Thread(target=pool.shutdown, daemon=True)
            waiter.start()
            waiter.join(timeout)
            if waiter.is_alive():
                pool.shutdown(wait=False, cancel_futures=True)
        with self._open_lock:
            self._scorers.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # one scoring pass
    # ------------------------------------------------------------------

    def _scorer(self, part: int) -> ShardScorer:
        """The part's scorer, opened on first use.

        The fast path is lock-free — dict reads are atomic and entries
        are only added (until :meth:`close`); a racing first use builds
        the scorer once, under ``_open_lock``.
        """
        scorer = self._scorers.get(part)
        if scorer is None:
            with self._open_lock:
                scorer = self._scorers.get(part)
                if scorer is None:
                    scorer = ShardScorer(self._part_payload(part))
                    self._scorers[part] = scorer
        return scorer

    def _map_parts(self, jobs: Sequence[Tuple[int, Tuple]]) -> List[Tuple[float, Tuple]]:
        """``(wall_seconds, score_batch result)`` per ``(part, batch)`` job, in order."""
        # Open in the caller thread; score concurrently.
        work = [(self._scorer(part), batch) for part, batch in jobs]

        def score(job: Tuple[ShardScorer, Tuple]) -> Tuple[float, Tuple]:
            started = time.perf_counter()
            scored = job[0].score_batch(*job[1])
            return time.perf_counter() - started, scored

        if self._num_workers == 0 or len(work) <= 1:
            return [score(job) for job in work]
        with self._open_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._num_workers,
                    thread_name_prefix=f"{self.part_name}-score",
                )
            pool = self._pool
        return list(pool.map(score, work))

    def score_batch(self, queries, query_masses, query_charges, half_width: float) -> Tuple:
        """Best row per packed query over every part: one scored, merged pass.

        :meth:`ShardScorer.score_batch`'s arguments and columns for the
        whole library plus the winners' records (``None`` for an empty
        window); counts are summed over parts, the winner follows the
        brute-force tie-break.  Each part scores only the queries
        :meth:`_parts_for` routes to it; a skipped cell merges as
        ``(0, -inf, +inf, -1)``.
        """
        query_masses = np.asarray(query_masses, dtype=np.float64)
        query_charges = np.asarray(query_charges, dtype=np.int64)
        mask = self._parts_for(query_masses - half_width, query_masses + half_width)
        jobs = []
        for part in np.flatnonzero(mask.any(axis=1)).tolist():
            routed = slice(None) if mask[part].all() else mask[part]
            batch = (queries[routed], query_masses[routed], query_charges[routed], half_width)
            jobs.append((part, batch))
        tracer = get_tracer()
        with tracer.span(
            f"{self.part_name}.fanout",
            workers=self._num_workers,
            executor=self.executor_kind,
            queries=len(query_masses),
            **{f"{self.part_name}s": len(jobs)},
        ):
            timed = self._map_parts(jobs)
            if tracer.enabled:
                # Each part's job times itself; the timings become spans
                # on virtual per-part lanes under the fan-out span.
                for (part, batch), (wall, _scored) in zip(jobs, timed):
                    tracer.emit(
                        f"{self.part_name}.score",
                        duration=float(wall),
                        thread=f"{self.part_name}-{part}",
                        queries=len(batch[1]),
                        **{self.part_name: part},
                    )
        single = len(jobs) == 1 and bool(mask[jobs[0][0]].all())
        if single:
            # One part answered every query: its winners are the winners.
            counts, scores, masses, positions = timed[0][1][:4]
        else:
            # (parts, queries) tables of counts, scores, masses and
            # positions; one empty row when nothing is routed.
            shape = (max(len(jobs), 1), len(query_masses))
            fills = (0, -np.inf, np.inf, -1)
            counts, scores, masses, positions = (np.full(shape, fill) for fill in fills)
        outcomes, scored_rows = np.zeros(len(OUTCOMES), dtype=np.int64), 0
        for row, ((part, _batch), (_wall, scored)) in enumerate(zip(jobs, timed)):
            if not single:
                for table, column in zip((counts, scores, masses, positions), scored):
                    table[row, mask[part]] = column
            outcomes += scored[4]
            scored_rows += int(scored[5][0])
            if self.ann_stats is not None:  # per routed (query, part) pair
                self.ann_stats.record_batch(scored[4], int(scored[0].sum()), int(scored[5][0]))
        with tracer.span(f"{self.part_name}.merge", queries=len(query_masses)):
            if not single:
                # Winner per query: exactly HDOmsSearcher's argmax over its
                # mass-sorted candidate window.
                winner = np.lexsort((positions, masses, -scores), axis=0)[0]
                pick = (winner, np.arange(len(query_masses)))
                positions = positions[pick]
            records = [self._reference(p) if p >= 0 else None for p in positions.tolist()]
        if not single:
            counts, scores, masses = counts.sum(axis=0), scores[pick], masses[pick]
        return (
            counts, scores, masses, positions,
            outcomes, np.array([scored_rows], dtype=np.int64), records,
        )

    def _run_pass(
        self, queries: Sequence[Spectrum], packed: np.ndarray, mode: str
    ) -> List[Optional[PSM]]:
        """One windowed scoring pass over encoded queries, as PSMs."""
        counts, scores, _masses, positions, _outcomes, _rows, records = self.score_batch(
            packed,
            np.array([query.neutral_mass for query in queries]),
            np.array([query.precursor_charge for query in queries], dtype=np.int64),
            self.windows.half_width(mode),
        )
        results: List[Optional[PSM]] = []
        for column, (query, reference) in enumerate(zip(queries, records)):
            if reference is None or counts[column] < self.config.min_candidates:
                results.append(None)
                continue
            results.append(
                PSM(
                    query_id=query.identifier,
                    reference_id=reference.identifier,
                    peptide_key=reference.peptide_key(),
                    score=float(scores[column]),
                    is_decoy=reference.is_decoy,
                    precursor_mass_difference=query.neutral_mass
                    - reference.neutral_mass,
                    mode=mode,
                    reference_mass=float(reference.neutral_mass),
                    library_position=int(positions[column]),
                )
            )
        return results

    # ------------------------------------------------------------------
    # the query loop
    # ------------------------------------------------------------------

    def _search_batch(
        self, queries: Sequence[Spectrum], packed: np.ndarray
    ) -> List[Optional[PSM]]:
        """Noise injection + mode dispatch for one packed, encoded micro-batch.

        BER flips draw from the searcher's RNG here, for every
        preprocessed query in arrival order, so the noise stream is the
        oracle's.  Every pass and part scores these packed rows.
        """
        if not len(queries):
            return []
        if self.config.query_ber > 0:
            packed = flip_packed(
                packed, self.encoder.space.dim, self.config.query_ber, self._noise_rng
            )
        if self.config.mode == "cascade":
            results = self._run_pass(queries, packed, "standard")
            retry = [column for column, psm in enumerate(results) if psm is None]
            if retry:
                reopened = self._run_pass(
                    [queries[column] for column in retry], packed[retry], "open"
                )
                for column, psm in zip(retry, reopened):
                    results[column] = psm
            return results
        return self._run_pass(queries, packed, self.config.mode)

    def search_aligned(self, queries: Sequence[Spectrum]) -> List[Optional[PSM]]:
        """One PSM or ``None`` per query, in input order.

        Each ``ENCODE_BLOCK_SIZE`` block is preprocessed, encoded to
        packed rows and searched before the next one is read, all on
        the caller's thread, so its spans keep the caller's parent and
        request id.  A query dropped by preprocessing answers ``None``.
        """
        results: List[Optional[PSM]] = [None] * len(queries)
        for start in range(0, len(queries), ENCODE_BLOCK_SIZE):
            chunk = queries[start : start + ENCODE_BLOCK_SIZE]
            processed = preprocess_many(chunk, self.preprocessing)
            kept = [row for row, spectrum in enumerate(processed) if spectrum is not None]
            encoded = encode_packed_rows(self.encoder, [processed[row] for row in kept])
            for row, psm in zip(kept, self._search_batch([chunk[row] for row in kept], encoded)):
                results[start + row] = psm
        return results

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Search all queries; PSM stream identical to HDOmsSearcher."""
        start = time.perf_counter()
        psms = [psm for psm in self.search_aligned(queries) if psm is not None]
        return SearchResult(
            psms=psms,
            num_queries=len(queries),
            num_unmatched=len(queries) - len(psms),
            elapsed_seconds=time.perf_counter() - start,
            backend_name=self.backend_name,
        )
