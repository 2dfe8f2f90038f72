"""The window-scoring kernel under every fan-out searcher.

Rows are laid out **once** in (charge, precursor mass, library position)
order, so every precursor window is a contiguous row range ``[low,
high)`` and no candidate row is ever gathered — the layout HyperOMS and
RapidOMS both use.  A batch is then scored in *query blocks*: windows
are sorted by their first row, consecutive windows that overlap enough
are cut into one block, the block's union slab is scored in one pass,
and each query's winner is the ``argmax`` over its own sub-range.  The
first maximum of a range in this layout is the highest score, then the
lowest precursor mass, then the lowest library position — exactly the
brute-force :class:`~repro.oms.search.HDOmsSearcher` tie-break.

Two slab scorers implement the pass: float32 rows and one BLAS GEMM per
block (``"dense"``), or bit-packed rows and one contiguous XOR/popcount
pass per window (``"packed"``).  Both produce the same integers, so the
choice never changes a PSM.

:class:`ShardScorer` is the unit of work the fan-out core
(:mod:`repro.oms.loop`) and the process pool (:mod:`repro.exec.pool`)
run: one part's kernel plus its optional ANN prefilter, built from a
*payload* dict (:func:`shard_payload`).  Serial, thread and process
execution construct the identical scorer from identical inputs, which
is what keeps the three modes bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..ann import OUTCOMES, CandidatePrefilter, HammingLSHIndex, PrefilterSelection
from ..hdc.packing import pack_bipolar, unpack_bipolar
from ..hdc.similarity import packed_dot_scores
from ..obs.trace import get_tracer
from .search import SCORE_BLOCK_BYTES, _auto_block_rows

#: Streaming one float32 row through a GEMM costs about as much as
#: scoring it against this many queries (OpenBLAS sgemm, one thread,
#: 2 to 96 queries against 1500 rows of dim 8192: 4.1 us per row plus
#: 0.11 us per row and query).  The block cutter's cost model.
ROW_COST_QUERIES = 32

#: Rows unpacked to float32 per step when the dense slab is built, so
#: the transient int8 copy stays a few MB however large the shard is.
UNPACK_CHUNK_ROWS = 1024


class _DenseSlab:
    """float32 rows in layout order; one GEMM per query block."""

    def __init__(
        self,
        packed: np.ndarray,
        order: np.ndarray,
        dim: int,
        block_rows: Optional[int],
    ) -> None:
        # Permute on the packed bytes, chunk by chunk, straight into the
        # one float32 matrix: no unpermuted float32 copy ever exists.
        self._rows = np.empty((len(order), dim), dtype=np.float32)
        for start in range(0, len(order), UNPACK_CHUNK_ROWS):
            chunk = order[start : start + UNPACK_CHUNK_ROWS]
            self._rows[start : start + len(chunk)] = unpack_bipolar(
                packed[chunk], dim
            )
        self._tile = (
            _auto_block_rows(dim * 4) if block_rows is None else block_rows
        )

    def prepare_queries(self, query_hvs: np.ndarray) -> np.ndarray:
        return query_hvs.astype(np.float32)

    def best_in_block(
        self, queries: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = int(lows[0]), int(highs.max())
        tile = self._tile or hi - lo
        # rows @ queries.T, not queries @ rows.T: the same integers,
        # and sgemm is ~30% faster with the tall matrix on the left.
        if hi - lo <= tile:
            scores = self._rows[lo:hi] @ queries.T
        else:
            scores = np.empty((hi - lo, len(queries)), dtype=np.float32)
            for start in range(lo, hi, tile):
                stop = min(start + tile, hi)
                np.matmul(
                    self._rows[start:stop],
                    queries.T,
                    out=scores[start - lo : stop - lo],
                )
        if len(queries) > 1:
            rows = np.arange(lo, hi)[:, None]
            scores[(rows < lows) | (rows >= highs)] = -np.inf
        best = scores.argmax(axis=0)
        return lo + best, scores[best, np.arange(len(queries))]

    def row_scores(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._rows[rows] @ query


class _PackedSlab:
    """Bit-packed rows in layout order; XOR + popcount per window."""

    def __init__(
        self,
        packed: np.ndarray,
        order: np.ndarray,
        dim: int,
        block_rows: Optional[int],
    ) -> None:
        self._rows = packed[order]
        self._dim = dim
        self._tile = (
            _auto_block_rows(self._rows.shape[1])
            if block_rows is None
            else block_rows
        )

    def prepare_queries(self, query_hvs: np.ndarray) -> np.ndarray:
        return pack_bipolar(query_hvs)

    def best_in_block(
        self, queries: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # XOR/popcount has no GEMM-style reuse across queries, so each
        # query streams exactly its own contiguous window.
        best_rows = np.empty(len(queries), dtype=np.int64)
        best_scores = np.empty(len(queries), dtype=np.float64)
        for slot, (query, low, high) in enumerate(zip(queries, lows, highs)):
            scores = packed_dot_scores(
                self._rows[low:high], query, self._dim, self._tile
            )
            best = int(np.argmax(scores))
            best_rows[slot] = low + best
            best_scores[slot] = scores[best]
        return best_rows, best_scores

    def row_scores(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return packed_dot_scores(self._rows[rows], query, self._dim)


def _make_slab(backend: str, *args):
    if backend == "dense":
        return _DenseSlab(*args)
    if backend == "packed":
        return _PackedSlab(*args)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'dense' or 'packed'"
    )


class WindowWinners(NamedTuple):
    """What :meth:`WindowKernel.search` found for one query batch.

    Attributes:
        counts: Rows in each query's full precursor window.
        rows: Winning layout row per query (``-1`` for empty windows).
        scores: Winning dot-product score (``-inf`` for empty windows).
        selections: The prefilter's decision per query, in query order
            (empty without a prefilter).
    """

    counts: np.ndarray
    rows: np.ndarray
    scores: np.ndarray
    selections: List[PrefilterSelection]


class WindowKernel:
    """Contiguous-window scoring over one set of library rows.

    Parameters
    ----------
    packed:
        ``(rows, ceil(dim / 8))`` bit-packed hypervectors
        (:func:`~repro.hdc.packing.pack_bipolar` layout), any row order.
    masses / charges:
        Per-row precursor neutral mass and charge, same order.
    dim:
        Hypervector dimension.
    backend:
        ``"dense"`` or ``"packed"``.
    charge_aware:
        When False all rows share one bucket and query charges are
        ignored.
    block_rows:
        Bound on the rows scored per tile (``None`` derives it from
        :data:`~repro.oms.search.SCORE_BLOCK_BYTES`, ``0`` = untiled).
        Never changes results.

    Attributes
    ----------
    masses:
        Row masses in layout order (ascending inside each charge bucket).
    positions:
        ``positions[r]`` is the caller's row index of layout row ``r``.
    """

    def __init__(
        self,
        packed: np.ndarray,
        masses: np.ndarray,
        charges: np.ndarray,
        *,
        dim: int,
        backend: str = "dense",
        charge_aware: bool = True,
        block_rows: Optional[int] = None,
    ) -> None:
        masses = np.asarray(masses, dtype=np.float64)
        self.charge_aware = bool(charge_aware)
        if self.charge_aware:
            keys = np.asarray(charges, dtype=np.int64)
        else:
            keys = np.zeros(len(masses), dtype=np.int64)
        # lexsort is stable, so equal (charge, mass) rows keep their
        # original — library position — order.
        self.positions = np.lexsort((masses, keys))
        self.masses = masses[self.positions]
        sorted_keys = keys[self.positions]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[:1] - 1))
        stops = np.append(starts[1:], len(sorted_keys))
        self._buckets: Dict[int, Tuple[int, int]] = {
            int(sorted_keys[start]): (int(start), int(stop))
            for start, stop in zip(starts, stops)
        }
        self._slab = _make_slab(
            backend, np.asarray(packed), self.positions, int(dim), block_rows
        )

    def windows(
        self,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Layout row range ``[low, high)`` of every query's window.

        Queries whose charge has no bucket get the empty range
        ``(0, 0)``.
        """
        query_masses = np.asarray(query_masses, dtype=np.float64)
        lows = np.zeros(len(query_masses), dtype=np.int64)
        highs = np.zeros(len(query_masses), dtype=np.int64)
        for key, (start, stop) in self._buckets.items():
            if self.charge_aware:
                members = np.flatnonzero(np.asarray(query_charges) == key)
                if members.size == 0:
                    continue
            else:
                members = slice(None)
            bucket = self.masses[start:stop]
            lows[members] = start + np.searchsorted(
                bucket, query_masses[members] - half_width, "left"
            )
            highs[members] = start + np.searchsorted(
                bucket, query_masses[members] + half_width, "right"
            )
        return lows, highs

    def search(
        self,
        query_hvs: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
        prefilter: Optional[CandidatePrefilter] = None,
    ) -> WindowWinners:
        """Best row per query inside its ``+-half_width`` precursor window.

        With a ``prefilter`` (built over the same rows, in the caller's
        row order) every query is first offered to it: a
        ``prefiltered`` outcome scores only the shortlist, gathered by
        rank from the layout; ``bypass`` and ``fallback`` keep their
        whole contiguous window and ride the blocked pass with everyone
        else.
        """
        query_hvs = np.asarray(query_hvs)
        lows, highs = self.windows(query_masses, query_charges, half_width)
        counts = highs - lows
        queries = self._slab.prepare_queries(query_hvs)
        rows = np.full(len(counts), -1, dtype=np.int64)
        scores = np.full(len(counts), -np.inf, dtype=np.float64)
        selections: List[PrefilterSelection] = []
        if prefilter is not None:
            tracer = get_tracer()
            for row in range(len(counts)):
                with tracer.span("ann.prefilter") as span:
                    selection = prefilter.select(
                        query_hvs[row],
                        float(query_masses[row]),
                        int(query_charges[row]),
                        half_width,
                    )
                    span.tag(
                        outcome=selection.outcome,
                        window=selection.window_count,
                        shortlist=len(selection.positions),
                    )
                selections.append(selection)
                if selection.outcome != "prefiltered":
                    continue
                # Ranks count from the bucket's first row and ascend, so
                # the first maximum keeps the exact tie-break.
                key = int(query_charges[row]) if self.charge_aware else 0
                shortlist = self._buckets[key][0] + selection.ranks
                with tracer.span("score.rerank", rows=len(shortlist)):
                    shortlist_scores = self._slab.row_scores(
                        queries[row], shortlist
                    )
                best = int(np.argmax(shortlist_scores))
                rows[row], scores[row] = shortlist[best], shortlist_scores[best]
                lows[row] = highs[row]  # answered: skip the blocked pass
        live = np.flatnonzero(highs > lows)
        live = live[np.lexsort((highs[live], lows[live]))]
        for start, stop in _cut_blocks(lows[live], highs[live]):
            members = live[start:stop]
            rows[members], scores[members] = self._slab.best_in_block(
                queries[members], lows[members], highs[members]
            )
        return WindowWinners(counts, rows, scores, selections)


def _cut_blocks(lows: np.ndarray, highs: np.ndarray):
    """Cut windows sorted by ``(low, high)`` into query blocks.

    Yields ``(start, stop)`` index ranges.  A block of ``q`` queries
    over a union of ``u`` rows is modelled to cost ``u * (q +
    ROW_COST_QUERIES)``; the next window joins while that is cheaper
    than scoring it alone, and while the block's score slab stays
    within :data:`SCORE_BLOCK_BYTES`.
    """
    max_cells = SCORE_BLOCK_BYTES // 4
    lows, highs = lows.tolist(), highs.tolist()
    count = len(lows)
    start = 0
    while start < count:
        low = lows[start]
        union = highs[start] - low
        stop = start + 1
        while stop < count:
            size = stop - start
            alone = highs[stop] - lows[stop]
            merged = max(low + union, highs[stop]) - low
            if merged * (size + 1) > max_cells or (
                merged * (size + 1 + ROW_COST_QUERIES)
                > union * (size + ROW_COST_QUERIES)
                + alone * (1 + ROW_COST_QUERIES)
            ):
                break
            union = merged
            stop += 1
        yield start, stop
        start = stop


def shard_payload(
    shard_id: int,
    bounds: Tuple[int, int],
    packed: np.ndarray,
    masses: np.ndarray,
    charges: np.ndarray,
    *,
    dim: int,
    backend: str,
    charge_aware: bool,
    ann=None,
    ann_tables: Optional[HammingLSHIndex] = None,
    score_block_rows: Optional[int] = None,
) -> Dict:
    """Build one shard's scorer payload from whole-library arrays.

    ``packed`` / ``masses`` / ``charges`` are the *full* library arrays
    (typically zero-copy views into a
    :class:`~repro.exec.arena.SharedShardArena`); the shard's
    ``bounds = (start, stop)`` row range is sliced out as views, never
    copied — shards are contiguous row ranges by construction.
    """
    start, stop = bounds
    return {
        "shard_id": shard_id,
        "positions": np.arange(start, stop, dtype=np.int64),
        "packed": packed[start:stop],
        "dim": dim,
        "masses": masses[start:stop],
        "charges": charges[start:stop],
        "backend": backend,
        "charge_aware": charge_aware,
        "ann": ann,
        "ann_tables": ann_tables,
        "score_block_rows": score_block_rows,
    }


class ShardScorer:
    """One shard's :class:`~repro.oms.kernel.WindowKernel` plus bookkeeping.

    The kernel holds the shard's rows in (charge, mass, position) order
    and scores whole query blocks against contiguous windows; this class
    maps its winners back to (mass, global library position) and runs
    the optional ANN prefilter in front of it.
    """

    def __init__(self, payload: Dict) -> None:
        dim = int(payload["dim"])
        packed = np.asarray(payload["packed"])
        masses = np.asarray(payload["masses"], dtype=np.float64)
        charges = np.asarray(payload["charges"], dtype=np.int64)
        self.charge_aware = bool(payload["charge_aware"])
        self.kernel = WindowKernel(
            packed,
            masses,
            charges,
            dim=dim,
            backend=payload["backend"],
            charge_aware=self.charge_aware,
            block_rows=payload.get("score_block_rows"),
        )
        # Layout row -> global library position of the winner.
        self._positions = np.asarray(payload["positions"])[self.kernel.positions]
        # Optional ANN prefilter: each shard hashes its *own* rows, so
        # the shortlist union across shards is at least as inclusive as
        # one global prefilter (every shard gets its full candidate
        # budget).  Pre-built tables (from the arena) are adopted as-is;
        # building here from the same rows + config yields identical
        # tables, so both paths stay bit-identical.
        self.prefilter: Optional[CandidatePrefilter] = None
        ann = payload.get("ann")
        tables = payload.get("ann_tables")
        if tables is None and ann is not None:
            tables = HammingLSHIndex.build(packed, dim, ann)
        if tables is not None:
            self.prefilter = CandidatePrefilter(
                tables, masses, charges, charge_aware=self.charge_aware
            )

    def score_batch(
        self,
        query_hvs: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> Tuple[np.ndarray, ...]:
        """Best candidate per query within this shard.

        Returns ``(counts, best_scores, best_masses, best_positions,
        ann_outcomes, ann_scored_rows)`` where empty windows yield
        ``(0, -inf, +inf, -1)`` so they lose every merge comparison.
        ``counts`` holds full precursor-window sizes (even under ANN) so
        ``min_candidates`` gating in the parent is unchanged;
        ``ann_outcomes`` is a length-3 count vector in
        :data:`repro.ann.OUTCOMES` order and ``ann_scored_rows`` the
        rows actually scored (both all-zero without a prefilter).
        """
        winners = self.kernel.search(
            query_hvs, query_masses, query_charges, half_width, self.prefilter
        )
        ann_outcomes = np.zeros(len(OUTCOMES), dtype=np.int64)
        ann_scored = np.zeros(1, dtype=np.int64)
        for selection in winners.selections:
            ann_outcomes[OUTCOMES.index(selection.outcome)] += 1
            ann_scored[0] += len(selection.positions)
        found = winners.rows >= 0
        best_masses = np.full(len(found), np.inf, dtype=np.float64)
        best_masses[found] = self.kernel.masses[winners.rows[found]]
        best_positions = np.full(len(found), -1, dtype=np.int64)
        best_positions[found] = self._positions[winners.rows[found]]
        return (
            winners.counts,
            winners.scores,
            best_masses,
            best_positions,
            ann_outcomes,
            ann_scored,
        )
