"""The window-scoring kernel under every fan-out searcher.

Rows are laid out **once** in (charge, precursor mass, library position)
order, so every precursor window is a contiguous row range ``[low,
high)`` and no candidate row is ever gathered — the layout HyperOMS and
RapidOMS both use.  The rows stay bit-packed, one bit per dimension, as
they are on disk: each query XORs its packed hypervector against its
own contiguous range, popcounts, and takes the ``argmin`` distance.
XOR/popcount has no reuse across queries, so nothing is shared between
windows and nothing is masked.  The first minimum distance of a range
in this layout is the highest score, then the lowest precursor mass,
then the lowest library position — exactly the brute-force
:class:`~repro.oms.search.HDOmsSearcher` tie-break, which scores the
same integers with a GEMM.

:class:`ShardScorer` is the unit of work the fan-out core
(:mod:`repro.oms.loop`) runs, serially or on its threads, and a
``repro serve`` worker runs behind the ``/score`` hop: one part's
kernel plus its optional ANN config, built from a *payload* dict
(:func:`shard_payload`).  Every caller constructs the identical scorer
from identical inputs, which is what keeps them bit-identical.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..ann import OUTCOMES, AnnConfig, shortlist
from ..hdc.similarity import packed_hamming_distance
from ..obs.trace import get_tracer
from .candidates import SCORE_BLOCK_BYTES


class WindowWinners(NamedTuple):
    """What :meth:`WindowKernel.search` found for one query batch.

    Attributes:
        counts: Rows in each query's full precursor window.
        rows: Winning layout row per query (``-1`` for empty windows).
        scores: Winning dot-product score (``-inf`` for empty windows).
        ann_outcomes: Queries per :data:`repro.ann.OUTCOMES` entry
            (all zero without an ANN config).
        ann_scored_rows: Rows scored exactly for those queries.
    """

    counts: np.ndarray
    rows: np.ndarray
    scores: np.ndarray
    ann_outcomes: np.ndarray
    ann_scored_rows: int


class WindowKernel:
    """Contiguous-window scoring over one set of library rows.

    Parameters
    ----------
    packed:
        ``(rows, ceil(dim / 8))`` bit-packed hypervectors
        (:mod:`repro.hdc.packing` layout), any row order.
    masses / charges:
        Per-row precursor neutral mass and charge, same order.
    dim:
        Hypervector dimension.
    charge_aware:
        When False all rows share one bucket and query charges are
        ignored.

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
        charge_aware: bool = True,
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
        # Each layout row's (charge, mass) as one complex number: NumPy
        # orders complex values by real part, then imaginary part, so
        # one searchsorted over this array finds a window inside its
        # charge's rows, for every query of a batch at once.
        self._keyed = np.empty(len(masses), dtype=np.complex128)
        self._keyed.real = keys[self.positions]
        self._keyed.imag = masses[self.positions]
        self.masses = self._keyed.imag
        self._rows = np.asarray(packed)[self.positions]
        self._dim = int(dim)
        # A window is XORed a tile at a time so the XOR buffer stays
        # within SCORE_BLOCK_BYTES; tiling never changes a score.
        self._tile = max(1, SCORE_BLOCK_BYTES // self._rows.shape[1])

    def windows(
        self,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Layout row range ``[low, high)`` of every query's window.

        A query whose charge has no rows gets an empty range.
        """
        query_masses = np.asarray(query_masses, dtype=np.float64)
        bounds = np.empty((2, len(query_masses)), dtype=np.complex128)
        bounds.real = query_charges if self.charge_aware else 0
        bounds.imag[0] = query_masses - half_width
        bounds.imag[1] = query_masses + half_width
        return (
            self._keyed.searchsorted(bounds[0], "left"),
            self._keyed.searchsorted(bounds[1], "right"),
        )

    def search(
        self,
        queries: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
        ann: Optional[AnnConfig] = None,
    ) -> WindowWinners:
        """Best row per query inside its ``+-half_width`` precursor window.

        ``queries`` are packed like the rows, one per query (the fan-out
        core packs a pass once).  With an ``ann`` config, a window it
        :meth:`~repro.ann.AnnConfig.shortlists` is first ranked on the row prefix
        (:func:`repro.ann.shortlist`, over the same contiguous range)
        and only the shortlist is scored at full width; every other
        window is scored whole.
        """
        lows, highs = self.windows(query_masses, query_charges, half_width)
        counts = highs - lows
        rows = np.full(len(counts), -1, dtype=np.int64)
        scores = np.full(len(counts), -np.inf, dtype=np.float64)
        prefiltered = skipped_rows = 0
        tracer = get_tracer()
        for row, (low, high) in enumerate(zip(lows.tolist(), highs.tolist())):
            if high <= low:
                continue
            # The first minimum distance is the first maximum score
            # (dim - 2 * distance), so only the winner is converted.
            if ann is None or not ann.shortlists(high - low):
                distances = packed_hamming_distance(
                    self._rows[low:high], queries[row], self._tile
                )
                best = int(distances.argmin())
                rows[row], scores[row] = low + best, self._dim - 2 * int(distances[best])
                continue
            with tracer.span("ann.prefilter", outcome="prefiltered", window=high - low):
                # Ascending layout rows, so the first minimum below
                # keeps the exact tie-break.
                candidates = low + shortlist(
                    self._rows[low:high], queries[row], ann, self._tile
                )
            with tracer.span("score.rerank", rows=len(candidates)):
                distances = packed_hamming_distance(self._rows[candidates], queries[row])
            best = int(distances.argmin())
            rows[row], scores[row] = candidates[best], self._dim - 2 * int(distances[best])
            prefiltered += 1
            skipped_rows += high - low - len(candidates)
        outcomes = np.zeros(len(OUTCOMES), dtype=np.int64)
        scored_rows = 0
        if ann is not None:
            # Every query is counted, empty windows as bypasses.
            outcomes[OUTCOMES.index("prefiltered")] = prefiltered
            outcomes[OUTCOMES.index("bypass")] = len(counts) - prefiltered
            scored_rows = int(counts.sum()) - skipped_rows
        return WindowWinners(counts, rows, scores, outcomes, scored_rows)


def shard_payload(
    shard_id: int,
    bounds: Tuple[int, int],
    packed: np.ndarray,
    masses: np.ndarray,
    charges: np.ndarray,
    *,
    dim: int,
    charge_aware: bool,
    ann: Optional[AnnConfig] = None,
) -> Dict:
    """Build one shard's scorer payload from whole-library arrays.

    ``packed`` / ``masses`` / ``charges`` are the *full* library arrays
    (typically the index's own, possibly mmap'd, arrays); the shard's
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
        "charge_aware": charge_aware,
        "ann": ann,
    }


class ShardScorer:
    """One shard's :class:`~repro.oms.kernel.WindowKernel` plus bookkeeping.

    The kernel holds the shard's rows in (charge, mass, position) order
    and scores each query against its contiguous window; this class
    maps its winners back to (mass, global library position) and hands
    the kernel the optional ANN config.
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
            charge_aware=self.charge_aware,
        )
        # Layout row -> (mass, global library position) of the winner,
        # plus a sentinel (+inf, -1) at the end that row -1, an empty
        # window, indexes.
        self._masses = np.append(self.kernel.masses, np.inf)
        self._positions = np.append(
            np.asarray(payload["positions"], dtype=np.int64)[self.kernel.positions], -1
        )
        # Each part shortlists its *own* windows with the full candidate
        # budget, so the union across parts is at least as inclusive as
        # one library-wide shortlist.
        self.ann: Optional[AnnConfig] = payload.get("ann")

    def score_batch(
        self,
        queries: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> Tuple[np.ndarray, ...]:
        """Best candidate per query (packed ``queries``) within this shard.

        Returns ``(counts, best_scores, best_masses, best_positions,
        ann_outcomes, ann_scored_rows)`` where empty windows yield
        ``(0, -inf, +inf, -1)`` so they lose every merge comparison.
        ``counts`` holds full precursor-window sizes (even under ANN) so
        ``min_candidates`` gating in the parent is unchanged;
        ``ann_outcomes`` is a count vector in :data:`repro.ann.OUTCOMES`
        order and ``ann_scored_rows`` the rows actually scored (both
        all-zero without an ANN config).
        """
        winners = self.kernel.search(
            queries, query_masses, query_charges, half_width, self.ann
        )
        return (
            winners.counts,
            winners.scores,
            self._masses[winners.rows],
            self._positions[winners.rows],
            winners.ann_outcomes,
            np.array([winners.ann_scored_rows], dtype=np.int64),
        )
