"""Per-shard scoring shared by every execution mode.

:class:`ShardScorer` is the unit of work each executor runs: one
shard's :class:`~repro.oms.kernel.WindowKernel` — its rows laid out in
(charge, mass, position) order and scored a query block at a time, no
per-query gather — built from a *payload* dict (see
:func:`shard_payload`).  Serial, thread, and process execution all
construct the identical scorer from identical inputs, which is what
keeps the three modes bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..ann import OUTCOMES, CandidatePrefilter, HammingLSHIndex
from ..oms.kernel import WindowKernel
from ..oms.search import DenseBackend, PackedBackend

#: Named backend factories usable across process boundaries.
BACKEND_FACTORIES: Dict[str, Callable] = {
    "dense": DenseBackend,
    "packed": PackedBackend,
}

#: The ANN table arrays persisted per shard (``HammingLSHIndex.to_arrays``).
ANN_ARRAY_KEYS = ("ann_bit_positions", "ann_sorted_keys", "ann_row_order")


def resolve_backend(backend: Union[str, Callable]) -> Callable:
    """Map a backend name (or pass through a factory) to its factory.

    Raises:
        ValueError: For names outside :data:`BACKEND_FACTORIES`.
    """
    if callable(backend):
        return backend
    try:
        return BACKEND_FACTORIES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKEND_FACTORIES)} or a factory callable"
        ) from None


def shard_payload(
    shard_id: int,
    bounds: Tuple[int, int],
    packed: np.ndarray,
    masses: np.ndarray,
    charges: np.ndarray,
    *,
    dim: int,
    backend: Union[str, Callable],
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
