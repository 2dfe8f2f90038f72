"""The coarse pass: shortlist a window on a row prefix, re-rank exactly.

Identifications survive a tenth of the bits being wrong (the paper's
Figure 11), so the first ``prefix_words`` 64-bit words of a packed
hypervector already rank a window well enough to keep the true best row
among the ``candidate_budget`` closest.  :func:`shortlist` is that pass
— one XOR/popcount over a column slice of rows the caller already
holds, nothing built, nothing persisted — and its **only** definition:
the window kernel (:mod:`repro.oms.kernel`) calls it on its contiguous
ranges, :class:`CandidatePrefilter` is the standalone form the
brute-force oracle and the benchmark ladder call.

A shortlist comes back in layout order, so the exact ``argmax`` over it
breaks score ties like brute force (lowest precursor mass, then lowest
library position).  A query either takes the pass (``prefiltered``) or
its window is too small to be worth one and is scored whole
(``bypass``); :class:`AnnStats` counts both, thread-safe.
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..hdc.packing import pack_bipolar
from ..hdc.similarity import packed_dot_scores
from .config import AnnConfig

#: The two ways one query moves through the candidate tier.
OUTCOMES = ("bypass", "prefiltered")


def shortlist(
    rows: np.ndarray,
    query: np.ndarray,
    config: AnnConfig,
    block_rows: Optional[int] = None,
) -> np.ndarray:
    """Ascending indices of the ``candidate_budget`` rows nearest on the prefix.

    Args:
        rows: ``(n, row_bytes)`` packed window rows in layout order
            (any strides: only the prefix columns are read), with
            ``config.shortlists(n)`` true.
        query: ``(row_bytes,)`` packed query.
        config: The pass's ``prefix_words`` and ``candidate_budget``.
        block_rows: Rows XORed at a time (``None`` = all at once).

    Returns:
        ``candidate_budget`` indices into ``rows``, ascending.  Equal
        estimates at the cut keep the lower row, so the result is a
        pure function of the rows; with a prefix that covers the whole
        row it always holds the exact winner.
    """
    width = config.prefix_bytes
    prefix = rows[:, :width]
    estimate = packed_dot_scores(
        prefix, query[:width], 8 * prefix.shape[1], block_rows
    )
    # Unique keys: descending estimate, then ascending row.
    keys = np.arange(len(rows)) - estimate.astype(np.int64) * len(rows)
    kept = np.argpartition(keys, config.candidate_budget - 1)[: config.candidate_budget]
    kept.sort()
    return kept


class AnnRows(NamedTuple):
    """An index's own packed matrix paired with a pass config (a view)."""

    packed: np.ndarray
    config: AnnConfig


class PrefilterSelection(NamedTuple):
    """What the prefilter decided for one query.

    Attributes:
        positions: Library row indices to score, ordered by (precursor
            mass, library position) exactly like the brute-force
            candidate window.
        window_count: Rows the full precursor window holds; this is the
            number ``min_candidates`` gates compare against, regardless
            of how small the shortlist is.
        outcome: ``"bypass"`` or ``"prefiltered"``.
    """

    positions: np.ndarray
    window_count: int
    outcome: str


class AnnStats:
    """Thread-safe counters over prefilter outcomes.

    Tracks how many queries took each outcome plus the total rows the
    full windows held (``window_rows``) versus the rows actually scored
    (``scored_rows``) — their ratio is the measured work saving.
    """

    def __init__(self) -> None:
        """Start all counters at zero."""
        self._lock = threading.Lock()
        self._outcomes = {outcome: 0 for outcome in OUTCOMES}
        self._window_rows = 0
        self._scored_rows = 0

    def record(self, outcome: str, window_rows: int, scored_rows: int) -> None:
        """Account one query.

        Args:
            outcome: One of :data:`OUTCOMES`.
            window_rows: Rows the full precursor window held.
            scored_rows: Rows handed to the exact scorer.

        Raises:
            KeyError: If ``outcome`` is not a known outcome.
        """
        with self._lock:
            if outcome not in self._outcomes:
                raise KeyError(f"unknown prefilter outcome {outcome!r}")
            self._outcomes[outcome] += 1
            self._window_rows += int(window_rows)
            self._scored_rows += int(scored_rows)

    def record_batch(
        self, outcomes: np.ndarray, window_rows: int, scored_rows: int
    ) -> None:
        """Merge pre-aggregated counts (e.g. returned by shard workers).

        Args:
            outcomes: Integer array of counts in :data:`OUTCOMES` order.
            window_rows: Summed window sizes across the batch.
            scored_rows: Summed scored rows across the batch.
        """
        with self._lock:
            for index, outcome in enumerate(OUTCOMES):
                self._outcomes[outcome] += int(outcomes[index])
            self._window_rows += int(window_rows)
            self._scored_rows += int(scored_rows)

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of all counters."""
        with self._lock:
            return {
                "bypassed": self._outcomes["bypass"],
                "prefiltered": self._outcomes["prefiltered"],
                "window_rows": self._window_rows,
                "scored_rows": self._scored_rows,
            }


class CandidatePrefilter:
    """The coarse pass over library rows in their original order.

    The standalone form of what :class:`~repro.oms.kernel.WindowKernel`
    does on its own layout: it orders row *numbers* by (charge, mass,
    position), gathers each window's prefix columns and hands them to
    :func:`shortlist`.  :meth:`select` is read-only and thread-safe.
    """

    def __init__(
        self,
        rows: AnnRows,
        masses: np.ndarray,
        charges: np.ndarray,
        charge_aware: bool = True,
    ) -> None:
        """Order the library's rows for window lookup.

        Args:
            rows: The packed matrix and the pass config.
            masses: ``(num_rows,)`` neutral masses, original row order.
            charges: ``(num_rows,)`` precursor charges, original order.
            charge_aware: When True (the searchers' default), queries
                only match rows of their own charge; when False all
                rows share one bucket.

        Raises:
            ValueError: If array lengths disagree with ``rows.packed``.
        """
        masses = np.asarray(masses, dtype=np.float64)
        charges = np.asarray(charges, dtype=np.int64)
        num_rows = len(rows.packed)
        if len(masses) != num_rows or len(charges) != num_rows:
            raise ValueError(
                f"metadata rows ({len(masses)} masses, {len(charges)} "
                f"charges) disagree with packed rows ({num_rows})"
            )
        self.rows = rows
        self.config = rows.config
        self.charge_aware = bool(charge_aware)
        keys = charges if self.charge_aware else np.zeros_like(charges)
        # lexsort is stable: equal (charge, mass) rows keep library order.
        self._order = np.lexsort((masses, keys))
        self._keys = keys[self._order]
        self._masses = masses[self._order]

    def select(
        self,
        query_hv: np.ndarray,
        neutral_mass: float,
        charge: int,
        half_width: float,
    ) -> PrefilterSelection:
        """Choose the rows to score exactly for one query.

        Args:
            query_hv: ``(dim,)`` bipolar query hypervector.
            neutral_mass: Query neutral (uncharged) mass in Da.
            charge: Query precursor charge.
            half_width: Half-width of the precursor window in Da
                (``standard_tolerance_da`` or ``open_window_da``).

        Returns:
            A :class:`PrefilterSelection`; ``positions`` is empty with
            ``window_count == 0`` when no library row shares the charge
            or falls in the window.
        """
        key = int(charge) if self.charge_aware else 0
        start, stop = np.searchsorted(self._keys, (key, key + 1))
        bucket = self._masses[start:stop]
        low = start + np.searchsorted(bucket, neutral_mass - half_width, "left")
        high = start + np.searchsorted(bucket, neutral_mass + half_width, "right")
        window = self._order[low:high]
        if not self.config.shortlists(len(window)):
            return PrefilterSelection(window, len(window), "bypass")
        prefix = np.asarray(self.rows.packed)[window, : self.config.prefix_bytes]
        kept = shortlist(prefix, pack_bipolar(query_hv), self.config)
        return PrefilterSelection(window[kept], len(window), "prefiltered")
