"""Configuration of the truncated-precision candidate pass.

One frozen dataclass holds every knob of the approximate stage so it
can ride inside :class:`~repro.oms.candidates.HDSearchConfig` and the
service configuration with a single ``dataclasses.asdict``
serialisation.  See ``docs/ann-tuning.md`` for measured guidance on
picking values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnnConfig:
    """Knobs of the coarse pass that shortlists rows for exact re-rank.

    Every row of a large precursor window is scored on a prefix of its
    packed hypervector only; the best ``candidate_budget`` rows by that
    estimate are re-ranked with the exact full-width score, so the
    final PSM is bit-identical to brute force whenever the true best
    row survives the shortlist.

    Attributes:
        prefix_words: Leading 64-bit words of each packed row the coarse
            pass reads (32 of the 128 words of a D = 8192 row).  For
            random hypervectors the prefix distance is an unbiased
            estimate of the full one; more words tighten it and cost
            proportionally more.  A prefix that covers the whole row
            makes the pass exact.
        candidate_budget: Rows kept per query for the exact re-rank,
            best estimate first (ties to the lower (mass, position)
            row).
        ann_threshold: Precursor windows smaller than this many rows
            (or no larger than ``candidate_budget``) bypass the coarse
            pass and are scored exactly.

    Raises:
        ValueError: On out-of-range values in ``__post_init__``.
    """

    prefix_words: int = 32
    candidate_budget: int = 256
    ann_threshold: int = 1024

    def __post_init__(self) -> None:
        """Validate every knob, raising ``ValueError`` on bad values."""
        if self.prefix_words < 1:
            raise ValueError(f"prefix_words must be >= 1, got {self.prefix_words}")
        if self.candidate_budget < 1:
            raise ValueError(
                f"candidate_budget must be >= 1, got {self.candidate_budget}"
            )
        if self.ann_threshold < 0:
            raise ValueError(
                f"ann_threshold must be >= 0, got {self.ann_threshold}"
            )

    @property
    def prefix_bytes(self) -> int:
        """Leading bytes of a packed row the coarse pass reads."""
        return 8 * self.prefix_words

    def shortlists(self, window_rows: int) -> bool:
        """Whether a window of ``window_rows`` rows takes the coarse pass."""
        return (
            window_rows >= self.ann_threshold
            and window_rows > self.candidate_budget
        )
