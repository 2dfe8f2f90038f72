"""Configuration of the Hamming-LSH candidate prefilter.

One frozen dataclass holds every knob of the approximate stage so it
can ride inside :class:`~repro.oms.search.HDSearchConfig`, the service
configuration, and the index provenance with a single
``dataclasses.asdict`` serialisation.  See ``docs/ann-tuning.md`` for
measured guidance on picking values.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bump when the persisted hash-table layout changes incompatibly.
ANN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AnnConfig:
    """Knobs of the multi-probe Hamming-LSH candidate prefilter.

    The prefilter shortlists library rows whose hypervectors are likely
    Hamming-close to the query; the shortlist is then re-ranked with the
    exact scoring backend, so the final PSM is bit-identical to brute
    force whenever the true best row survives the shortlist.

    Attributes:
        num_tables: Number of independent hash tables.  Each table is
            one chance to recover the true neighbour; miss probability
            decays exponentially with this count.
        bits_per_hash: Bits sampled per hash key (1-32).  More bits make
            buckets smaller (fewer candidates, faster re-rank) but raise
            the per-table miss probability.
        multiprobe_radius: Also probe every bucket whose key is within
            this Hamming distance of the query's key (0 = exact bucket
            only).  Radius 1 multiplies probes per table by
            ``1 + bits_per_hash`` and sharply improves recall without
            more tables.
        candidate_budget: Hard cap on the shortlist per query.  Rows are
            kept by descending table-vote count (ties to the lowest row
            index), so the cap drops the least-corroborated candidates
            first.
        ann_threshold: Precursor windows smaller than this many rows
            bypass the prefilter and are scored exactly — a small
            window is cheaper to XOR/popcount whole than to hash.
        seed: Seed for the sampled bit positions; two indexes built with
            the same seed and dimension sample identical positions.

    Raises:
        ValueError: On out-of-range values in ``__post_init__``.
    """

    num_tables: int = 8
    bits_per_hash: int = 16
    multiprobe_radius: int = 1
    candidate_budget: int = 256
    ann_threshold: int = 1024
    seed: int = 77

    def __post_init__(self) -> None:
        """Validate every knob, raising ``ValueError`` on bad values."""
        if self.num_tables < 1:
            raise ValueError(f"num_tables must be >= 1, got {self.num_tables}")
        if not 1 <= self.bits_per_hash <= 32:
            raise ValueError(
                f"bits_per_hash must be in [1, 32], got {self.bits_per_hash}"
            )
        if not 0 <= self.multiprobe_radius <= 2:
            raise ValueError(
                "multiprobe_radius must be 0, 1 or 2 "
                f"(probe counts explode beyond), got {self.multiprobe_radius}"
            )
        if self.multiprobe_radius > self.bits_per_hash:
            raise ValueError(
                f"multiprobe_radius {self.multiprobe_radius} exceeds "
                f"bits_per_hash {self.bits_per_hash}"
            )
        if self.candidate_budget < 1:
            raise ValueError(
                f"candidate_budget must be >= 1, got {self.candidate_budget}"
            )
        if self.ann_threshold < 0:
            raise ValueError(
                f"ann_threshold must be >= 0, got {self.ann_threshold}"
            )
