"""Precursor-partitioned scatter plans over a segmented store.

A :class:`PartitionPlan` divides a store's segment manifest among N
workers; each :class:`PartitionSpec` is one part of the coordinator's
fan-out, routed to by its precursor-mass hull like a store segment,
and its winners merge bit-identically to a single-node search.  Two
strategies exist:

* ``rows`` — contiguous runs of segments in manifest order, balanced
  by row count.  Partition mass ranges typically overlap (ingest order
  is rarely mass-sorted), so open-window queries fan out to every
  partition and the win is *parallelism*: each worker scores ~1/N of
  the library.
* ``mass`` — segments grouped by their recorded precursor-mass range,
  balanced by row count.  Partition hulls are near-disjoint, so narrow
  windows route to few workers and the win is *pruning*.

Either way, every partition lists its segment ids in ascending
manifest order, so a worker's *local* row order is the global row
order restricted to its subset — which is exactly what makes the
cross-worker tie-break (max score, lowest reference mass, lowest global
row) equal the single-node rule.

:func:`materialize_partitions` writes each partition as a real store
directory whose manifest references the *original* segment archives by
relative path — no row is ever copied, and a stock ``repro serve`` can
front any partition unchanged.
"""

from __future__ import annotations

import bisect
import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..store.manifest import StoreManifest
from ..store.store import SegmentedStore

#: Subdirectory of a store root where partition manifests are written.
PARTITION_DIR = "partitions"

#: Supported partitioning strategies.
STRATEGIES = ("rows", "mass")


@dataclass(frozen=True)
class PartitionSpec:
    """One partition: a subset of segments plus its row-number mapping.

    ``segment_ids`` are original manifest segment ids in ascending
    order; ``global_offsets[k]`` is segment k's first global row in the
    original store and ``local_offsets[k]`` its first row inside this
    partition, so :meth:`to_global` converts a worker-local winner
    position back to the original global row number exactly.
    """

    index: int
    segment_ids: Tuple[int, ...]
    num_references: int
    mass_min: float
    mass_max: float
    global_offsets: Tuple[int, ...]
    local_offsets: Tuple[int, ...]

    def to_global(self, local_position: int) -> int:
        """Map a worker-local row number to the original global row."""
        if not 0 <= local_position < self.num_references:
            raise ValueError(
                f"local position {local_position} outside partition "
                f"p{self.index} ({self.num_references} rows)"
            )
        slot = bisect.bisect_right(self.local_offsets, local_position) - 1
        return self.global_offsets[slot] + (
            local_position - self.local_offsets[slot]
        )

    def to_dict(self) -> dict:
        """JSON-safe form (feeds the coordinator's ``/stats``)."""
        return {
            "index": self.index,
            "segment_ids": list(self.segment_ids),
            "num_references": self.num_references,
            "mass_min": self.mass_min,
            "mass_max": self.mass_max,
        }


def _contiguous_groups(counts: Sequence[int], parts: int) -> List[List[int]]:
    """Split positions 0..n-1 into ``parts`` contiguous, non-empty runs.

    Greedy ideal-boundary walk: close group ``g`` once its cumulative
    row count reaches ``total * (g+1) / parts``, cutting early when the
    remaining items are only just enough to keep every later group
    non-empty.
    """
    total = sum(counts)
    groups: List[List[int]] = []
    current: List[int] = []
    accumulated = 0
    for position, count in enumerate(counts):
        current.append(position)
        accumulated += count
        done = len(groups)
        items_left = len(counts) - position - 1
        if done < parts - 1 and (
            accumulated >= total * (done + 1) / parts
            or items_left <= parts - done - 1
        ):
            groups.append(current)
            current = []
    groups.append(current)
    return groups


class PartitionPlan:
    """How one store's segments are divided among coordinator workers."""

    def __init__(
        self,
        partitions: Sequence[PartitionSpec],
        strategy: str,
        num_references: int,
    ) -> None:
        """Adopt already-built specs; prefer :meth:`build`."""
        self.partitions: List[PartitionSpec] = list(partitions)
        self.strategy = strategy
        self.num_references = num_references

    @classmethod
    def build(
        cls,
        store: SegmentedStore,
        num_partitions: int,
        strategy: str = "rows",
    ) -> "PartitionPlan":
        """Plan ``num_partitions`` partitions over ``store``'s manifest.

        ``num_partitions`` is clamped to the segment count (a segment
        is the smallest unit of partitioning — rows are never split).

        Raises:
            ValueError: On an unknown strategy, a partition count below
                one, or an empty store.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {strategy!r}; pick from "
                f"{STRATEGIES}"
            )
        if num_partitions < 1:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        metas = store.segment_metas
        if not metas:
            raise ValueError(f"store at {store.root} has no segments")
        num_partitions = min(num_partitions, len(metas))
        offsets = store.offsets
        if strategy == "mass":
            order = sorted(
                range(len(metas)),
                key=lambda i: (metas[i].mass_min, metas[i].mass_max, i),
            )
        else:
            order = list(range(len(metas)))
        groups = _contiguous_groups(
            [metas[i].num_references for i in order], num_partitions
        )
        specs: List[PartitionSpec] = []
        for part_index, group in enumerate(groups):
            # Ascending manifest order inside the partition keeps the
            # worker's local row order equal to the global row order
            # restricted to its subset (the bit-identity invariant).
            segment_ids = sorted(order[position] for position in group)
            counts = [metas[i].num_references for i in segment_ids]
            local_offsets = [0]
            for count in counts[:-1]:
                local_offsets.append(local_offsets[-1] + count)
            specs.append(
                PartitionSpec(
                    index=part_index,
                    segment_ids=tuple(segment_ids),
                    num_references=sum(counts),
                    mass_min=min(metas[i].mass_min for i in segment_ids),
                    mass_max=max(metas[i].mass_max for i in segment_ids),
                    global_offsets=tuple(
                        int(offsets[i]) for i in segment_ids
                    ),
                    local_offsets=tuple(local_offsets),
                )
            )
        return cls(specs, strategy, store.num_references)

    def __len__(self) -> int:
        return len(self.partitions)


def materialize_partitions(
    store: SegmentedStore,
    plan: PartitionPlan,
    root: Optional[Union[str, Path]] = None,
) -> Dict[int, Path]:
    """Write each partition as a store directory referencing shared segments.

    Every partition gets ``<root>/p<k>/manifest.json`` carrying the
    original provenance and its subset of segment descriptors, with
    ``file`` entries rewritten to relative paths into the original
    store's ``segments/`` directory — zero rows are copied, and the
    partitions stay valid across appends to *other* segments.  The
    default root is ``<store>/partitions/<strategy>-<N>`` so repeated
    plans never clobber each other.

    Returns a mapping of partition index to its store directory.
    """
    if root is None:
        root = store.root / PARTITION_DIR / f"{plan.strategy}-{len(plan)}"
    root = Path(root)
    store_root = store.root.resolve()
    paths: Dict[int, Path] = {}
    for spec in plan.partitions:
        partition_root = root / f"p{spec.index}"
        partition_root.mkdir(parents=True, exist_ok=True)
        segments = []
        for segment_id in spec.segment_ids:
            meta = store.manifest.segments[segment_id]
            relative = os.path.relpath(
                store_root / meta.file, partition_root.resolve()
            )
            segments.append(dataclasses.replace(meta, file=relative))
        manifest = StoreManifest(
            dim=store.manifest.dim,
            space=store.manifest.space,
            binning=store.manifest.binning,
            preprocessing=store.manifest.preprocessing,
            segments=segments,
        )
        manifest.save(partition_root)
        paths[spec.index] = partition_root
    return paths
