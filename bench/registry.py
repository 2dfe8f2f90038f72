"""Names, units, directions and bounds of every metric and workload.

This module is the single in-code statement of what the benchmark
reports; ``BENCHMARK.json`` at the repository root must agree with it
(``test_selfcheck.py`` asserts that).  Nothing here imports ``repro``,
so ``run.py --list`` works without the package on ``sys.path``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Every metric and workload name must match this (the driver's rule).
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    """One black-box workload: its name and the reason it exists."""

    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    Attributes:
        name: Metric name (matches :data:`NAME_PATTERN`).
        unit: Unit string printed beside every value.
        better: ``"lower"`` or ``"higher"``.
        bound: Share of the parent's median by which an end-to-end
            metric may worsen before a change counts as a regression;
            ``None`` for per-layer metrics, which are not gated.
        exact: True for counts that repeat exactly for a seed (the
            ``†`` metrics of the README), so a later issue may rest a
            claim on them.
        moves: Which end-to-end metric, on which workload, this
            per-layer metric is expected to move (README glossary).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    exact: bool = False
    moves: str = ""


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "offline_open",
        "open-mode CLI search: +-500 Da windows span thousands of rows, so "
        "exact scoring in oms/exec/ann does the work and ms/hdc almost none",
    ),
    Workload(
        "offline_standard",
        "standard-mode CLI search: windows are a few rows, so MGF parse, "
        "preprocess, encode and per-query overhead dominate; bypasses scoring",
    ),
    Workload(
        "ingest_append_merge",
        "CLI write path (build, append, merge: bulk encode, packing, npz and "
        "manifest writes) with a read-after-write search of the merged store",
    ),
    Workload(
        "serve_single",
        "single-spectrum POST /search from 2 closed-loop clients, 25% repeats: "
        "HTTP framing, JSON, micro-batch wait and cache are the work",
    ),
    Workload(
        "coordinate_batch",
        "back-to-back POST /search_batch through a 2-partition coordinator: "
        "scatter, two JSON hops, per-partition store search, exact merge",
    ),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("search_qps", "1/s", "higher", 0.25),
    Metric("search_p50_ms", "ms", "lower", 0.25),
    Metric("store_bytes_per_row", "B", "lower", 0.02),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_OFFLINE_STD = "search_qps on offline_standard"
_OFFLINE_OPEN = "search_qps on offline_open"
_INGEST = "setup_s, most on ingest_append_merge"
_SERVE = "search_p50_ms, search_qps on serve_single"
_COORD = "search_qps on coordinate_batch"

PER_LAYER: Tuple[Metric, ...] = (
    # ms
    Metric("ms.read_mgf_spectra_per_s", "1/s", "higher", moves=_OFFLINE_STD),
    Metric("ms.read_msp_spectra_per_s", "1/s", "higher", moves=_INGEST),
    Metric("ms.preprocess_spectra_per_s", "1/s", "higher", moves=_OFFLINE_STD),
    Metric("ms.preprocess_kept_share", "share", "higher", exact=True),
    # hdc
    Metric(
        "hdc.encode_batch_spectra_per_s", "1/s", "higher",
        moves=_OFFLINE_STD + "; " + _INGEST,
    ),
    Metric(
        "hdc.encode_single_spectra_per_s", "1/s", "higher",
        moves="search_p50_ms on serve_single while batches stay near 1",
    ),
    Metric("hdc.pack_rows_per_s", "1/s", "higher", moves=_INGEST),
    # oms
    Metric("oms.window_open_rows_mean", "rows", "lower", exact=True),
    Metric("oms.window_standard_rows_mean", "rows", "lower", exact=True),
    Metric("oms.select_window_per_s", "1/s", "higher", moves=_OFFLINE_STD),
    Metric("oms.dense_rows_scored_per_s", "1/s", "higher", moves=_OFFLINE_OPEN),
    Metric("oms.packed_rows_scored_per_s", "1/s", "higher", moves=_OFFLINE_OPEN),
    Metric("oms.oracle_qps", "1/s", "higher", moves="ladder base"),
    Metric("oms.batched_qps", "1/s", "higher", moves=_SERVE),
    Metric("oms.batched_standard_qps", "1/s", "higher"),
    Metric("oms.fdr_psms_per_s", "1/s", "higher", moves=_OFFLINE_STD),
    Metric("oms.ids_1pct_fdr", "count", "higher", exact=True),
    Metric("oms.ber10_id_retention", "share", "higher", exact=True),
    # ann
    Metric("ann.build_s", "s", "lower"),
    Metric("ann.select_us_per_query", "us", "lower"),
    Metric("ann.shortlist_rows_mean", "rows", "lower", exact=True),
    Metric("ann.candidate_ratio", "share", "lower", exact=True),
    Metric("ann.fallback_share", "share", "lower", exact=True),
    Metric("ann.top1_recall", "share", "higher", exact=True),
    Metric("ann.top1_recall_modified", "share", "higher", exact=True),
    Metric("ann.top1_recall_unmodified", "share", "higher", exact=True),
    Metric(
        "ann.prefiltered_qps", "1/s", "higher",
        moves=_OFFLINE_OPEN + " only if ANN becomes a default",
    ),
    # index
    Metric("index.build_rows_per_s", "1/s", "higher", moves=_INGEST),
    Metric("index.save_s", "s", "lower", moves="setup_s"),
    Metric("index.load_ms", "ms", "lower", moves="ladder.cli_startup_s"),
    Metric("index.bytes_per_row", "B", "lower", exact=True),
    Metric("index.sharded_serial_qps", "1/s", "higher", moves=_OFFLINE_OPEN),
    # exec
    Metric("exec.thread_cold_s", "s", "lower"),
    Metric("exec.thread_warm_qps", "1/s", "higher"),
    Metric("exec.process_cold_s", "s", "lower", moves="ladder.cli_startup_s"),
    Metric("exec.process_warm_qps", "1/s", "higher", moves=_OFFLINE_OPEN),
    Metric("exec.arena_bytes", "B", "lower", exact=True),
    # store
    Metric("store.build_rows_per_s", "1/s", "higher", moves=_INGEST),
    Metric("store.append_rows_per_s", "1/s", "higher", moves=_INGEST),
    Metric("store.merge_s", "s", "lower", moves="setup_s on ingest_append_merge"),
    Metric("store.open_ms", "ms", "lower", moves="ladder.coordinate_startup_s"),
    Metric("store.segmented_qps", "1/s", "higher", moves=_COORD),
    Metric("store.segments_opened_open", "count", "lower", exact=True),
    Metric("store.segments_opened_standard", "count", "lower", exact=True),
    # service
    Metric("service.inprocess_qps", "1/s", "higher", moves=_SERVE),
    Metric("service.search_one_ms", "ms", "lower", moves=_SERVE),
    Metric("service.wire_encode_us", "us", "lower", moves=_SERVE + "; " + _COORD),
    Metric("service.wire_decode_us", "us", "lower", moves=_SERVE + "; " + _COORD),
    Metric("service.http_rtt_ms", "ms", "lower", moves=_SERVE),
    Metric("service.http_cached_search_ms", "ms", "lower", moves=_SERVE),
    Metric("service.mean_batch_size", "count", "higher", moves=_SERVE),
    Metric("service.queue_wait_ms_mean", "ms", "lower", moves=_SERVE),
    Metric("service.cache_hit_share", "share", "higher", exact=True),
    # coord
    Metric("coord.inprocess_qps", "1/s", "higher", moves=_COORD),
    Metric("coord.one_worker_qps", "1/s", "higher", moves=_COORD),
    Metric("coord.merge_us_per_query", "us", "lower", moves=_COORD),
    Metric("coord.fanout_mean", "count", "lower", exact=True),
    Metric("coord.skipped_share", "share", "higher", exact=True),
    Metric("coord.hedges", "count", "lower"),
    Metric("coord.retries", "count", "lower"),
    Metric("coord.worker_errors", "count", "lower"),
    # obs
    Metric("obs.tracing_overhead_share", "share", "lower"),
    Metric("obs.self_s.encode_batch", "s", "lower"),
    Metric("obs.self_s.score_window", "s", "lower"),
    Metric("obs.self_s.ann_prefilter", "s", "lower"),
    Metric("obs.self_s.shard_fanout", "s", "lower"),
    Metric("obs.self_s.shard_score", "s", "lower"),
    # black-box numbers measured in the traced run: the two HTTP rungs
    # of the tax ladder (so that the whole ladder shares one fixture),
    # and the latency tail and start-up times, which have too few
    # samples in a run to carry a bound
    Metric("ladder.serve_single_qps", "1/s", "higher", moves=_SERVE),
    Metric("ladder.serve_single_p50_ms", "ms", "lower", moves=_SERVE),
    Metric("ladder.serve_single_p95_ms", "ms", "lower"),
    Metric("ladder.coordinate_batch_qps", "1/s", "higher", moves=_COORD),
    # time to first answer: too few samples per run to bound, so traced
    Metric("ladder.cli_startup_s", "s", "lower", moves="search_qps on offline_*"),
    Metric("ladder.serve_startup_s", "s", "lower"),
    Metric("ladder.coordinate_startup_s", "s", "lower"),
)

#: The wrapper tax ladder, bottom rung first: (label, per-layer metric).
#: Each rung is printed as q/s and as a ratio over the rung beneath it.
LADDER: Tuple[Tuple[str, str], ...] = (
    ("HDOmsSearcher (oracle)", "oms.oracle_qps"),
    ("BatchedHDOmsSearcher", "oms.batched_qps"),
    ("ShardedSearcher serial", "index.sharded_serial_qps"),
    ("ShardedSearcher 2 threads", "exec.thread_warm_qps"),
    ("ShardedSearcher 2 processes", "exec.process_warm_qps"),
    ("SegmentedSearcher", "store.segmented_qps"),
    ("SearchService in-process", "service.inprocess_qps"),
    ("serve_single over HTTP", "ladder.serve_single_qps"),
    ("Coordinator in-process", "coord.inprocess_qps"),
    ("coordinate_batch over HTTP", "ladder.coordinate_batch_qps"),
)


def by_name(metrics: Tuple[Metric, ...]) -> Dict[str, Metric]:
    """Index a metric tuple by name."""
    return {metric.name: metric for metric in metrics}


def workload_names() -> Tuple[str, ...]:
    """The workload names, in run order."""
    return tuple(workload.name for workload in WORKLOADS)
