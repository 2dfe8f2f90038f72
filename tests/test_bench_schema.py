"""Benchmark trajectory files must share one schema.

``benchmarks/results/BENCH_*.json`` files are append-only per-machine
perf trajectories (gitignored).  Dashboards and the docs treat them as
one format, so every file must be a JSON list of entries carrying the
core keys ``BENCH_encode.json`` established; ``BENCH_score.json``
additionally pins its executor-comparison fields.  The checks are
no-ops (not skips) when a file has not been produced on this machine
yet — run the benchmarks to populate them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RESULTS_DIR = Path(__file__).parent.parent / "benchmarks" / "results"

#: Keys every trajectory entry must carry (the BENCH_encode format).
CORE_KEYS = {"bench", "timestamp", "batch", "dim", "speedup"}

#: Extra keys the score trajectory pins for the executor comparison.
SCORE_KEYS = {
    "num_shards",
    "num_workers",
    "cpu_count",
    "process_cold_seconds",
    "thread_cold_seconds",
    "process_warm_seconds",
    "thread_warm_seconds",
    "warm_speedup",
    "arena_mb",
    "rss_extra_mb",
}

_TIMESTAMP = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$")


def _entries(path: Path):
    history = json.loads(path.read_text())
    assert isinstance(history, list), f"{path.name}: trajectory must be a list"
    assert history, f"{path.name}: trajectory must not be empty"
    return history


#: Trajectories following the full BENCH_encode entry format (other
#: BENCH files, e.g. the ANN recall curve, carry bench-specific bodies
#: but still must be identified lists of timestamped entries).
ENCODE_FORMAT_FILES = ("BENCH_encode.json", "BENCH_score.json")


def test_all_trajectories_are_timestamped_entry_lists():
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        for entry in _entries(path):
            assert isinstance(entry, dict), f"{path.name}: non-dict entry"
            for key in ("bench", "timestamp"):
                assert key in entry, f"{path.name}: entry missing {key!r}"
            assert isinstance(entry["bench"], str)
            assert _TIMESTAMP.match(entry["timestamp"]), (
                f"{path.name}: bad timestamp {entry['timestamp']!r}"
            )


def test_speedup_trajectories_share_the_core_schema():
    for name in ENCODE_FORMAT_FILES:
        path = RESULTS_DIR / name
        if not path.exists():
            continue  # not produced on this machine yet
        for entry in _entries(path):
            missing = CORE_KEYS - entry.keys()
            assert not missing, f"{path.name}: entry missing {sorted(missing)}"
            for key in ("batch", "dim", "speedup"):
                assert isinstance(entry[key], (int, float)), (
                    f"{path.name}: {key} must be numeric"
                )


def test_score_trajectory_matches_encode_format():
    path = RESULTS_DIR / "BENCH_score.json"
    if not path.exists():
        return  # not produced on this machine yet; schema trivially holds
    for entry in _entries(path):
        assert entry["bench"] == "score_zero_copy"
        missing = (CORE_KEYS | SCORE_KEYS) - entry.keys()
        assert not missing, f"entry missing {sorted(missing)}"
        assert entry["batch"] == 256
        assert entry["num_workers"] >= 1
        assert entry["thread_cold_seconds"] > 0
        assert entry["process_cold_seconds"] > 0


#: Keys the streaming-ingest memory trajectory pins.
STORE_KEYS = {
    "bench",
    "timestamp",
    "references",
    "dim",
    "segment_rows",
    "segments",
    "baseline_mb",
    "monolithic_rss_mb",
    "streaming_rss_mb",
    "rss_cap_mb",
    "memory_ratio",
    "seconds",
}


#: Keys the coordinator scale-out trajectory pins.
COORD_KEYS = {
    "bench",
    "timestamp",
    "scale",
    "num_references",
    "num_queries",
    "seconds_one_worker",
    "seconds_two_workers",
    "speedup",
    "queries_per_second",
    "cpu_count",
}


def test_coord_trajectory_pins_the_scale_out_gate():
    """Keys and types only: the file is machine-local history, so no
    recorded *value* (a slow run on a busy host) may fail this test."""
    path = RESULTS_DIR / "BENCH_coord.json"
    if not path.exists():
        return  # not produced on this machine yet; schema trivially holds
    for entry in _entries(path):
        assert entry["bench"] == "coordinator-scale-out"
        missing = COORD_KEYS - entry.keys()
        assert not missing, f"entry missing {sorted(missing)}"
        assert isinstance(entry["timestamp"], str)
        for key in ("num_references", "num_queries", "cpu_count"):
            assert isinstance(entry[key], int), key
        for key in (
            "scale",
            "seconds_one_worker",
            "seconds_two_workers",
            "speedup",
            "queries_per_second",
        ):
            assert isinstance(entry[key], (int, float)), key


def test_store_trajectory_pins_the_rss_gate():
    path = RESULTS_DIR / "BENCH_store.json"
    if not path.exists():
        return  # not produced on this machine yet; schema trivially holds
    for entry in _entries(path):
        assert entry["bench"] == "store_streaming_ingest"
        missing = STORE_KEYS - entry.keys()
        assert not missing, f"entry missing {sorted(missing)}"
        assert entry["references"] >= 4000
        assert entry["segments"] >= 2
        # Every recorded run must have passed its self-calibrated gate.
        assert entry["streaming_rss_mb"] <= entry["rss_cap_mb"]
        assert entry["monolithic_rss_mb"] > entry["baseline_mb"]
        assert 0.0 <= entry["memory_ratio"] < 1.0
