"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper table/figure: it runs the
experiment once under pytest-benchmark timing, prints the rendered
rows/series, saves them under ``benchmarks/results/``, and asserts the
reproduced *shape* (orderings, monotonic trends, crossovers) — not
absolute numbers, since the substrate is a simulator rather than the
authors' chip and datasets.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# ----------------------------------------------------------------------
# BENCH_*.json trajectories: one entry format, checked where it is written
# ----------------------------------------------------------------------
#
# ``benchmarks/results/BENCH_*.json`` are append-only, gitignored,
# per-machine histories.  Dashboards and the docs treat them as one
# format, so every bench passes the entry it is about to append through
# :func:`record_trajectory` with the key set its file pins.  No test
# reads the history back: a verdict never depends on what an earlier
# (possibly failed) run left on this machine.

#: Keys of the speed-up trajectories (the BENCH_encode format).
CORE_KEYS = {"bench", "timestamp", "batch", "dim", "speedup"}

#: Extra keys the score trajectory pins for the thread/serial comparison.
SCORE_KEYS = CORE_KEYS | {
    "num_shards",
    "num_workers",
    "cpu_count",
    "serial_cold_seconds",
    "thread_cold_seconds",
    "serial_warm_seconds",
    "thread_warm_seconds",
    "warm_speedup",
    "library_mb",
    "rss_extra_mb",
}

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

_TIMESTAMP = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$")


def record_trajectory(filename: str, entry: dict, required: set) -> None:
    """Validate ``entry`` against its key set, then append it to ``filename``.

    Every required key must be present; ``bench`` is a string,
    ``timestamp`` is ``YYYY-MM-DDTHH:MM:SS`` and every other required
    key is a number.  An unreadable history file is started afresh.
    """
    missing = required - entry.keys()
    assert not missing, f"{filename}: entry missing {sorted(missing)}"
    assert isinstance(entry["bench"], str)
    assert _TIMESTAMP.match(entry["timestamp"]), entry["timestamp"]
    for key in required - {"bench", "timestamp"}:
        assert isinstance(entry[key], (int, float)), f"{filename}: {key} must be numeric"
    path = RESULTS_DIR / filename
    path.parent.mkdir(exist_ok=True)
    try:
        history = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        history = []
    if not isinstance(history, list):
        history = [history]
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture
def record():
    """Print an ExperimentResult and persist it for EXPERIMENTS.md."""

    def _record(result):
        text = result.render()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
        print("\n" + text)
        return result

    return _record


def run_once(benchmark, func, **kwargs):
    """Run an experiment exactly once under benchmark timing."""
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1)
