"""The shared benchmark-trajectory checker rejects malformed entries.

``benchmarks/results/BENCH_*.json`` are append-only, gitignored,
per-machine perf histories.  Every bench validates the entry it is
about to append through ``benchmarks/conftest.py::record_trajectory``
with the key set its file pins; these tests hold that checker itself to
its contract on entries built here, in a temporary directory — no
verdict depends on what an earlier run left on this machine.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).parent.parent / "benchmarks" / "conftest.py"
# Loaded by path under its own name: ``tests/`` has a ``conftest`` too.
_spec = importlib.util.spec_from_file_location("bench_trajectories", _CONFTEST)
trajectories = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectories)

KEY_SETS = {
    "core": trajectories.CORE_KEYS,
    "score": trajectories.SCORE_KEYS,
    "store": trajectories.STORE_KEYS,
    "coord": trajectories.COORD_KEYS,
}


def _entry(required: set) -> dict:
    entry = {key: 1.0 for key in required}
    entry.update(bench="unit", timestamp="2026-01-02T03:04:05")
    return entry


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(trajectories, "RESULTS_DIR", tmp_path / "results")
    return tmp_path / "results"


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_valid_entries_append_to_one_list(results_dir, name):
    required = KEY_SETS[name]
    for _ in range(2):
        trajectories.record_trajectory("BENCH_unit.json", _entry(required), required)
    history = json.loads((results_dir / "BENCH_unit.json").read_text())
    assert history == [_entry(required)] * 2


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_every_required_key_is_required(results_dir, name):
    required = KEY_SETS[name]
    for key in sorted(required):
        entry = _entry(required)
        del entry[key]
        with pytest.raises(AssertionError):
            trajectories.record_trajectory("BENCH_unit.json", entry, required)
    assert not (results_dir / "BENCH_unit.json").exists()


@pytest.mark.parametrize(
    "timestamp", ["2026-01-02", "2026-01-02 03:04:05", "1767323045", ""]
)
def test_timestamp_format_is_pinned(results_dir, timestamp):
    entry = dict(_entry(trajectories.CORE_KEYS), timestamp=timestamp)
    with pytest.raises(AssertionError):
        trajectories.record_trajectory(
            "BENCH_unit.json", entry, trajectories.CORE_KEYS
        )


def test_required_scalars_must_be_numbers(results_dir):
    entry = dict(_entry(trajectories.CORE_KEYS), speedup="2.0x")
    with pytest.raises(AssertionError, match="speedup must be numeric"):
        trajectories.record_trajectory(
            "BENCH_unit.json", entry, trajectories.CORE_KEYS
        )


@pytest.mark.parametrize("leftover", ["{not json", '{"bench": "old"}'])
def test_an_earlier_runs_leftovers_cannot_fail_this_one(results_dir, leftover):
    results_dir.mkdir()
    (results_dir / "BENCH_unit.json").write_text(leftover)
    entry = _entry(trajectories.CORE_KEYS)
    trajectories.record_trajectory("BENCH_unit.json", entry, trajectories.CORE_KEYS)
    history = json.loads((results_dir / "BENCH_unit.json").read_text())
    assert isinstance(history, list) and history[-1] == entry
