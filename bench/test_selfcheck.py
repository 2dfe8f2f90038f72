"""Self-check of the benchmark harness (collected by the Tier-1 run).

Asserts nothing about speed.  It checks that ``BENCHMARK.json`` and the
harness agree on every name and unit, that a smoke-size run emits every
end-to-end metric, that the counts marked as exact repeat for a seed
and move with the seed, and that a falsified expected answer makes the
command fail.  One workload is driven black-box here, for time; the
others are covered by running ``bench/run.py`` itself, which exits
non-zero when a named metric is missing or an answer is wrong.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import registry  # noqa: E402

SMOKE = ["--scale", "0.05", "--seconds", "0.2"]
IN_PROCESS_LAYERS = "ms,hdc,oms,ann,index,store"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_registry():
    """``BENCHMARK.json`` and ``registry.py`` name the same things, legally."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in registry.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in registry.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (m.name, m.unit, m.better) for m in registry.PER_LAYER
    ]
    names = [w.name for w in registry.WORKLOADS]
    names += [m.name for m in registry.END_TO_END + registry.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert registry.NAME_PATTERN.match(name), name
    for workload in registry.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    bounds = {m.name: m.bound for m in registry.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {name for _, name in registry.LADDER} <= {m.name for m in registry.PER_LAYER}


def test_list_needs_no_program():
    """``--list`` prints every workload and end-to-end metric."""
    listing = _run("--list")
    assert listing.returncode == 0
    for name in [w.name for w in registry.WORKLOADS] + [m.name for m in registry.END_TO_END]:
        assert name in listing.stdout


@pytest.fixture(scope="module")
def smoke_runs():
    """The four harness runs below, two at a time (none asserts on speed)."""
    commands = {
        "end_to_end": ["--workload", "offline_standard", "--seed", "3", *SMOKE],
        "corrupted": [
            "--trace", "1", "--layers", "oms", "--seed", "3", "--corrupt-oracle", *SMOKE
        ],
        "seed3": ["--trace", "1", "--layers", IN_PROCESS_LAYERS, "--seed", "3", *SMOKE],
        "seed3_again": ["--trace", "1", "--layers", IN_PROCESS_LAYERS, "--seed", "3", *SMOKE],
        "seed4": ["--trace", "1", "--layers", IN_PROCESS_LAYERS, "--seed", "4", *SMOKE],
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_run, *args) for name, args in commands.items()}
        return {name: future.result() for name, future in futures.items()}


def test_smoke_run_emits_every_end_to_end_metric(smoke_runs):
    """A black-box run prints the contract's result line, complete and clean."""
    process = smoke_runs["end_to_end"]
    assert process.returncode == 0, process.stdout + process.stderr
    result = _result(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m.name: m.unit for m in registry.END_TO_END}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name]
        assert entry["value"] > 0, name
    assert not list((HERE / ".work").glob("*")), "the run left its work dir behind"


def test_exact_counts_repeat_for_a_seed_and_move_with_it(smoke_runs):
    """Counts marked exact are equal across two runs of a seed, not across seeds."""
    results = {}
    for name in ("seed3", "seed3_again", "seed4"):
        process = smoke_runs[name]
        assert process.returncode == 0, process.stdout + process.stderr
        result = _result(process)
        assert result["correct"] is True
        results[name] = {n: e["value"] for n, e in result["metrics"].items()}
    known = {m.name: m for m in registry.PER_LAYER}
    assert set(results["seed3"]) <= set(known)
    exact = [name for name in results["seed3"] if known[name].exact]
    assert len(exact) >= 10
    for name in exact:
        assert results["seed3"][name] == results["seed3_again"][name], name
    assert any(results["seed3"][name] != results["seed4"][name] for name in exact)


def test_a_corrupted_expected_answer_fails_the_command(smoke_runs):
    """The negative control: one falsified expected PSM, exit code 1."""
    process = smoke_runs["corrupted"]
    assert process.returncode == 1, process.stdout + process.stderr
    assert _result(process)["correct"] is False
