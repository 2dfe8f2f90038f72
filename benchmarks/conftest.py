"""Shared fixtures for the paper-figure regenerations.

Every figure test regenerates one paper table/figure: it runs the
experiment once, prints the rendered rows/series, saves them under
``benchmarks/results/``, and asserts the reproduced *shape* (orderings,
monotonic trends, crossovers) — not absolute numbers, since the
substrate is a simulator rather than the authors' chip and datasets.
Timings are not taken here: ``bench/run.py`` is the one harness that
measures the program.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


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
