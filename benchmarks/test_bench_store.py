"""Bench: streaming store ingest keeps peak RSS bounded.

The tentpole claim of ``repro.store``: :func:`repro.store.build_store`
fed by :func:`repro.ms.iter_spectra` ingests a library while holding at
most ``segment_rows`` spectra (plus one encode chunk), so peak RSS
stays roughly flat no matter how large the library grows — whereas the
monolithic path (``list(iter_spectra(...))`` +
``LibraryIndex.build``) materializes every spectrum before encoding
starts.

Three child interpreters measure it cleanly (RSS deltas inside one
process are polluted by allocator retention):

* **baseline** — import the stack, build the encoder's HD space, and
  *iterate* the MSP file one spectrum at a time without keeping any.
  Peak RSS here is the floor every ingest pays.
* **monolithic** — parse the full spectrum list, then
  ``LibraryIndex.build`` it.
* **streaming** — ``build_store`` straight off the file iterator.

The gate is self-calibrating: streaming's RSS *above the baseline
floor* must stay under half of monolithic's when the monolithic
overhead is substantial (>= 96 MB), and under 0.9x of it at CI smoke
scale where both overheads are small and noisy.  Row-count parity
between the two builds is asserted so the memory win can never come
from silently ingesting less.  ``REPRO_BENCH_SCALE`` (default 1.0)
scales the library size.  Results append to
``benchmarks/results/BENCH_store.json`` (one entry per run;
gitignored).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from conftest import STORE_KEYS, record_trajectory

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

DIM = 4096
NUM_REFERENCES = max(4000, int(30000 * BENCH_SCALE))
SEGMENT_ROWS = max(512, NUM_REFERENCES // 8)
PEAKS_PER_SPECTRUM = 120

#: Below this monolithic overhead the absolute numbers are too small
#: for a tight ratio; the gate relaxes from 0.5x to 0.9x.
CALIBRATION_FLOOR_MB = 96.0


def _spectra():
    """Generate the synthetic library lazily (the writer streams it)."""
    from repro.ms.spectrum import Spectrum

    rng = np.random.default_rng(41)
    for i in range(NUM_REFERENCES):
        mz = np.sort(rng.uniform(150.0, 1400.0, PEAKS_PER_SPECTRUM))
        intensity = rng.uniform(0.05, 1.0, PEAKS_PER_SPECTRUM)
        yield Spectrum(
            identifier=f"ref-{i}",
            precursor_mz=float(rng.uniform(400.0, 1200.0)),
            precursor_charge=2,
            mz=mz,
            intensity=intensity,
        )


#: Child program: measure peak RSS (VmHWM) around one ingest flavor.
#: argv: mode msp_path store_root segment_rows
_CHILD = r"""
import json, sys
from pathlib import Path

from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.hdc.encoder import SpectrumEncoder
from repro.index.library import LibraryIndex
from repro.ms import iter_spectra
from repro.ms.vectorize import BinningConfig
from repro.store import build_store

mode, msp_path, store_root, segment_rows = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
)
binning = BinningConfig()
space_config = HDSpaceConfig(dim=%(dim)d, num_bins=binning.num_bins, seed=3)
# Every flavor pays the codebook; building it in the baseline keeps the
# reported deltas about *ingest* memory, not the HD space.
encoder = SpectrumEncoder(HDSpace(space_config), binning)

num_references = 0
segments = 0
if mode == "baseline":
    for _ in iter_spectra(msp_path):
        num_references += 1
elif mode == "monolithic":
    spectra = list(iter_spectra(msp_path))
    index = LibraryIndex.build(spectra, encoder=encoder)
    num_references = index.num_references
elif mode == "streaming":
    store = build_store(
        iter_spectra(msp_path),
        store_root,
        encoder=encoder,
        segment_rows=segment_rows,
    )
    num_references = store.num_references
    segments = store.num_segments
    store.close()
else:
    raise SystemExit(f"unknown mode {mode!r}")

hwm_kb = 0
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        hwm_kb = int(line.split()[1])
        break
print(json.dumps({
    "mode": mode,
    "hwm_mb": hwm_kb / 1024.0,
    "num_references": num_references,
    "segments": segments,
}))
""" % {"dim": DIM}


def _run_child(mode: str, msp_path: Path, store_root: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD,
            mode,
            str(msp_path),
            str(store_root),
            str(SEGMENT_ROWS),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, (
        f"{mode} child failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_streaming_ingest_bounds_peak_rss(tmp_path):
    from repro.ms import write_msp

    msp_path = tmp_path / "library.msp"
    write_msp(_spectra(), msp_path)

    started = time.perf_counter()
    baseline = _run_child("baseline", msp_path, tmp_path / "unused")
    monolithic = _run_child("monolithic", msp_path, tmp_path / "unused")
    streaming = _run_child("streaming", msp_path, tmp_path / "store")
    seconds = time.perf_counter() - started

    # The memory win must not come from ingesting fewer rows.
    assert baseline["num_references"] == NUM_REFERENCES
    assert monolithic["num_references"] == streaming["num_references"]
    assert streaming["segments"] >= 2, (
        "library must span several segments for the bound to mean anything"
    )

    mono_extra = monolithic["hwm_mb"] - baseline["hwm_mb"]
    streaming_extra = streaming["hwm_mb"] - baseline["hwm_mb"]
    assert mono_extra > 0, (
        f"monolithic build should cost memory over the iterate-only "
        f"baseline, measured {mono_extra:.1f} MB"
    )
    factor = 0.5 if mono_extra >= CALIBRATION_FLOOR_MB else 0.9
    rss_cap_mb = baseline["hwm_mb"] + factor * mono_extra
    memory_ratio = max(0.0, streaming_extra) / mono_extra

    entry = {
        "bench": "store_streaming_ingest",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "references": NUM_REFERENCES,
        "dim": DIM,
        "segment_rows": SEGMENT_ROWS,
        "segments": streaming["segments"],
        "baseline_mb": round(baseline["hwm_mb"], 2),
        "monolithic_rss_mb": round(monolithic["hwm_mb"], 2),
        "streaming_rss_mb": round(streaming["hwm_mb"], 2),
        "rss_cap_mb": round(rss_cap_mb, 2),
        "memory_ratio": round(memory_ratio, 4),
        "seconds": round(seconds, 2),
    }
    record_trajectory("BENCH_store.json", entry, STORE_KEYS)
    print(
        f"\nstore ingest: {NUM_REFERENCES} refs, baseline "
        f"{baseline['hwm_mb']:.0f} MB, monolithic +{mono_extra:.0f} MB, "
        f"streaming +{streaming_extra:.0f} MB "
        f"(ratio {memory_ratio:.2f}, gate {factor:.1f}x)"
    )

    assert streaming["hwm_mb"] <= rss_cap_mb, (
        f"streaming ingest peaked at {streaming['hwm_mb']:.1f} MB, above "
        f"the {rss_cap_mb:.1f} MB cap (baseline {baseline['hwm_mb']:.1f} "
        f"+ {factor:.1f} x {mono_extra:.1f} MB monolithic overhead)"
    )
