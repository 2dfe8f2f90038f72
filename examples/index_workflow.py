#!/usr/bin/env python
"""Build the library index once, then search it many times.

The expensive stage of HD open modification search is encoding the
reference library into hypervectors.  This workflow shows the
production shape of the system:

1. encode + persist the library as a ``.npz`` index (pay once);
2. reload it (memory-mapped, milliseconds) and serve query batches —
   here twice: single-process via ``HDOmsSearcher.from_index`` and
   sharded across scoring threads via ``SegmentedSearcher``, which
   adopts the loaded index as a one-segment store and splits it into
   row ranges;
3. verify both returned exactly the same PSMs as a searcher built from
   scratch.

With ``--ann``, a third search runs through the approximate candidate
pass (a search-time option: nothing is built or persisted; see
docs/ann-tuning.md), reporting how many of its PSMs match the exact
ones.

Run:  python examples/index_workflow.py [--ann]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.ann import AnnConfig
from repro.engine import EngineConfig
from repro.hdc import HDSpaceConfig, SpectrumEncoder, HDSpace
from repro.index import LibraryIndex
from repro.ms import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms import HDOmsSearcher, HDSearchConfig
from repro.store import SegmentedSearcher

USE_ANN = "--ann" in sys.argv[1:]
# A low threshold and a quarter-row prefix (8 of the 32 words of a
# D = 2048 row) so the coarse pass engages on this small demo library;
# production libraries should keep the defaults (see docs).
ANN = AnnConfig(prefix_words=8, ann_threshold=256) if USE_ANN else None

workload = build_workload(
    WorkloadConfig(
        name="index-workflow",
        num_references=1500,
        num_queries=200,
        modification_probability=0.5,
        seed=17,
    )
)
binning = BinningConfig()
space_config = HDSpaceConfig(
    dim=2048, num_bins=binning.num_bins, num_levels=16, id_precision_bits=3, seed=7
)

with tempfile.TemporaryDirectory() as scratch:
    index_path = Path(scratch) / "library.npz"

    # --- 1. build once ------------------------------------------------
    start = time.perf_counter()
    index = LibraryIndex.build(
        workload.references,
        space_config=space_config,
        binning=binning,
        source="index_workflow example",
    )
    saved = index.save(index_path)
    build_s = time.perf_counter() - start
    print(index.summary())
    print(f"build + save        : {build_s * 1000:8.1f} ms -> {saved.name}")

    # --- 2a. search #1: reload, single process ------------------------
    start = time.perf_counter()
    loaded = LibraryIndex.load(saved)
    searcher = HDOmsSearcher.from_index(loaded)
    first = searcher.search(workload.queries)
    first_s = time.perf_counter() - start
    print(f"search #1 (1 proc)  : {first_s * 1000:8.1f} ms, {len(first.psms)} PSMs")

    # --- 2b. search #2: same index, sharded fan-out -------------------
    start = time.perf_counter()
    engine = EngineConfig(num_shards=4, num_workers=None)  # one thread per core
    with SegmentedSearcher(loaded, engine=engine) as sharded:
        second = sharded.search(workload.queries)
    second_s = time.perf_counter() - start
    print(
        f"search #2 (sharded) : {second_s * 1000:8.1f} ms, "
        f"{len(second.psms)} PSMs on {second.backend_name}"
    )

    # --- 2c. optional: the ANN candidate pass over the same rows ------
    if USE_ANN:
        start = time.perf_counter()
        ann_searcher = HDOmsSearcher.from_index(
            loaded, config=HDSearchConfig(ann=ANN)
        )
        approx = ann_searcher.search(workload.queries)
        ann_s = time.perf_counter() - start
        exact_triples = {
            (p.query_id, p.reference_id, p.score) for p in first.psms
        }
        agree = sum(
            (p.query_id, p.reference_id, p.score) in exact_triples
            for p in approx.psms
        )
        print(
            f"search #3 (ANN)     : {ann_s * 1000:8.1f} ms, "
            f"{len(approx.psms)} PSMs, {agree}/{len(approx.psms)} "
            f"identical to exact (see docs/ann-tuning.md)"
        )

# --- 3. parity with the from-scratch searcher -------------------------
start = time.perf_counter()
scratch_searcher = HDOmsSearcher(
    SpectrumEncoder(HDSpace(space_config), binning), workload.references
)
reference = scratch_searcher.search(workload.queries)
scratch_s = time.perf_counter() - start
print(f"from-scratch search : {scratch_s * 1000:8.1f} ms (encodes everything)")

assert first.psms == reference.psms == second.psms
amortised = build_s + first_s + second_s
print(
    f"\nPSMs identical across all three paths. "
    f"Build-once + two searches took {amortised * 1000:.0f} ms vs "
    f"{2 * scratch_s * 1000:.0f} ms for two from-scratch runs."
)
