#!/usr/bin/env python
"""Run the online search service end to end, in one process.

The production shape of the system is a long-lived server
(``repro serve``) answering concurrent single-spectrum requests.  This
workflow shows the whole loop without leaving Python:

1. build + persist a library index;
2. start a :class:`~repro.service.SearchService` behind the stdlib
   HTTP server (dynamic micro-batching + LRU result cache);
3. hit it with concurrent :class:`~repro.service.SearchClient` threads
   and verify every PSM is bit-identical to a direct
   ``HDOmsSearcher`` run;
4. resubmit the same spectra to watch the cache absorb them, then hot
   ``/reload`` the index and shut down gracefully.

Run:  python examples/service_workflow.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.hdc import HDSpaceConfig
from repro.index import LibraryIndex
from repro.ms import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms import HDOmsSearcher
from repro.service import SearchClient, SearchService, ServiceConfig, start_server

workload = build_workload(
    WorkloadConfig(
        name="service-workflow",
        num_references=1500,
        num_queries=160,
        modification_probability=0.5,
        seed=17,
    )
)
binning = BinningConfig()
index = LibraryIndex.build(
    workload.references,
    space_config=HDSpaceConfig(
        dim=2048, num_bins=binning.num_bins, num_levels=16, seed=7
    ),
    binning=binning,
    source="service-workflow",
)
baseline = HDOmsSearcher.from_index(index).search(workload.queries)
by_query = {psm.query_id: psm for psm in baseline.psms}

with tempfile.TemporaryDirectory() as tmp:
    path = index.save(Path(tmp) / "library.npz")
    service = SearchService(path, ServiceConfig(cache_capacity=2048))
    server = start_server(service)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    print(f"serving {service.index.summary()} on http://{host}:{port}")

    client = SearchClient(f"http://{host}:{port}")
    results = {}

    def worker(shard: int) -> None:
        for query in workload.queries[shard::8]:
            results[query.identifier] = client.search(query)

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    mismatches = sum(
        1
        for query in workload.queries
        if results[query.identifier] != by_query.get(query.identifier)
    )
    stats = client.stats()
    print(
        f"8 concurrent clients, {len(workload.queries)} spectra in "
        f"{elapsed:.2f}s ({len(workload.queries) / elapsed:.0f} q/s), "
        f"mean batch {stats['scheduler']['mean_batch_size']:.1f}"
    )
    print(f"mismatches vs direct HDOmsSearcher: {mismatches}")
    assert mismatches == 0

    # Same spectra again: the result cache answers without the engine.
    start = time.perf_counter()
    for query in workload.queries[:40]:
        client.search(query)
    cached = time.perf_counter() - start
    print(
        f"40 repeats in {cached * 1000:.0f} ms, cache stats: "
        f"{client.stats()['cache']}"
    )

    print("reload:", client.reload()["status"])
    server.shutdown()
    server.server_close()
    service.close()
    print("drained and closed")
