#!/usr/bin/env python
"""Serve two spectral libraries from one process, with metrics.

A production deployment rarely fronts a single library: per-organism
and per-instrument libraries coexist behind one endpoint.  This
workflow demonstrates the multi-index service end to end:

1. build + persist two independent library indexes ("yeast"-like and
   "human"-like synthetic stand-ins);
2. front both with one :class:`~repro.service.IndexRegistry` behind the
   stdlib HTTP server — each route gets its own result cache and
   micro-batch scheduler;
3. search the same spectra on both routes and verify each answer is
   bit-identical to a direct ``HDOmsSearcher`` run on that route's
   index (routing correctness);
4. hot-add a third route with ``/reload``, swap one route while the
   other keeps its warm cache, then scrape ``/metrics`` and show the
   per-route Prometheus counters.

Run:  python examples/multi_index_service.py
"""

import tempfile
import threading
from pathlib import Path

from repro.hdc import HDSpaceConfig
from repro.index import LibraryIndex
from repro.ms import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms import HDOmsSearcher
from repro.service import IndexRegistry, SearchClient, start_server

binning = BinningConfig()


def build_library(name, num_references, seed):
    workload = build_workload(
        WorkloadConfig(
            name=name,
            num_references=num_references,
            num_queries=60,
            modification_probability=0.5,
            seed=seed,
        )
    )
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=2048, num_bins=binning.num_bins, num_levels=16, seed=7
        ),
        binning=binning,
        source=name,
    )
    return workload, index


yeast_workload, yeast_index = build_library("yeastlike", 1200, seed=17)
human_workload, human_index = build_library("humanlike", 1600, seed=23)

# Route-level ground truth: the same query spectra, searched directly
# against each index.
queries = yeast_workload.queries
truth = {}
for route, index in (("yeast", yeast_index), ("human", human_index)):
    result = HDOmsSearcher.from_index(index).search(queries)
    truth[route] = {psm.query_id: psm for psm in result.psms}

with tempfile.TemporaryDirectory() as tmp:
    yeast_path = yeast_index.save(Path(tmp) / "yeast.npz")
    human_path = human_index.save(Path(tmp) / "human.npz")

    registry = IndexRegistry(
        {"yeast": yeast_path, "human": human_path},
        default_route="yeast",
    )
    server = start_server(registry)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = SearchClient(f"http://{host}:{port}")
    print(f"serving routes {registry.route_names()} on port {port}")

    # -- routing correctness -------------------------------------------
    differing = 0
    for query in queries:
        default_psm = client.search(query)  # default route = yeast
        human_psm = client.search(query, route="human")
        assert default_psm == truth["yeast"].get(query.identifier)
        assert human_psm == truth["human"].get(query.identifier)
        if default_psm != human_psm:
            differing += 1
    print(
        f"searched {len(queries)} spectra on both routes: "
        f"{differing} answered differently (different libraries), "
        "every answer bit-identical to its route's direct searcher"
    )

    # -- per-route cache isolation -------------------------------------
    fresh = human_workload.queries[0]  # never searched anywhere yet
    client.search(fresh)  # warm it on yeast...
    repeat = client.search_detailed(fresh)
    assert repeat["cached"] is True
    cold = client.search_detailed(fresh, route="human")
    assert cold["cached"] is False  # ...yeast's hit never pre-warms human
    print(
        f"cache isolation: repeat on yeast cached={repeat['cached']}, "
        f"same spectrum on human cached={cold['cached']}"
    )

    # -- live route management -----------------------------------------
    reply = client.reload(human_path, route="mouse")  # hot-add
    print(f"added route {reply['route']!r}; serving {reply['routes']}")
    client.reload(route="human")  # swap human in place
    still_cached = client.search_detailed(queries[0])["cached"]
    print(f"yeast cache survived human's reload: cached={still_cached}")
    client.reload(route="mouse", remove=True)
    print(f"removed route 'mouse'; serving {client.healthz()['routes'].keys()}")

    # -- metrics -------------------------------------------------------
    interesting = (
        "hdoms_service_requests_total",
        "hdoms_service_cache_lookups_total",
        "hdoms_service_reloads_total",
    )
    print("\n/metrics excerpt:")
    for line in client.metrics().splitlines():
        if line.startswith(interesting):
            print(" ", line)

    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    registry.close()
    print("\nserver drained and closed")
