"""The traced run: per-layer metrics and the wrapper tax ladder.

One fixture (same generator and sizes as the end-to-end workloads) is
walked layer by layer, bottom up.  Every number comes from a span the
harness records around a call into a layer's *public* functions; the
layer is the ``repro`` sub-package name.  Every searcher rung is given
the same open-mode queries and its answers are checked against the
oracle, so a rung that got faster by being wrong fails the run.

Rungs with a result cache (service, HTTP servers, coordinator workers)
only ever see a timed query once per process; warm-ups use a disjoint
set, so caches and lazy opens are settled but never pre-filled.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from functools import cached_property
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

import fixture
import workloads
from procs import BenchError
from repro.ann import AnnConfig, CandidatePrefilter
from repro.constants import DEFAULT_FDR_THRESHOLD
from repro.coord import Coordinator, PartitionPlan
from repro.engine import EngineConfig
from repro.hdc import pack_bipolar
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.decoy import append_decoys
from repro.ms.mgf import read_mgf
from repro.ms.msp import read_msp
from repro.ms.preprocessing import preprocess
from repro.ms.spectrum import Spectrum
from repro.ms.synthetic import REFERENCE_NOISE, SpectrumSimulator
from repro.ms.vectorize import BinningConfig
from repro.obs import get_tracer
from repro.oms import (
    BatchedHDOmsSearcher,
    CandidateIndex,
    DenseBackend,
    HDOmsSearcher,
    HDSearchConfig,
    PSM,
    PackedBackend,
    WindowConfig,
    grouped_fdr,
)
from repro.service import (
    SearchClient,
    SearchService,
    ServiceConfig,
    spectrum_from_payload,
    spectrum_to_payload,
)
from repro.store import (
    SegmentedSearcher,
    SegmentedStore,
    append_store,
    build_store,
    merge_store,
)
from spans import SpanLog

# The CLI's defaults, which the end-to-end workloads run with.
DIM = 8192
LEVELS = 32
ID_BITS = 3
CLI_SEED = 0

#: Library targets at --scale 1.  Larger than the end-to-end library
#: (this run builds it once, not three times) so that open windows
#: exceed the ANN prefilter's default 1024-row threshold.
LIBRARY_TARGETS = 2000

# Query sets at --scale 1.
LADDER_QUERIES = 96  # every searcher rung answers these (128 HTTP requests)
SECOND_QUERIES = 96  # for a second timed pass on a server that saw the first
WARM_QUERIES = 16
STANDARD_QUERIES = 512
SINGLE_QUERIES = 32
COORD_BATCH = 32
ENCODE_BATCH = 256
PROBES = 20  # repetitions of the HTTP round-trip probes

GROUPS = ("ms", "hdc", "oms", "ann", "index", "exec", "store", "service", "coord", "obs")


def _total(text: str, family: str) -> float:
    """Sum of every series of one Prometheus metric family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and line[len(family) : len(family) + 1] in ("{", " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


class Layers:
    """The fixture of the traced run and one method per layer."""

    def __init__(self, ctx: workloads.Context, log: SpanLog) -> None:
        self.ctx = ctx
        self.log = log
        self.metrics: Dict[str, float] = {}
        self.checker = fixture.Checker()
        self.rungs = 0
        sandbox = ctx.sandbox
        sizes = [
            ctx.size(count, 4)
            for count in (
                LADDER_QUERIES, SECOND_QUERIES, WARM_QUERIES, STANDARD_QUERIES,
                SINGLE_QUERIES,
            )
        ]
        targets = ctx.size(LIBRARY_TARGETS, 40)
        inputs = fixture.generate(ctx.seed, targets, sum(sizes), extra=targets // 4)
        self.modified = inputs.modified
        self.library_path = fixture.write_library(inputs.library, sandbox.path("library.msp"))
        self.append_path = fixture.write_library(inputs.extra, sandbox.path("append.msp"))
        self.queries_path = sandbox.path("queries.mgf")
        queries = fixture.write_queries(inputs.queries, self.queries_path)
        bounds = np.cumsum([0] + sizes)
        self.ladder, self.second, self.warm, self.standard, self.single = (
            queries[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        self.segment_rows = ctx.size(fixture.SEGMENT_ROWS, 20)
        self.binning = BinningConfig()
        self.space_config = HDSpaceConfig(
            dim=DIM, num_bins=self.binning.num_bins, num_levels=LEVELS,
            id_precision_bits=ID_BITS, seed=CLI_SEED,
        )
        self.index_path = sandbox.path("layer-index.npz")
        self.store_path = sandbox.path("layer-store")

    # ------------------------------------------------------------------
    # shared pieces, built on first use
    # ------------------------------------------------------------------

    def _with_decoys(self, targets: Sequence[Spectrum]) -> List[Spectrum]:
        """Targets plus one simulated decoy each, as the CLI's ingest adds."""
        simulator = SpectrumSimulator(seed=CLI_SEED)

        def factory(peptide, charge, identifier):
            return simulator.spectrum(peptide, charge, identifier, noise=REFERENCE_NOISE)

        return append_decoys(targets, factory, seed=CLI_SEED)

    @cached_property
    def references(self) -> List[Spectrum]:
        """The library as the CLI ingests it: file targets, then decoys."""
        with self.log.span("ms.read_msp") as span:
            targets = list(read_msp(self.library_path))
        self.metrics["ms.read_msp_spectra_per_s"] = len(targets) / span.seconds
        return self._with_decoys(targets)

    @cached_property
    def index(self) -> LibraryIndex:
        """The built, saved and memory-mapped index (times all three)."""
        references = self.references
        with self.log.span("index.build", rows=len(references)) as span:
            built = LibraryIndex.build(
                references, space_config=self.space_config, binning=self.binning
            )
        self.metrics["index.build_rows_per_s"] = built.num_references / span.seconds
        with self.log.span("index.save") as span:
            saved = built.save(self.index_path)
        self.metrics["index.save_s"] = span.seconds
        self.metrics["index.bytes_per_row"] = saved.stat().st_size / built.num_references
        with self.log.span("index.load") as span:
            loaded = LibraryIndex.load(self.index_path)
        self.metrics["index.load_ms"] = 1000.0 * span.seconds
        return loaded

    @cached_property
    def oracle(self) -> fixture.Oracle:
        """The brute-force searcher every rung is compared with."""
        return fixture.Oracle(self.index, "open")

    @cached_property
    def expected(self) -> Dict[str, Optional[PSM]]:
        """Oracle answers for every open-mode query any rung is sent."""
        everything = self.ladder + self.second + self.warm + self.single
        return self.ctx.expect(self.oracle, everything)

    @cached_property
    def batched(self) -> BatchedHDOmsSearcher:
        """The dense batched searcher (the service's default engine)."""
        return BatchedHDOmsSearcher.from_index(self.index, mode="open")

    @cached_property
    def ann_index(self) -> LibraryIndex:
        """A second mapping of the index, carrying default-config ANN tables."""
        index = LibraryIndex.load(self.index_path)
        with self.log.span("ann.build", rows=index.num_references) as span:
            index.attach_ann(AnnConfig())
        self.metrics["ann.build_s"] = span.seconds
        return index

    @cached_property
    def ann_searcher(self) -> BatchedHDOmsSearcher:
        """The batched searcher behind the default-config ANN prefilter."""
        return BatchedHDOmsSearcher.from_index(self.ann_index, mode="open", ann=AnnConfig())

    @cached_property
    def encoded_ladder(self) -> List[tuple]:
        """``(query, hypervector)`` for each ladder query that passes QC."""
        encoder = self.index.make_encoder()
        kept = [
            (query, processed)
            for query in self.ladder
            for processed in [preprocess(query, self.index.preprocessing)]
            if processed is not None
        ]
        hvs = encoder.encode_batch([processed for _, processed in kept])
        return [(query, hv) for (query, _), hv in zip(kept, hvs)]

    @cached_property
    def store(self) -> Path:
        """The segmented store of the same library (times the build)."""
        references = self.references
        with self.log.span("store.build", rows=len(references)) as span:
            built = build_store(
                iter(references), self.store_path, space_config=self.space_config,
                binning=self.binning, segment_rows=self.segment_rows,
            )
        self.metrics["store.build_rows_per_s"] = built.num_references / span.seconds
        built.close()
        return self.store_path

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check(self, psms: Iterable[Optional[PSM]], queries: Sequence[Spectrum]) -> None:
        got = fixture.answers(psms, queries)
        self.checker.check_psms({query_id: self.expected[query_id] for query_id in got}, got)
        self.rungs += 1

    def _rung(
        self,
        name: str,
        search: Callable[[Sequence[Spectrum]], Iterable[Optional[PSM]]],
        queries: Optional[Sequence[Spectrum]] = None,
    ) -> float:
        """Warm ``search`` up, time it on ``queries``, check, return q/s."""
        queries = self.ladder if queries is None else queries
        self._check(search(self.warm), self.warm)
        with self.log.span(name, queries=len(queries)) as span:
            psms = list(search(queries))
        self._check(psms, queries)
        return len(queries) / span.seconds

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------

    def ms(self) -> None:
        """File parsing and preprocessing rates."""
        _ = self.references  # times read_msp
        with self.log.span("ms.read_mgf") as span:
            parsed = list(read_mgf(self.queries_path))
        self.metrics["ms.read_mgf_spectra_per_s"] = len(parsed) / span.seconds
        config = self.index.preprocessing
        with self.log.span("ms.preprocess", spectra=len(parsed)) as span:
            kept = sum(preprocess(query, config) is not None for query in parsed)
        self.metrics["ms.preprocess_spectra_per_s"] = len(parsed) / span.seconds
        self.metrics["ms.preprocess_kept_share"] = kept / len(parsed)

    def hdc(self) -> None:
        """Encoding (fused batch, one at a time) and bit-packing rates."""
        encoder = self.index.make_encoder()
        config = self.index.preprocessing
        processed = [
            result
            for query in self.standard + self.ladder
            for result in [preprocess(query, config)]
            if result is not None
        ]
        # The ID codebook is gathered lazily until demand justifies the
        # contiguous bank; one untimed batch settles that.
        encoder.encode_batch(processed[: ENCODE_BATCH])
        with self.log.span("hdc.encode_batch", spectra=len(processed)) as span:
            for chunk in fixture.chunks(processed, ENCODE_BATCH):
                encoder.encode_batch(chunk)
        self.metrics["hdc.encode_batch_spectra_per_s"] = len(processed) / span.seconds
        singles = processed[: len(self.single)]
        with self.log.span("hdc.encode_single", spectra=len(singles)) as span:
            for spectrum in singles:
                encoder.encode(spectrum)
        self.metrics["hdc.encode_single_spectra_per_s"] = len(singles) / span.seconds
        hypervectors = self.index.hypervectors()
        with self.log.span("hdc.pack", rows=len(hypervectors)) as span:
            pack_bipolar(hypervectors)
        self.metrics["hdc.pack_rows_per_s"] = len(hypervectors) / span.seconds

    def oms(self) -> None:
        """Windows, the two scoring backends, the two searchers, and FDR."""
        index = self.index
        candidates = CandidateIndex(index.records(), WindowConfig())
        with self.log.span("oms.select_window") as span:
            open_rows = [len(candidates.select_open(q)) for q in self.ladder]
            standard_rows = [len(candidates.select_standard(q)) for q in self.standard]
        selections = len(open_rows) + len(standard_rows)
        self.metrics["oms.window_open_rows_mean"] = float(np.mean(open_rows))
        self.metrics["oms.window_standard_rows_mean"] = float(np.mean(standard_rows))
        self.metrics["oms.select_window_per_s"] = selections / span.seconds

        hypervectors = index.hypervectors()
        windows = [(hv, candidates.select_open(query)) for query, hv in self.encoded_ladder]
        rows = sum(len(positions) for _, positions in windows)
        for label, backend in (("dense", DenseBackend()), ("packed", PackedBackend())):
            backend.prepare(hypervectors)
            with self.log.span(f"oms.score_{label}", rows=rows) as span:
                for hv, positions in windows:
                    if len(positions):
                        backend.scores(hv, positions)
            self.metrics[f"oms.{label}_rows_scored_per_s"] = rows / span.seconds

        # The ladder's base is the brute-force searcher as a caller gets it
        # (dense backend), not the packed one the checks use for speed.
        brute = HDOmsSearcher.from_index(index, config=HDSearchConfig(mode="open"))
        self.metrics["oms.oracle_qps"] = self._rung(
            "oms.oracle", lambda queries: brute.search(queries).psms
        )
        del brute
        self.metrics["oms.batched_qps"] = self._rung(
            "oms.batched", lambda queries: self.batched.search(queries).psms
        )
        standard = BatchedHDOmsSearcher.from_index(index, mode="standard")
        standard.search(self.warm)
        with self.log.span("oms.batched_standard", queries=len(self.standard)) as span:
            standard_psms = standard.search(self.standard).psms
        self.metrics["oms.batched_standard_qps"] = len(self.standard) / span.seconds

        psms = [psm for psm in self.expected.values() if psm is not None] + standard_psms
        copies = [[dataclasses.replace(psm) for psm in psms] for _ in range(20)]
        with self.log.span("oms.fdr", psms=len(psms) * len(copies)) as span:
            for copy in copies:
                grouped_fdr(copy, DEFAULT_FDR_THRESHOLD)
        self.metrics["oms.fdr_psms_per_s"] = len(psms) * len(copies) / span.seconds

        clean = [self.expected[query.identifier] for query in self.ladder]
        noisy = fixture.Oracle(index, "open", query_ber=0.10).expect(self.ladder)
        ids = len(fixture.accepted_at_fdr(clean))
        ids_noisy = len(fixture.accepted_at_fdr(noisy.values()))
        self.metrics["oms.ids_1pct_fdr"] = float(ids)
        self.metrics["oms.ber10_id_retention"] = ids_noisy / ids if ids else 0.0

    def ann(self) -> None:
        """The default-config Hamming-LSH prefilter on the realistic queries."""
        index = self.ann_index
        prefilter = CandidatePrefilter(index.ann, index.neutral_masses, index.charges)
        half_width = WindowConfig().open_window_da
        with self.log.span("ann.select", queries=len(self.encoded_ladder)) as span:
            selections = [
                prefilter.select(hv, query.neutral_mass, query.precursor_charge, half_width)
                for query, hv in self.encoded_ladder
            ]
        shortlisted = sum(len(s.positions) for s in selections)
        window_rows = sum(s.window_count for s in selections)
        self.metrics["ann.select_us_per_query"] = 1e6 * span.seconds / len(selections)
        self.metrics["ann.shortlist_rows_mean"] = shortlisted / len(selections)
        self.metrics["ann.candidate_ratio"] = shortlisted / window_rows if window_rows else 1.0
        self.metrics["ann.fallback_share"] = (
            sum(s.outcome == "fallback" for s in selections) / len(selections)
        )

        searcher = self.ann_searcher
        searcher.search(self.warm)
        with self.log.span("ann.prefiltered", queries=len(self.ladder)) as span:
            got = fixture.answers(searcher.search(self.ladder).psms, self.ladder)
        self.metrics["ann.prefiltered_qps"] = len(self.ladder) / span.seconds
        # Recall is measured, not gated: the shortlist may drop the true
        # best row, and then the answer legitimately differs.
        matched = [q for q in self.ladder if self.expected[q.identifier] is not None]

        def recall(queries: Sequence[Spectrum]) -> float:
            if not queries:
                return 1.0
            hits = sum(got[q.identifier] == self.expected[q.identifier] for q in queries)
            return hits / len(queries)

        self.metrics["ann.top1_recall"] = recall(matched)
        self.metrics["ann.top1_recall_modified"] = recall(
            [q for q in matched if q.identifier in self.modified]
        )
        self.metrics["ann.top1_recall_unmodified"] = recall(
            [q for q in matched if q.identifier not in self.modified]
        )

    def index_layer(self) -> None:
        """Build/save/load (timed on first use) and the serial sharded rung."""
        engine = EngineConfig(kind="sharded", num_shards=1, num_workers=0)
        with ShardedSearcher(self.index, engine=engine) as searcher:
            self.metrics["index.sharded_serial_qps"] = self._rung(
                "index.sharded_serial", lambda queries: searcher.search(queries).psms
            )

    def exec_layer(self) -> None:
        """Two shards on two workers: threads, then processes, cold and warm."""
        for kind in ("thread", "process"):
            engine = EngineConfig(
                kind="sharded", num_shards=2, num_workers=2, executor=kind
            )
            with self.log.span(f"exec.{kind}_cold") as span:
                searcher = ShardedSearcher(self.index, engine=engine)
                first = searcher.search(self.warm).psms
            try:
                self._check(first, self.warm)
                self.metrics[f"exec.{kind}_cold_s"] = span.seconds
                self.metrics[f"exec.{kind}_warm_qps"] = self._rung(
                    f"exec.{kind}_warm", lambda queries: searcher.search(queries).psms
                )
                self.metrics["exec.arena_bytes"] = float(searcher.arena_nbytes)
            finally:
                searcher.close()
        # What the default CLI search pays before its first answer:
        # interpreter, imports, index open, one-worker process pool.
        one_query = self.ctx.sandbox.path("one.mgf")
        fixture.write_queries(self.warm[:1], one_query)
        self.metrics["ladder.cli_startup_s"] = median(
            self.ctx.sandbox.cli(
                "index", "search", "--index", self.index_path, "--queries", one_query,
                "--output", self.ctx.sandbox.path("one.tsv"),
            ).wall_s
            for _ in range(self.ctx.repeats)
        )

    def store_layer(self) -> None:
        """Store build, append, merge, open, and the segmented rung."""
        store_path = self.store
        grown = self.ctx.sandbox.path("layer-store-grown")
        shutil.copytree(store_path, grown)
        with SegmentedStore.open(grown) as before:
            rows_before = before.num_references
        extra = self._with_decoys(list(read_msp(self.append_path)))
        with self.log.span("store.append", rows=len(extra)) as span:
            after = append_store(grown, iter(extra), segment_rows=self.segment_rows)
        appended = after.num_references - rows_before
        after.close()
        self.metrics["store.append_rows_per_s"] = appended / span.seconds
        with self.log.span("store.merge") as span:
            merge_store(grown, target_rows=2 * self.segment_rows).close()
        self.metrics["store.merge_s"] = span.seconds

        with self.log.span("store.open") as span:
            opened = SegmentedStore.open(store_path)
        self.metrics["store.open_ms"] = 1000.0 * span.seconds
        opened.close()

        # num_workers=None is what `repro index search` passes by default.
        engine = EngineConfig(kind="segmented", num_workers=None)
        with SegmentedSearcher(store_path, engine=engine) as searcher:
            self.metrics["store.segmented_qps"] = self._rung(
                "store.segmented", lambda queries: searcher.search(queries).psms
            )
            self.metrics["store.segments_opened_open"] = float(searcher.segments_opened)
        with SegmentedSearcher(
            store_path, config=HDSearchConfig(mode="standard"), engine=engine
        ) as searcher:
            with self.log.span("store.segmented_standard", queries=len(self.standard)):
                searcher.search(self.standard)
            self.metrics["store.segments_opened_standard"] = float(searcher.segments_opened)

    def service(self) -> None:
        """The service in-process, its wire format, and the real HTTP server."""
        _ = self.index  # the service loads the saved index by path
        with SearchService(self.index_path, ServiceConfig()) as service:
            self.metrics["service.inprocess_qps"] = self._rung(
                "service.inprocess", service.search_many
            )
            with self.log.span("service.search_one", queries=len(self.single)) as span:
                singles = [service.search_one(query) for query in self.single]
            self._check(singles, self.single)
            self.metrics["service.search_one_ms"] = 1000.0 * span.seconds / len(self.single)

        with self.log.span("service.wire_encode", spectra=len(self.ladder)) as span:
            bodies = [
                json.dumps({"spectrum": spectrum_to_payload(query)}) for query in self.ladder
            ]
        self.metrics["service.wire_encode_us"] = 1e6 * span.seconds / len(bodies)
        with self.log.span("service.wire_decode", spectra=len(bodies)) as span:
            for body in bodies:
                spectrum_from_payload(json.loads(body)["spectrum"])
        self.metrics["service.wire_decode_us"] = 1e6 * span.seconds / len(bodies)

        server = self.ctx.sandbox.serve("serve", "--index", self.index_path, "--port", 0)
        try:
            clients = workloads.SERVE_CLIENTS
            warm = workloads.drive_search(
                server.url, [self.warm[slot::clients] for slot in range(clients)],
                workloads.NO_DEADLINE,
            )
            streams = workloads.serve_streams(self.ladder, self.ctx.seed)
            with self.log.span("ladder.serve_single") as span:
                timed = workloads.drive_search(server.url, streams, workloads.NO_DEADLINE)
            replies = [reply for per_client in warm + timed for reply in per_client]
            if not all(reply.ok for reply in replies):
                raise BenchError("a /search request failed during the traced run")
            workloads.check_replies(self.checker, self.expected, replies)
            self.rungs += 1
            latencies = [reply.latency_ms for per_client in timed for reply in per_client]
            self.metrics["ladder.serve_startup_s"] = server.startup_s
            self.metrics["ladder.serve_single_qps"] = len(latencies) / span.seconds
            self.metrics["ladder.serve_single_p50_ms"] = float(np.percentile(latencies, 50))
            self.metrics["ladder.serve_single_p95_ms"] = float(np.percentile(latencies, 95))
            stats = json.loads(server.get("/stats"))
            self.metrics["service.mean_batch_size"] = stats["scheduler"]["mean_batch_size"]
            self.metrics["service.queue_wait_ms_mean"] = stats["scheduler"]["mean_queue_wait_ms"]
            cache = stats["cache"]
            self.metrics["service.cache_hit_share"] = cache["hits"] / (
                cache["hits"] + cache["misses"]
            )
            with SearchClient(server.url) as client:
                self.metrics["service.http_rtt_ms"] = _probe_ms(client.healthz)
                repeat = self.ladder[0]
                self.metrics["service.http_cached_search_ms"] = _probe_ms(
                    lambda: client.search(repeat)
                )
        finally:
            server.stop()

    def coord(self) -> None:
        """The coordinator: over HTTP, in-process, and with one worker."""
        store_path = self.store
        batches = fixture.chunks(self.ladder, self.ctx.size(COORD_BATCH, 4))
        second = fixture.chunks(self.second, self.ctx.size(COORD_BATCH, 4))
        server = self.ctx.sandbox.serve(
            "coordinate", "--store", store_path, "--partitions", 2,
            "--spawn-workers", "--port", 0,
        )
        try:
            warm = workloads.drive_search_batch(server.url, [self.warm], workloads.NO_DEADLINE)
            with self.log.span("ladder.coordinate_batch", queries=len(self.ladder)) as span:
                timed = workloads.drive_search_batch(server.url, batches, workloads.NO_DEADLINE)
            if not all(reply.ok for reply in warm + timed):
                raise BenchError("a /search_batch request failed during the traced run")
            workloads.check_replies(self.checker, self.expected, warm + timed)
            self.rungs += 1
            self.metrics["ladder.coordinate_startup_s"] = server.startup_s
            self.metrics["ladder.coordinate_batch_qps"] = len(self.ladder) / span.seconds
            text = server.get("/metrics")
            routed = _total(text, "hdoms_coord_fanout_partitions_count")
            partitions = 2
            self.metrics["coord.fanout_mean"] = (
                _total(text, "hdoms_coord_fanout_partitions_sum") / routed
            )
            self.metrics["coord.skipped_share"] = _total(text, "hdoms_coord_skipped_total") / (
                routed * partitions
            )
            self.metrics["coord.hedges"] = _total(text, "hdoms_coord_hedges_total")
            self.metrics["coord.retries"] = _total(text, "hdoms_coord_retries_total")
            self.metrics["coord.worker_errors"] = _total(text, "hdoms_coord_worker_errors_total")

            # The same two workers behind an in-process Coordinator: the
            # difference to the rung above is the front HTTP hop.
            urls = [
                [worker["url"] for worker in partition["workers"]]
                for partition in json.loads(server.get("/stats"))["partitions"]
            ]
            with SegmentedStore.open(store_path) as store:
                plan = PartitionPlan.build(store, partitions)
            self.metrics["coord.inprocess_qps"] = self._coordinator_rung(
                "coord.inprocess", plan, urls, second, merge_metric=True
            )
        finally:
            server.stop()

        worker = self.ctx.sandbox.serve("serve", "--index", store_path, "--port", 0)
        try:
            with SegmentedStore.open(store_path) as store:
                plan = PartitionPlan.build(store, 1)
            self.metrics["coord.one_worker_qps"] = self._coordinator_rung(
                "coord.one_worker", plan, [[worker.url]], batches
            )
        finally:
            worker.stop()

    def _coordinator_rung(
        self,
        name: str,
        plan: PartitionPlan,
        urls: Sequence[Sequence[str]],
        batches: Sequence[Sequence[Spectrum]],
        merge_metric: bool = False,
    ) -> float:
        """Time ``Coordinator.search_payloads`` over ``batches``; return q/s."""
        tracer = get_tracer()
        payloads = [[spectrum_to_payload(query) for query in batch] for batch in batches]
        with Coordinator(plan.partitions, urls) as coordinator:
            coordinator.wait_ready()
            coordinator.search_payloads([spectrum_to_payload(query) for query in self.warm])
            tracer.enable()
            tracer.clear()
            try:
                with self.log.span(name) as span:
                    merged = [coordinator.search_payloads(batch) for batch in payloads]
                merge_seconds = sum(
                    record.duration for record in tracer.records() if record.name == "coord.merge"
                )
            finally:
                tracer.disable()
        queries = [query for batch in batches for query in batch]
        psms = [
            PSM.from_dict(payload) if payload is not None else None
            for batch in merged
            for payload in batch
        ]
        self._check(psms, queries)
        if merge_metric:
            self.metrics["coord.merge_us_per_query"] = 1e6 * merge_seconds / len(queries)
        return len(queries) / span.seconds

    def obs(self) -> None:
        """What ``repro.obs`` tracing costs, and self time of its spans."""
        tracer = get_tracer()
        searcher = self.batched
        searcher.search(self.warm)
        plain: List[float] = []
        traced: List[float] = []
        for _ in range(3):
            for enabled, times in ((False, plain), (True, traced)):
                if enabled:
                    tracer.enable()
                try:
                    start = time.perf_counter()
                    searcher.search(self.ladder)
                    times.append(time.perf_counter() - start)
                finally:
                    tracer.disable()
        self.metrics["obs.tracing_overhead_share"] = 1.0 - median(plain) / median(traced)

        sample = self.ladder[: max(4, len(self.ladder) // 4)]
        engine = EngineConfig(kind="sharded", num_shards=2, num_workers=2, executor="thread")
        tracer.enable(1 << 17)
        tracer.clear()
        try:
            self.oracle.searcher.search(sample)
            self.ann_searcher.search(sample)
            with ShardedSearcher(self.index, engine=engine) as sharded:
                sharded.search(sample)
            records = tracer.records()
        finally:
            tracer.disable()
            tracer.clear()
        covered: Dict[int, float] = {}
        for record in records:
            if record.parent_id is not None:
                covered[record.parent_id] = covered.get(record.parent_id, 0.0) + record.duration
        for span_name in ("encode.batch", "score.window", "ann.prefilter",
                          "shard.fanout", "shard.score"):
            self.metrics["obs.self_s." + span_name.replace(".", "_")] = sum(
                record.duration - covered.get(record.span_id, 0.0)
                for record in records
                if record.name == span_name
            )


def _probe_ms(call: Callable[[], object]) -> float:
    """Median latency in ms of ``PROBES`` sequential calls (after one)."""
    call()
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1000.0 * median(times)


def run(
    ctx: workloads.Context, selected: Optional[Sequence[str]], span_sink: Optional[Path]
) -> workloads.Outcome:
    """Measure the selected layers (default: all) and return the outcome."""
    selected = list(selected) if selected else list(GROUPS)
    unknown = [name for name in selected if name not in GROUPS]
    if unknown:
        raise BenchError(f"unknown layer(s) {unknown}; pick from {list(GROUPS)}")
    log = SpanLog(ctx.sandbox.run_id)
    layers = Layers(ctx, log)
    methods = {
        "ms": layers.ms, "hdc": layers.hdc, "oms": layers.oms, "ann": layers.ann,
        "index": layers.index_layer, "exec": layers.exec_layer,
        "store": layers.store_layer, "service": layers.service,
        "coord": layers.coord, "obs": layers.obs,
    }
    try:
        for name in GROUPS:
            if name in selected:
                with log.span(f"layer.{name}"):
                    methods[name]()
    finally:
        # Spans live in memory until the run ends; this is the one write.
        if span_sink is not None:
            log.dump(span_sink)
    details: Dict[str, object] = {"layers": ",".join(selected), "spans": len(log.spans)}
    details.update(
        (f"{span.name}_s", span.seconds) for span in log.spans if span.parent is None
    )
    return workloads.Outcome(layers.metrics, layers.rungs, 0, layers.checker, details)
