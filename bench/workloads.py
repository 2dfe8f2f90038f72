"""The five black-box workloads.

Each drives the program only through its two stable public surfaces —
``repro`` CLI verbs run as subprocesses, and the HTTP JSON API of
``repro serve`` / ``repro coordinate`` — so searcher and server classes
can be merged or renamed without touching this file.  All load is
closed-loop: a caller waits for each reply before sending the next.

Every workload follows one shape, so every workload can report every
end-to-end metric:

1. **set-up** — ``repro index build`` (on ``ingest_append_merge``:
   build, append, merge) turns the generated library into the index or
   store the workload searches; it is repeated and the median wall is
   ``setup_s``;
2. **warm-up** — untimed, on inputs the timed part never reuses;
3. **timed part** — for ``--seconds``; throughput and latency come from
   here, and every answer is checked against the oracle.
"""

from __future__ import annotations

import random
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import fixture
from procs import CliResult, Sandbox, Server, tree_bytes
from repro.ms.spectrum import Spectrum
from repro.oms import PSM
from repro.service import SearchClient, ServiceError

#: Times the set-up is repeated per run; ``setup_s`` is the median.
REPEATS = 3

#: Below this ``--scale`` a run is a smoke test: nothing is repeated.
SMOKE_SCALE = 0.25

#: Fewest timed CLI calls (or ingest cycles) however short ``--seconds`` is.
MIN_TIMED_CALLS = 3

#: Disjoint query files the CLI workloads cycle through.
CLI_PASS_FILES = 3

#: The CLI warm-up searches a file this many times smaller than a timed one.
CLI_WARM_DIVISOR = 3

#: A failed request counts as a latency miss: it is charged this much.
FAILED_REQUEST_MS = 60_000.0

# Sizes at --scale 1 (queries per call / request).
OPEN_QUERIES_PER_CALL = 96
STANDARD_QUERIES_PER_CALL = 768
INGEST_QUERIES_PER_CALL = 48
SERVE_CLIENTS = 2
SERVE_WARMUP = 32
SERVE_POOL = 1200
SERVE_REPEAT_EVERY = 4  # every 4th request repeats an earlier spectrum: 25%
COORD_BATCH = 32
COORD_POOL_BATCHES = 72


@dataclass
class Outcome:
    """What one workload run produced.

    Attributes:
        metrics: Every end-to-end metric, by name.
        attempted: Operations attempted (CLI calls or HTTP requests).
        failed: Operations that failed, were refused, or exited non-zero.
        checker: The oracle comparison over every answer received.
        details: Extra, ungated numbers for the human report (sample
            counts, ``search_p95_ms``, ``startup_s``, ``merge_s``,
            identifications at 1% FDR, cache-hit share).
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checker: fixture.Checker
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    """Arguments shared by every workload."""

    sandbox: Sandbox
    seed: int
    seconds: float
    scale: float
    corrupt_oracle: bool = False

    @property
    def repeats(self) -> int:
        """Set-up repetitions: ``REPEATS``, or 1 at smoke size."""
        return 1 if self.scale < SMOKE_SCALE else REPEATS

    def size(self, count: int, minimum: int = 1) -> int:
        """``count`` scaled by ``--scale``."""
        return fixture.scaled(count, self.scale, minimum)

    def expect(
        self, oracle: fixture.Oracle, queries: Sequence[Spectrum]
    ) -> Dict[str, Optional[PSM]]:
        """Oracle answers, falsified once when the self-check asks for it."""
        expected = oracle.expect(queries)
        if self.corrupt_oracle:
            fixture.corrupt(expected)
            self.corrupt_oracle = False
        return expected


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _build_repeatedly(
    ctx: Context, library: Path, output: Path, segment_rows: Optional[int] = None
) -> List[List[CliResult]]:
    """Run ``repro index build`` ``ctx.repeats`` times; the last output stays.

    Returns one list of calls per repetition (here always one call), the
    shape every workload hands to :func:`_setup_seconds`.
    """
    repetitions = []
    for _ in range(ctx.repeats):
        _remove(output)
        args = ["index", "build", "--library", library, "--output", output]
        if segment_rows is not None:
            args += ["--segment-rows", segment_rows]
        repetitions.append([ctx.sandbox.cli(*args)])
    return repetitions


def _setup_seconds(repetitions: Sequence[Sequence[CliResult]]) -> float:
    """``setup_s``: the median over repetitions of the set-up verbs' total wall."""
    return median(sum(call.wall_s for call in calls) for calls in repetitions)


def _cli_query_count(per_call: int) -> int:
    """Queries a CLI workload generates: a short warm-up file plus the passes."""
    return max(4, per_call // CLI_WARM_DIVISOR) + CLI_PASS_FILES * per_call


def _cli_search_outcome(
    ctx: Context,
    mode: str,
    index_path: Path,
    setups: Sequence[Sequence[CliResult]],
    queries: Sequence[Spectrum],
    per_call: int,
    rss_of_setup: bool = False,
) -> Outcome:
    """Warm up, then time ``repro index search`` calls for ``--seconds``.

    ``queries`` is split into a short warm-up file and ``CLI_PASS_FILES``
    disjoint files of ``per_call`` queries that the timed calls cycle
    through.  The warm-up call streams JSONL, which carries every PSM
    before the FDR filter: that is the full-PSM check the default TSV
    output cannot give.  Timed calls write the default TSV and are
    checked row by row against the oracle's own accepted set.
    ``peak_rss_mb`` covers the search calls, and the set-up verbs too
    when ``rss_of_setup`` says the write path is the workload's subject.
    """
    sandbox = ctx.sandbox
    index = fixture.load_index(index_path)
    warm_count = len(queries) - CLI_PASS_FILES * per_call
    warm_path = sandbox.path("warm.mgf")
    warm_queries = fixture.write_queries(queries[:warm_count], warm_path)
    oracle = fixture.Oracle(index, mode)
    passes = []
    for number, chunk in enumerate(fixture.chunks(queries[warm_count:], per_call)):
        path = sandbox.path(f"pass-{number}.mgf")
        passes.append((path, ctx.expect(oracle, fixture.write_queries(chunk, path))))

    checker = fixture.Checker()
    warm = sandbox.path("warm.jsonl")
    sandbox.cli(
        "index", "search", "--index", index_path, "--queries", warm_path,
        "--mode", mode, "--output-format", "jsonl", "--output", warm,
    )
    checker.check_psms(oracle.expect(warm_queries), fixture.read_jsonl(warm, warm_queries))

    calls: List[CliResult] = []
    ids_first = 0
    output = sandbox.path("psms.tsv")
    started = time.perf_counter()
    while len(calls) < MIN_TIMED_CALLS or time.perf_counter() - started < ctx.seconds:
        path, expected = passes[len(calls) % len(passes)]
        calls.append(sandbox.cli(
            "index", "search", "--index", index_path, "--queries", path,
            "--mode", mode, "--output", output,
        ))
        ids = checker.check_tsv(expected, output)
        if len(calls) == 1:
            ids_first = ids

    walls = [call.wall_s for call in calls]
    setup_s = _setup_seconds(setups)
    measured = list(calls)
    if rss_of_setup:
        measured += [call for repetition in setups for call in repetition]
    metrics = {
        "setup_s": setup_s,
        "search_qps": median(per_call / wall for wall in walls),
        "search_p50_ms": 1000.0 * median(walls),
        "store_bytes_per_row": tree_bytes(index_path) / index.num_references,
        "peak_rss_mb": max(call.max_rss_mb for call in measured),
    }
    details = {
        "rows": index.num_references,
        "queries_per_call": per_call,
        "latency_samples": len(calls),
        "search_p95_ms": 1000.0 * float(np.percentile(walls, 95)),
        "ingest_rows_per_s": index.num_references / setup_s,
        "ids_1pct_fdr": ids_first,
    }
    return Outcome(metrics, sandbox.cli_calls, sandbox.cli_failures, checker, details)


def _offline(ctx: Context, mode: str, per_call: int) -> Outcome:
    sandbox = ctx.sandbox
    per_call = ctx.size(per_call, 8)
    inputs = fixture.generate(
        ctx.seed,
        ctx.size(fixture.LIBRARY_TARGETS, 40),
        _cli_query_count(per_call),
    )
    library = fixture.write_library(inputs.library, sandbox.path("library.msp"))
    index_path = sandbox.path("library.npz")
    builds = _build_repeatedly(ctx, library, index_path)
    return _cli_search_outcome(ctx, mode, index_path, builds, inputs.queries, per_call)


def offline_open(ctx: Context) -> Outcome:
    """``repro index search --mode open`` over the monolithic index."""
    return _offline(ctx, "open", OPEN_QUERIES_PER_CALL)


def offline_standard(ctx: Context) -> Outcome:
    """``repro index search --mode standard`` over the monolithic index."""
    return _offline(ctx, "standard", STANDARD_QUERIES_PER_CALL)


def ingest_append_merge(ctx: Context) -> Outcome:
    """The write path as the set-up, then searches of what it wrote.

    Set-up is one whole cycle — ``index build --segment-rows``, ``index
    append``, ``index merge`` — repeated; ``setup_s`` is the cycle's
    median wall, so a slower encode, pack, archive write or merge shows
    there.  The timed part searches the merged store (the segmented
    engine, through the CLI), which keeps the write path honest: what
    it wrote must give the oracle's answers.  The base library is half
    the size the other workloads search, a quarter as much is appended.
    """
    sandbox = ctx.sandbox
    targets = ctx.size(fixture.LIBRARY_TARGETS // 2, 40)
    per_call = ctx.size(INGEST_QUERIES_PER_CALL, 8)
    segment_rows = ctx.size(fixture.SEGMENT_ROWS, 20)
    inputs = fixture.generate(
        ctx.seed, targets, _cli_query_count(per_call), extra=targets // 4
    )
    library = fixture.write_library(inputs.library, sandbox.path("library.msp"))
    append = fixture.write_library(inputs.extra, sandbox.path("append.msp"))
    store_path = sandbox.path("store")
    cycles: List[List[CliResult]] = []
    for _ in range(ctx.repeats):
        _remove(store_path)
        cycles.append([
            sandbox.cli(
                "index", "build", "--library", library, "--output", store_path,
                "--segment-rows", segment_rows,
            ),
            sandbox.cli(
                "index", "append", "--store", store_path, "--library", append,
                "--segment-rows", segment_rows,
            ),
            sandbox.cli(
                "index", "merge", "--store", store_path, "--target-rows", 2 * segment_rows,
            ),
        ])
    outcome = _cli_search_outcome(
        ctx, "open", store_path, cycles, inputs.queries, per_call, rss_of_setup=True
    )
    for name, calls in zip(("build_s", "append_s", "merge_s"), zip(*cycles)):
        outcome.details[name] = median(call.wall_s for call in calls)
    return outcome


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------


@dataclass
class Reply:
    """One HTTP request as the client saw it."""

    latency_ms: float
    ok: bool
    answers: Dict[str, Optional[PSM]]
    cached: bool = False


def _closed_loop(
    request: Callable[[object], Reply], items: Sequence[object], deadline: float
) -> List[Reply]:
    """Send ``items`` one after another until done or ``deadline``.

    ``request`` returns the reply of one item; its latency is filled in
    here.  A refused or failed request becomes a latency miss.
    """
    replies = []
    for item in items:
        start = time.perf_counter()
        if start >= deadline:
            break
        try:
            reply = request(item)
            reply.latency_ms = 1000.0 * (time.perf_counter() - start)
        except ServiceError:
            reply = Reply(FAILED_REQUEST_MS, False, {})
        replies.append(reply)
    return replies


def check_replies(
    checker: fixture.Checker,
    expected: Dict[str, Optional[PSM]],
    replies: Sequence[Reply],
) -> None:
    """Compare every answer of every successful reply with the oracle's."""
    for reply in replies:
        if reply.ok:
            checker.check_psms(
                {query_id: expected[query_id] for query_id in reply.answers},
                reply.answers,
            )


def serve_streams(spectra: Sequence[Spectrum], seed: int) -> List[List[Spectrum]]:
    """Split fresh spectra over the clients and weave the repeats in.

    After every three fresh spectra a client repeats one of its last 64
    requests — recent, so that the original is still in the server's
    LRU result cache however long the stream grows.
    """
    picker = random.Random(seed)
    streams = []
    for slot in range(SERVE_CLIENTS):
        ordered: List[Spectrum] = []
        for spectrum in spectra[slot::SERVE_CLIENTS]:
            ordered.append(spectrum)
            if len(ordered) % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1:
                ordered.append(
                    ordered[picker.randrange(max(0, len(ordered) - 64), len(ordered))]
                )
        streams.append(ordered)
    return streams


def drive_search(
    url: str, streams: Sequence[Sequence[Spectrum]], deadline: float
) -> List[List[Reply]]:
    """One closed-loop ``POST /search`` client thread per stream."""

    def client_loop(ordered: Sequence[Spectrum]) -> List[Reply]:
        def request(spectrum: Spectrum) -> Reply:
            reply = client.search_detailed(spectrum)
            psm = reply.get("psm")
            return Reply(
                0.0, True,
                {spectrum.identifier: PSM.from_dict(psm) if psm is not None else None},
                bool(reply.get("cached")),
            )

        with SearchClient(url) as client:
            return _closed_loop(request, ordered, deadline)

    with ThreadPoolExecutor(max_workers=len(streams)) as pool:
        futures = [pool.submit(client_loop, ordered) for ordered in streams]
        return [future.result() for future in futures]


def drive_search_batch(
    url: str, groups: Sequence[Sequence[Spectrum]], deadline: float
) -> List[Reply]:
    """One closed-loop client sending each group as a ``POST /search_batch``."""

    def request(group: Sequence[Spectrum]) -> Reply:
        psms = client.search_batch(group)
        return Reply(
            0.0, True, {spectrum.identifier: psm for spectrum, psm in zip(group, psms)}
        )

    with SearchClient(url) as client:
        return _closed_loop(request, groups, deadline)


NO_DEADLINE = float("inf")


def _http_outcome(
    ctx: Context,
    server: Server,
    index_path: Path,
    builds: Sequence[Sequence[CliResult]],
    stored_bytes: int,
    sent: Sequence[Spectrum],
    warm_replies: Sequence[Reply],
    replies: Sequence[Reply],
    window_s: float,
) -> Outcome:
    """Stop the server, check every reply, and assemble the metrics."""
    peak_rss_mb = server.peak_rss_mb()
    server.stop()
    index = fixture.load_index(index_path)
    everything = list(warm_replies) + list(replies)
    checker = fixture.Checker()
    check_replies(checker, ctx.expect(fixture.Oracle(index, "open"), sent), everything)
    answered = [psm for reply in replies if reply.ok for psm in reply.answers.values()]
    setup_s = _setup_seconds(builds)
    latencies = [reply.latency_ms for reply in replies]
    metrics = {
        "setup_s": setup_s,
        "search_qps": len(answered) / window_s,
        "search_p50_ms": median(latencies),
        "store_bytes_per_row": stored_bytes / index.num_references,
        "peak_rss_mb": peak_rss_mb,
    }
    return Outcome(
        metrics,
        ctx.sandbox.cli_calls + len(everything),
        ctx.sandbox.cli_failures + sum(not reply.ok for reply in everything),
        checker,
        {
            "rows": index.num_references,
            "latency_samples": len(replies),
            "search_p95_ms": float(np.percentile(latencies, 95)),
            "startup_s": server.startup_s,
            "ingest_rows_per_s": index.num_references / setup_s,
            "queries_answered": len(answered),
            "cache_hit_share": sum(reply.cached for reply in replies) / len(replies),
            "ids_1pct_fdr": len(fixture.accepted_at_fdr(answered)),
        },
    )


def serve_single(ctx: Context) -> Outcome:
    """Two closed-loop clients sending single-spectrum ``POST /search``.

    Every fourth request of a client repeats a spectrum that client has
    already been answered for (a result-cache hit); the others have
    never been sent.  The repeat share is fixed because the cache makes
    the cost of a request depend on it.
    """
    sandbox = ctx.sandbox
    warmup = ctx.size(SERVE_WARMUP, SERVE_CLIENTS)
    inputs = fixture.generate(
        ctx.seed, ctx.size(fixture.LIBRARY_TARGETS, 40), warmup + ctx.size(SERVE_POOL, 16)
    )
    library = fixture.write_library(inputs.library, sandbox.path("library.msp"))
    spectra = fixture.write_queries(inputs.queries, sandbox.path("queries.mgf"))
    index_path = sandbox.path("library.npz")
    builds = _build_repeatedly(ctx, library, index_path)

    server = sandbox.serve("serve", "--index", index_path, "--port", 0)
    warm_spectra = spectra[:warmup]
    warm = drive_search(
        server.url, [warm_spectra[slot::SERVE_CLIENTS] for slot in range(SERVE_CLIENTS)],
        NO_DEADLINE,
    )
    streams = serve_streams(spectra[warmup:], ctx.seed)
    started = time.perf_counter()
    per_client = drive_search(server.url, streams, started + ctx.seconds)
    window_s = time.perf_counter() - started

    sent = {spectrum.identifier: spectrum for spectrum in warm_spectra}
    for ordered, done in zip(streams, per_client):
        sent.update({spectrum.identifier: spectrum for spectrum in ordered[: len(done)]})
    outcome = _http_outcome(
        ctx, server, index_path, builds, tree_bytes(index_path), list(sent.values()),
        [reply for replies in warm for reply in replies],
        [reply for replies in per_client for reply in replies],
        window_s,
    )
    outcome.details["clients"] = SERVE_CLIENTS
    return outcome


def coordinate_batch(ctx: Context) -> Outcome:
    """One client sending back-to-back ``POST /search_batch`` to a coordinator.

    No query is ever sent twice, so the workers' result caches stay
    cold and every request pays scatter, both JSON hops, the
    per-partition store search and the exact merge.
    """
    sandbox = ctx.sandbox
    batch = ctx.size(COORD_BATCH, 4)
    segment_rows = ctx.size(fixture.SEGMENT_ROWS, 20)
    inputs = fixture.generate(
        ctx.seed,
        ctx.size(fixture.LIBRARY_TARGETS, 40),
        batch * (1 + ctx.size(COORD_POOL_BATCHES, 3)),
    )
    library = fixture.write_library(inputs.library, sandbox.path("library.msp"))
    spectra = fixture.write_queries(inputs.queries, sandbox.path("queries.mgf"))
    store_path = sandbox.path("store")
    builds = _build_repeatedly(ctx, library, store_path, segment_rows)
    # Measured before the coordinator adds its partition manifests.
    stored_bytes = tree_bytes(store_path)

    server = sandbox.serve(
        "coordinate", "--store", store_path, "--partitions", 2,
        "--spawn-workers", "--port", 0,
    )
    groups = fixture.chunks(spectra, batch)
    warm_replies = drive_search_batch(server.url, groups[:1], NO_DEADLINE)
    started = time.perf_counter()
    replies = drive_search_batch(server.url, groups[1:], started + ctx.seconds)
    window_s = time.perf_counter() - started

    sent = [spectrum for group in groups[: 1 + len(replies)] for spectrum in group]
    outcome = _http_outcome(
        ctx, server, store_path, builds, stored_bytes, sent, warm_replies, replies, window_s
    )
    outcome.details["batch"] = batch
    return outcome


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "offline_open": offline_open,
    "offline_standard": offline_standard,
    "ingest_append_merge": ingest_append_merge,
    "serve_single": serve_single,
    "coordinate_batch": coordinate_batch,
}


def run(name: str, ctx: Context) -> Outcome:
    """Run the workload called ``name``."""
    return RUNNERS[name](ctx)
