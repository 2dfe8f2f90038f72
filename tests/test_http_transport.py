"""Transport invariants of the one front-end, for a worker and a coordinator.

``repro serve`` and ``repro coordinate`` both serve a
:class:`repro.service.server.SearchServer`; these tests pin the two
properties that removed the ~40 ms
Nagle/delayed-ACK floor from every round trip, without timing anything:

* every accepted connection has ``TCP_NODELAY`` set, and
* every reply — 200, 4xx, ``/metrics`` text, the ``/debug/*`` routes,
  and the draining variants that add ``Connection: close`` — reaches
  the socket as exactly one write holding status line, headers and
  body, and an error reply closes its connection.

The handler reads the request head itself; a table of raw heads pins
it to the standard library's ``BaseHTTPRequestHandler.parse_request``,
the oracle: same status, same keep-alive decision, same header values.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler

import pytest

from repro.coord import Coordinator, PartitionPlan
from repro.hdc.spaces import HDSpaceConfig
from repro.service import (
    IndexRegistry,
    SearchService,
    ServiceConfig,
    ServiceMetrics,
    start_server,
)
from repro.service.httpbase import MAX_HEADERS, MAX_LINE, JsonRequestHandler
from repro.service.protocol import spectrum_to_payload
from repro.store import build_store


@pytest.fixture(scope="module")
def store(tmp_path_factory, small_workload, binning):
    store = build_store(
        small_workload.references,
        tmp_path_factory.mktemp("transport") / "store",
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=17),
        binning=binning,
        segment_rows=30,
    )
    yield store
    store.close()


@pytest.fixture(scope="module", params=["worker", "coordinator"])
def server(request, store):
    """A bound (not yet serving) front-end of either tier."""
    if request.param == "worker":
        backend = SearchService(store.root)
    else:
        # The worker URL is never reached: these tests only exercise
        # endpoints the coordinator answers by itself.  Served the way
        # `repro coordinate` serves it.
        coordinator = Coordinator(
            PartitionPlan.build(store, 1, "rows").partitions,
            [["http://127.0.0.1:9"]],
            probe_interval=3600.0,
        )
        backend = IndexRegistry(
            coordinator,
            config=ServiceConfig(cache_capacity=0, max_inflight=64),
            metrics=ServiceMetrics(coordinator.metrics.registry),
        )
    server = start_server(backend)
    server.tier = request.param
    yield server
    server.server_close()
    backend.close()


class RecordingSocket:
    """Stand-in for an accepted connection that records every write."""

    def __init__(self, request: bytes) -> None:
        self._request = io.BytesIO(request)
        self.writes = []

    def makefile(self, mode, buffering=None):
        assert mode == "rb"
        return self._request

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))

    def settimeout(self, timeout) -> None:
        pass

    def setsockopt(self, *option) -> None:
        pass


def exchange(server, method: str, path: str, body: bytes = b""):
    """Run one request through the server's handler; return its writes."""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n"
    connection = RecordingSocket(head.encode("ascii") + body)
    server.RequestHandlerClass(connection, ("127.0.0.1", 0), server)
    return connection.writes


def parse_reply(raw: bytes):
    """Split one raw HTTP reply into (status, headers, body)."""
    reply = http.client.HTTPResponse(_FakeSocket(raw))
    reply.begin()
    return reply.status, reply.headers, reply.read()


class _FakeSocket:
    def __init__(self, raw: bytes) -> None:
        self._raw = raw

    def makefile(self, mode):
        return io.BytesIO(self._raw)


REPLIES = [
    ("GET", "/stats", b"", 200, "application/json"),
    ("POST", "/search", b"{not json", 400, "application/json"),
    ("POST", "/nowhere", b"{}", 404, "application/json"),
    ("GET", "/metrics", b"", 200, "text/plain"),
    # The GET routes both tiers inherit from the shared handler.
    ("GET", "/debug/trace", b"", 200, "application/json"),
    ("GET", "/debug/trace?request_id=transport-1", b"", 200, "application/json"),
    ("GET", "/debug/slow", b"", 200, "application/json"),
    ("GET", "/nowhere", b"", 404, "application/json"),
]


class TestOneSegmentReplies:
    @pytest.mark.parametrize("draining", [False, True])
    @pytest.mark.parametrize("method, path, body, status, content_type", REPLIES)
    def test_reply_is_a_single_write(
        self, server, method, path, body, status, content_type, draining
    ):
        server.draining = draining
        try:
            writes = exchange(server, method, path, body)
        finally:
            server.draining = False
        assert len(writes) == 1
        got_status, headers, payload = parse_reply(writes[0])
        assert got_status == status
        assert headers["Content-Type"].startswith(content_type)
        assert int(headers["Content-Length"]) == len(payload) > 0
        # The whole write is the reply: nothing trails the declared body.
        assert writes[0].endswith(payload)
        closes = status >= 400 or draining
        assert (headers.get("Connection") == "close") == closes
        if content_type == "application/json":
            json.loads(payload)

    def test_search_reply_with_request_id_is_a_single_write(
        self, server, small_workload
    ):
        if server.tier == "coordinator":
            pytest.skip("the coordinator's /search needs a reachable worker")
        body = json.dumps(
            {"spectrum": spectrum_to_payload(small_workload.queries[0])}
        ).encode("utf-8")
        writes = exchange(server, "POST", "/search", body)
        assert len(writes) == 1
        status, headers, payload = parse_reply(writes[0])
        assert status == 200
        assert headers["X-Request-Id"] == json.loads(payload)["request_id"]


def test_debug_routes_answer_on_both_tiers(server):
    _status, _headers, payload = parse_reply(exchange(server, "GET", "/debug/trace")[0])
    assert json.loads(payload)["displayTimeUnit"] == "ms"
    _status, _headers, payload = parse_reply(exchange(server, "GET", "/debug/slow")[0])
    assert json.loads(payload)["threshold_ms"] == server.slowlog.threshold_ms


def test_oversized_body_is_413_before_it_is_read(server, monkeypatch):
    monkeypatch.setattr(JsonRequestHandler, "max_body_bytes", 10)
    writes = exchange(server, "POST", "/search", b"x" * 11)
    assert len(writes) == 1
    status, headers, _payload = parse_reply(writes[0])
    assert status == 413
    assert headers["Connection"] == "close"


class TestNoDelay:
    def test_accepted_connection_has_tcp_nodelay(self, server):
        seen = []

        class Probe(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                seen.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )

        original = server.RequestHandlerClass
        server.RequestHandlerClass = Probe
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/stats")
            reply = connection.getresponse()
            reply.read()
            assert reply.status == 200
            connection.close()
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.RequestHandlerClass = original
            server.draining = False
        assert not thread.is_alive()
        assert seen and all(seen)


def test_connect_burst_waits_in_the_listen_backlog(server):
    """32 clients connect before the first accept; every one gets a 200."""
    host, port = server.server_address[:2]
    request = b"GET /stats HTTP/1.1\r\nHost: burst\r\nConnection: close\r\n\r\n"
    clients = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    try:
        for _ in range(32):
            clients.append(socket.create_connection((host, port), timeout=5))
            clients[-1].sendall(request)
        thread.start()
        for client in clients:
            with client.makefile("rb") as reply:
                status, _headers, _payload = parse_reply(reply.read())
            assert status == 200
    finally:
        for client in clients:
            client.close()
        if thread.is_alive():
            server.shutdown()
            thread.join(timeout=10)
            server.draining = False
    assert not thread.is_alive()


def test_serve_and_coordinate_bind_the_same_server_and_handler(monkeypatch, store):
    """Both verbs end in ``start_server``: one server class, one handler class."""
    from repro.coord import server as coord_server
    from repro.service import server as service_server
    from repro.service.server import SearchRequestHandler, SearchServer

    bound = []

    def run_server(build, **_kwargs):
        server, _detail, close = build()
        bound.append((type(server), server.RequestHandlerClass))
        server.server_close()
        close()
        return 0

    class Ready(Coordinator):
        def wait_ready(self, timeout=60.0):
            pass

    for module in (service_server, coord_server):
        monkeypatch.setattr(module, "run_server", run_server)
    monkeypatch.setattr(coord_server, "Coordinator", Ready)
    assert service_server.serve(store.root, port=0) == 0
    assert coord_server.serve_coordinate(
        store.root, 1, worker_urls=["http://127.0.0.1:9"], port=0, probe_interval=3600.0
    ) == 0
    assert bound == [(SearchServer, SearchRequestHandler)] * 2


# ----------------------------------------------------------------------
# The head reader against http.server's own, as the oracle
# ----------------------------------------------------------------------


class Parsed:
    """Records what ``parse_request`` made of the first request."""

    parsed = None

    def parse_request(self):
        ok = super().parse_request()
        if self.parsed is None:
            headers = self.headers if ok else None
            self.parsed = (
                ok,
                self.close_connection,
                self.command,
                self.path if ok else None,
                self.request_version,
                None if headers is None else tuple(
                    headers.get(name)
                    for name in ("Content-Length", "connection", "X-REQUEST-ID", "X-Folded")
                ),
            )
        return ok


class Oracle(Parsed, BaseHTTPRequestHandler):
    """The standard library's head parsing, answering 200 to what it accepts."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server API
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


def run_head(handler_class, server, raw: bytes):
    """``(handler, writes)`` of one raw request through ``handler_class``."""
    connection = RecordingSocket(raw)
    handler = handler_class(connection, ("127.0.0.1", 0), server)
    return handler, connection.writes


def final_status(writes):
    """Status of the final reply in ``writes``; an interim 100 is skipped.

    An HTTP/0.9 reply is a bare body: its status is the code an error
    page names, else 200.
    """
    raw = b"".join(writes)
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"
    if raw.startswith(interim):
        raw = raw[len(interim) :]
    if raw.startswith(b"HTTP/"):
        return int(raw.split(b" ", 2)[1])
    marker = b"Error code: "
    return int(raw.split(marker)[1][:3]) if marker in raw else 200


def head(request_line: str, *fields: str) -> bytes:
    return (request_line + "\r\n" + "".join(f + "\r\n" for f in fields) + "\r\n").encode(
        "latin-1"
    )


HEADS = [
    ("ok", head("GET /stats HTTP/1.1", "Host: t"), 200),
    ("no words", head("   "), None),
    ("one word", head("GET"), 400),  # answered as HTTP/0.9: a bare body
    ("four words", head("GET /stats HTTP/1.1 extra"), 400),
    ("not http", head("GET /stats FTP/1.1"), 400),
    ("three numbers", head("GET /stats HTTP/1.1.1"), 400),
    ("letters", head("GET /stats HTTP/1.x"), 400),
    ("long number", head("GET /stats HTTP/12345678901.1"), 400),
    ("leading zeros", head("GET /stats HTTP/01.01"), 200),
    ("version 2.0", head("GET /stats HTTP/2.0"), 505),
    ("version 10.1", head("GET /stats HTTP/10.1"), 505),
    ("http 1.0", head("GET /stats HTTP/1.0"), 200),
    ("http 1.0 keep-alive", head("GET /stats HTTP/1.0", "Connection: keep-alive"), 200),
    ("http 0.9", head("GET /stats"), 200),
    ("http 0.9 post", head("POST /stats"), 400),
    ("double slash", head("GET //stats HTTP/1.1"), 200),
    ("request line too long", head("GET /" + "a" * MAX_LINE + " HTTP/1.1"), 414),
    ("header line too long", head("GET /stats HTTP/1.1", "X-Big: " + "a" * MAX_LINE), 431),
    ("99 headers", head("GET /stats HTTP/1.1", *[f"X-{i}: {i}" for i in range(99)]), 200),
    ("100 headers", head("GET /stats HTTP/1.1", *[f"X-{i}: {i}" for i in range(100)]), 431),
    ("101 headers", head("GET /stats HTTP/1.1", *[f"X-{i}: {i}" for i in range(101)]), 431),
    ("mixed case", head("GET /stats HTTP/1.1", "cOnNeCtIoN: CLOSE", "x-request-id: r-1"), 200),
    ("connection close", head("GET /stats HTTP/1.1", "Connection: close"), 200),
    ("blank padding", head("GET /stats HTTP/1.1", "Connection:   close  "), 200),
    ("folded field", head("GET /stats HTTP/1.1", "X-Folded: a", "\tb", " c"), 200),
    ("first line folded", head("GET /stats HTTP/1.1", " stray", "Connection: close"), 200),
    ("not a field", head("GET /stats HTTP/1.1", "Bad Field: 1", "Connection: close"), 200),
    ("envelope line", head("GET /stats HTTP/1.1", "From someone", "Connection: close"), 200),
    ("duplicate field", head("GET /stats HTTP/1.1", "X-Request-Id: a", "X-Request-Id: b"), 200),
    ("equal lengths", head("GET /stats HTTP/1.1", "Content-Length: 0", "content-length: 0"), 200),
    ("expect 100", head("GET /stats HTTP/1.1", "Expect: 100-Continue"), 200),
    ("expect on 1.0", head("GET /stats HTTP/1.0", "Expect: 100-continue"), 200),
    ("bare newlines", b"GET /stats HTTP/1.1\nConnection: close\n\n", 200),
]


class TestHeadReader:
    @pytest.mark.parametrize("name, raw, status", HEADS, ids=[h[0] for h in HEADS])
    def test_head_is_read_as_http_server_reads_it(self, server, name, raw, status):
        probe = type("Probe", (Parsed, server.RequestHandlerClass), {})
        ours, writes = run_head(probe, server, raw)
        oracle, oracle_writes = run_head(Oracle, None, raw)
        assert ours.parsed == oracle.parsed
        if status is None:  # an empty request line: no reply at all
            assert writes == oracle_writes == []
            return
        assert final_status(writes) == final_status(oracle_writes) == status
        # The final reply is one write, whatever the status (an interim
        # 100 Continue goes first); an error closes the connection.
        interim = writes[0].startswith(b"HTTP/1.1 100 ")
        assert len(writes) == 1 + interim
        if status >= 400:
            assert ours.close_connection
            if writes[-1].startswith(b"HTTP/"):
                reply_head = writes[-1].split(b"\r\n\r\n", 1)[0]
                assert b"\r\nConnection: close" in reply_head

    def test_expect_100_gets_an_interim_reply_before_the_body_is_read(self, server):
        raw = head("GET /stats HTTP/1.1", "Expect: 100-continue")
        _handler, writes = run_head(server.RequestHandlerClass, server, raw)
        assert writes[0] == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert len(writes) == 2 and final_status(writes[1:]) == 200

    def test_conflicting_content_lengths_are_a_400(self, server):
        body = b'{"spectrum": {}}'
        raw = head(
            "POST /search HTTP/1.1", f"Content-Length: {len(body)}", "Content-Length: 3"
        ) + body
        handler, writes = run_head(server.RequestHandlerClass, server, raw)
        assert len(writes) == 1
        status, headers, payload = parse_reply(writes[0])
        assert status == 400
        assert headers["Connection"] == "close"
        assert b"Conflicting Content-Length" in payload
        # The oracle takes the first length instead.
        oracle, _writes = run_head(Oracle, None, raw)
        assert oracle.parsed[0] is True

    def test_limits_are_http_client_limits(self):
        assert MAX_LINE == http.client._MAXLINE
        assert MAX_HEADERS == http.client._MAXHEADERS
