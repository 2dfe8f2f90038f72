"""The HTTP stack under ``repro serve`` and ``repro coordinate``.

Both verbs serve one :class:`~repro.service.server.SearchServer`; the
transport it stands on lives here:

* :class:`DrainingHTTPServer` — a ``ThreadingHTTPServer`` whose
  shutdown joins its handler threads without waiting out idle
  keep-alive connections;
* :class:`JsonRequestHandler` — table-driven dispatch (path -> method),
  the one exception -> status table (:data:`ERROR_STATUSES`), the
  tracer's ``/debug/trace`` and ``/debug/slow`` and the response
  writer that puts every reply on a ``TCP_NODELAY`` socket as **one**
  segment;
* :func:`run_server` — the process runner: tracer, signal handlers,
  the load-bearing ``listening on http://host:port`` line,
  ``serve_forever`` and the drain, bounded against a wedged backend.

The one-segment rule is a latency fix, not a nicety.  ``http.server``
flushes the header block and then the body as two small writes; on a
keep-alive connection Nagle's algorithm holds the second until the
first is acknowledged, and the peer's delayed ACK sits on that
acknowledgement for ~40 ms — a fixed floor under every round trip.

The request head is read once, too.  ``http.server`` hands the header
lines to ``http.client.parse_headers``, which runs them through the
``email`` package's feed parser — 14% of the server's CPU per
``/search`` in a thread-time profile of two closed-loop clients (see
``docs/observability.md``).  :meth:`JsonRequestHandler.parse_request` reads them
into a :class:`RequestHeaders` mapping instead, with every check the
standard library makes (:func:`read_headers`), and every reply's status
line, headers and body are joined into one ``bytes`` before the write.
"""

from __future__ import annotations

import email.utils
import html
import json
import logging
import re
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs.export import chrome_trace
from ..obs.logging import ensure_default_logging
from ..obs.slowlog import SlowQueryLog
from ..obs.trace import DEFAULT_CAPACITY, get_tracer, new_request_id
from .protocol import CapacityError, ProtocolError, UnavailableError, UnknownRouteError

logger = logging.getLogger(__name__)

#: Client-supplied request ids must match this or be replaced (they end
#: up in log lines, trace exports, and response headers verbatim).
REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


#: The request-head limits ``http.client`` sets for ``http.server``: a
#: request or header line of more than 65 536 bytes is a 414 or a 431,
#: and so are more than 100 header lines (the blank line ending the
#: head counts among them, as it does there).
MAX_LINE = 65536
MAX_HEADERS = 100

#: A header line as the ``email`` parser behind ``http.server`` accepts
#: one: a (possibly empty) name of printable non-colon characters, then
#: a colon.
_FIELD = re.compile(r"[\x21-\x39\x3b-\x7e]*:")


class BodyTooLarge(ProtocolError):
    """Request body exceeds the server's acceptance limit."""


class HeadTooLarge(Exception):
    """A request head over :data:`MAX_LINE` or :data:`MAX_HEADERS` (a 431).

    ``args`` are ``(reason, explanation)``, as ``http.server`` words them.
    """


class RequestHeaders:
    """A request's header fields, looked up by case-insensitive name.

    Holds what ``http.server``'s ``email.message.Message`` answers to
    ``get``: the first field of a name, its value stripped of leading
    blanks and the line end, folded continuation lines included.
    :attr:`content_lengths` keeps every ``Content-Length`` value, so
    a conflict can be refused.
    """

    __slots__ = ("_fields", "content_lengths")

    def __init__(self, lines: List[bytes]) -> None:
        fields: List[List[str]] = []
        for raw in lines:
            line = str(raw, "iso-8859-1")
            if line[:1] in (" ", "\t"):  # continues the previous field
                if fields:
                    fields[-1][1] += line
                continue
            if line.startswith("From "):  # an mbox envelope line: skipped
                continue
            match = _FIELD.match(line)
            if match is None:  # not a field: the email parser stops here
                break
            fields.append([line[: match.end() - 1], line[match.end() :].lstrip(" \t")])
        self._fields: Dict[str, str] = {}
        self.content_lengths: List[str] = []
        for name, value in fields:
            name, value = name.lower(), value.rstrip("\r\n")
            self._fields.setdefault(name, value)
            if name == "content-length":
                self.content_lengths.append(value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The first value of field ``name`` (any case), else ``default``."""
        return self._fields.get(name.lower(), default)


def read_headers(rfile) -> RequestHeaders:
    """Read a request's header block, up to and including its blank line.

    Raises :class:`HeadTooLarge` past :data:`MAX_LINE` bytes in one line
    or :data:`MAX_HEADERS` lines, exactly where ``http.client`` would.
    """
    lines: List[bytes] = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadTooLarge(
                "Line too long", f"got more than {MAX_LINE} bytes when reading header line"
            )
        lines.append(line)
        if len(lines) > MAX_HEADERS:
            raise HeadTooLarge("Too many headers", f"got more than {MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            return RequestHeaders(lines[:-1])


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token, ``None`` if malformed.

    The rules of ``http.server``: one dot, digits only, at most ten per
    number, leading zeros ignored.
    """
    if not version.startswith("HTTP/"):
        return None
    numbers = version[5:].split(".")
    if len(numbers) != 2 or any(
        not number.isdigit() or len(number) > 10 for number in numbers
    ):
        return None
    try:
        return int(numbers[0]), int(numbers[1])
    except ValueError:  # a Unicode digit int() does not read
        return None


#: ``(second, formatted)`` of the last ``Date`` header written.
_DATE: Tuple[int, str] = (0, "")


def _http_date() -> str:
    """The ``Date`` header value for now, formatted once per second."""
    global _DATE
    now = int(time.time())
    if _DATE[0] != now:
        _DATE = (now, email.utils.formatdate(now, usegmt=True))
    return _DATE[1]


#: Exception type -> reply status; the most specific listed base of an
#: error decides, anything unlisted is a 500.  A 429 also carries
#: ``Retry-After: 1``.
ERROR_STATUSES: Dict[type, int] = {
    BodyTooLarge: 413,
    UnknownRouteError: 404,
    ProtocolError: 400,
    CapacityError: 429,
    UnavailableError: 503,
}


#: Seconds :func:`run_server` gives a backend, and then the handlers
#: it failed, once ``drain_timeout`` has run out on a wedged one.
WEDGED_GRACE = 5.0


class ServiceStartupError(RuntimeError):
    """The server could not start (bad config / unreadable index).

    Raised by :func:`run_server` for failures *before* the serve loop
    so the CLI can print a clean usage error, while genuine runtime
    crashes keep their tracebacks.
    """


class DrainingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose shutdown joins its handlers, with a bound.

    ``server_close()`` waits until every accepted request is answered:
    responses are fully written before shutdown proceeds.  The handler
    threads are daemon threads counted in and out here, not joined by
    ``ThreadingMixIn``, so that wait can be bounded: a handler leading
    a batch inside a wedged engine never returns, and a non-daemon
    thread would then hold the process open at interpreter exit.  Two
    mechanisms keep keep-alive clients from delaying the wait: the
    ``draining`` flag set by :meth:`shutdown` makes every subsequent
    response close its connection (active pollers would otherwise keep
    a persistent connection served forever), and :meth:`server_close`
    hangs up on connections that are idle *between* requests, whose
    handler threads would otherwise sit in a read until the idle
    timeout.
    """

    daemon_threads = True
    allow_reuse_address = True
    # http.server's listen backlog of 5 resets or stalls a burst of
    # simultaneous connects before the accept loop gets to them.
    request_queue_size = 128
    #: Once True, handlers answer the current request then close the
    #: connection, so server_close() can join their threads.
    draining = False
    #: Per-request stderr logging is off unless a runner turns it on.
    quiet = True

    def __init__(self, address, handler_class) -> None:
        super().__init__(address, handler_class)
        #: Ring buffer behind ``/debug/slow``; requests slower than its
        #: threshold are recorded with their per-stage breakdown.
        self.slowlog = SlowQueryLog()
        # Connections parked between requests, and whether server_close()
        # has begun hanging up on them.
        self._idle_lock = threading.Lock()
        self._idle: set = set()
        self._hanging_up = False
        # Handler threads started and not yet finished; notified at zero.
        self._handlers = 0
        self._handlers_done = threading.Condition(self._idle_lock)

    def shutdown(self) -> None:
        """Stop accepting requests and drain keep-alive connections."""
        self.draining = True
        super().shutdown()

    def process_request(self, request, client_address) -> None:
        """Count the handler in, then start its thread.

        Counted before the thread starts, so no accepted request can
        slip past a join that begins right after serve_forever returns.
        """
        with self._idle_lock:
            self._handlers += 1
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._handler_done()
            raise

    def process_request_thread(self, request, client_address) -> None:
        """Serve one connection on its handler thread, then count it out."""
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._handler_done()

    def _handler_done(self) -> None:
        with self._idle_lock:
            self._handlers -= 1
            if not self._handlers:
                self._handlers_done.notify_all()

    def join_handlers(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted request is answered; False past ``timeout``."""
        with self._idle_lock:
            return self._handlers_done.wait_for(lambda: not self._handlers, timeout)

    def park(self, connection) -> None:
        """Note that ``connection`` is waiting for its next request line."""
        with self._idle_lock:
            self._idle.add(connection)
            if self._hanging_up:
                _hang_up(connection)

    def unpark(self, connection) -> None:
        """``connection`` got a request line (or is gone): not idle."""
        with self._idle_lock:
            self._idle.discard(connection)

    def server_close(self, timeout: Optional[float] = None) -> bool:
        """Close the listener, hang up on idle connections, join handlers.

        A connection whose request is being read or answered is not
        touched — it gets its full reply, then closes because the
        server is draining.  One idle between requests has nothing in
        flight; without the hang-up its handler thread would hold the
        join for the whole idle read timeout.  Returns False if a
        handler is still running after ``timeout`` seconds.
        """
        with self._idle_lock:
            self._hanging_up = True
            for connection in self._idle:
                _hang_up(connection)
        super().server_close()
        return self.join_handlers(timeout)


def _hang_up(connection) -> None:
    """End the read side so a handler parked in ``readline`` sees EOF.

    Bytes already received stay readable, so a request that raced the
    hang-up is still parsed and answered.
    """
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # the peer already went away
        pass


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON over HTTP/1.1: dispatch, error replies, one-segment writes.

    :class:`~repro.service.server.SearchRequestHandler` extends
    :attr:`ROUTES` with the search API.
    """

    protocol_version = "HTTP/1.1"
    # Socket read timeout: closes idle keep-alive connections so
    # server_close() cannot block on a silent client.
    timeout = 10.0
    # Upper bound on request bodies: a long-lived service must not
    # buffer an arbitrarily large POST into memory.  Generous for any
    # real /search_batch (a spectrum payload is a few KiB).
    max_body_bytes = 64 * 1024 * 1024
    # TCP_NODELAY on every accepted connection (see the module docstring).
    disable_nagle_algorithm = True

    #: (HTTP method, path) -> name of the handler method that answers it.
    ROUTES: Dict[Tuple[str, str], str] = {
        ("GET", "/debug/trace"): "_get_debug_trace",
        ("GET", "/debug/slow"): "_get_debug_slow",
    }

    # -- connection lifecycle ------------------------------------------

    def handle_one_request(self) -> None:
        """Serve one request, parked as idle until its first line arrives."""
        self.server.park(self.connection)
        super().handle_one_request()

    def parse_request(self) -> bool:
        """Parse the request line just read and the header block after it.

        The connection is busy from here on.  Every check is
        ``http.server``'s: a malformed request line or version is a
        400, a version of 2.0 or above a 505, a two-word line an
        HTTP/0.9 ``GET`` (anything else a 400), an oversized head a 431
        (:func:`read_headers`); ``Connection`` and the request version
        decide keep-alive, and ``Expect: 100-continue`` is answered
        before the body is read.  One addition: ``Content-Length``
        fields that disagree are a 400, since either length would
        misread the body or the next request.
        """
        self.server.unpark(self.connection)
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # As http.server does: a leading '//' would read as a host to a
        # client that follows the path (an open redirect).
        self.command = command
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_headers(self.rfile)
        except HeadTooLarge as error:
            self.send_error(431, *error.args)
            return False
        if len(set(self.headers.content_lengths)) > 1:
            self.send_error(400, "Conflicting Content-Length headers")
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def finish(self) -> None:
        """Forget the connection (it may have ended while parked)."""
        self.server.unpark(self.connection)
        super().finish()

    # -- dispatch ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Answer a read-only endpoint of :attr:`ROUTES`."""
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Answer a search or mutating endpoint of :attr:`ROUTES`."""
        self._dispatch()

    def _dispatch(self) -> None:
        try:
            name = self.ROUTES.get((self.command, urlsplit(self.path).path))
            if name is None:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
            else:
                getattr(self, name)()
        except Exception as error:  # noqa: BLE001 - boundary
            known = [k for k in type(error).__mro__ if k in ERROR_STATUSES]
            status = ERROR_STATUSES[known[0]] if known else 500
            retry = {"Retry-After": "1"} if status == 429 else None
            self._send_json(status, {"error": str(error)}, extra_headers=retry)

    # -- the tracer's endpoints ----------------------------------------

    def _get_debug_trace(self) -> None:
        params = parse_qs(urlsplit(self.path).query)
        request_id = params.get("request_id", [None])[0]
        self._send_json(200, chrome_trace(get_tracer(), request_id=request_id))

    def _get_debug_slow(self) -> None:
        self._send_json(200, self.server.slowlog.snapshot())

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Per-request stderr logging, silenced unless ``quiet=False``."""
        if not self.server.quiet:
            super().log_message(format, *args)

    # -- responses -----------------------------------------------------

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        request_id: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if status >= 400 or self.server.draining:
            # Error paths may leave an unread request body on the
            # socket (e.g. a POST to an unknown path); keeping the
            # HTTP/1.1 connection alive would desync the next request,
            # so close it.  A draining server closes every connection
            # after its in-flight response so shutdown can join the
            # handler threads.
            self.close_connection = True
        self.log_request(status, len(body))
        if self.request_version == "HTTP/0.9":  # such replies carry no head
            self.wfile.write(body)
            return
        reason = self.responses[status][0] if status in self.responses else ""
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if request_id is not None:
            head += f"X-Request-Id: {request_id}\r\n"
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        # Status line, headers and body leave in a single write.
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def send_error(self, code: int, message: Optional[str] = None, explain=None) -> None:
        """``http.server``'s HTML error reply, written by :meth:`_send_body`.

        So it is one write that closes the connection, like every other
        reply.  ``message`` goes into the body; the status line keeps
        the standard reason phrase.
        """
        short, long = self.responses.get(code, ("???", "???"))
        message = short if message is None else message
        self.log_error("code %d, message %s", code, message)
        body = b""
        # No body for 1xx, 204, 205 and 304, nor in reply to a HEAD.
        if code >= 200 and code not in (204, 205, 304) and self.command != "HEAD":
            body = (
                self.error_message_format
                % {
                    "code": code,
                    "message": html.escape(message, quote=False),
                    "explain": html.escape(long if explain is None else explain, quote=False),
                }
            ).encode("utf-8", "replace")
        self.close_connection = True
        self._send_body(code, body, self.error_content_type)

    def _send_json(
        self,
        status: int,
        payload: dict,
        request_id: Optional[str] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_body(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            request_id=request_id,
            extra_headers=extra_headers,
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    # -- requests ------------------------------------------------------

    def _request_id(self) -> str:
        """The request's trace id: client-supplied when sane, else fresh.

        A client may pin its own ``X-Request-Id`` (to correlate with
        its logs); anything not matching the safe token pattern is
        replaced, since the id is echoed into headers and log lines.
        """
        supplied = self.headers.get("X-Request-Id")
        if supplied and REQUEST_ID_PATTERN.match(supplied):
            return supplied
        return new_request_id()

    def _content_length(self) -> int:
        raw = self.headers.get("Content-Length") or "0"
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(
                f"bad Content-Length header: {raw!r}"
            ) from None

    def _read_body(self) -> bytes:
        length = self._content_length()
        if length <= 0:
            raise ProtocolError("request body required")
        if length > self.max_body_bytes:
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes} byte limit"
            )
        return self.rfile.read(length)

    def _read_json(self) -> object:
        try:
            return json.loads(self._read_body().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"bad JSON body: {error}") from None


def run_server(
    build: Callable[[], Tuple[DrainingHTTPServer, str, Callable[..., None]]],
    *,
    name: str,
    quiet: bool = False,
    drain_timeout: float = 30.0,
    trace: bool = True,
    trace_capacity: int = DEFAULT_CAPACITY,
    startup_errors: Tuple[type, ...] = (ValueError, OSError),
) -> int:
    """Run one HTTP front-end until SIGINT/SIGTERM; drains before exiting.

    ``build()`` constructs everything and returns ``(server, detail,
    close)``: the bound server, the parenthesised tail of the listening
    line, and ``close(timeout=...)``, which releases whatever sits
    behind the server (idempotent, safe to call from two threads).  A
    ``startup_errors`` exception out of ``build`` becomes
    :class:`ServiceStartupError`; ``build`` cleans up after itself.

    ``trace`` enables the process tracer for the server's lifetime
    (restored on exit), sizing its ring buffer to ``trace_capacity``
    spans.  Shutdown order matters: stop accepting connections, join
    the in-flight handlers (their replies complete), then ``close``.
    ``drain_timeout`` bounds that join against a wedged backend: past
    it, ``close`` runs early and fails the handlers' pending work
    (waiting clients get errors, not silence), they get
    :data:`WEDGED_GRACE` seconds to answer, and the process exits.  A
    handler stuck inside the wedged backend itself (the one leading a
    micro-batch) never answers; it is a daemon thread, so it does not
    hold the exit.  ``name`` labels the final log line.
    """
    ensure_default_logging()
    tracer = get_tracer()
    tracer_was_enabled = tracer.enabled
    if trace:
        tracer.enable(trace_capacity)
    try:
        try:
            server, detail, close = build()
        except startup_errors as error:
            raise ServiceStartupError(str(error)) from error
        server.quiet = quiet

        def _shutdown(signum, frame) -> None:
            # shutdown() must not run on the serve_forever thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        installed = []
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                installed.append((signum, signal.signal(signum, _shutdown)))
            except ValueError:  # not the main thread
                pass
        # The "listening on http://host:port" phrasing is load-bearing:
        # supervisors, the worker fleet and the fault-injection tests
        # parse the bound port out of this exact line.
        logger.info(
            "listening on http://%s:%s (%s)", *server.server_address[:2], detail
        )
        try:
            server.serve_forever()
        finally:
            drained = False
            try:
                drained = server.server_close(timeout=drain_timeout)
            finally:
                close(timeout=drain_timeout if drained else WEDGED_GRACE)
            if not drained and not server.join_handlers(WEDGED_GRACE):
                logger.warning(
                    "%s: a request is still inside the wedged backend; "
                    "exiting without its reply", name,
                )
            for signum, previous in installed:
                signal.signal(signum, previous)
            logger.info("%s drained and closed", name)
    finally:
        if trace and not tracer_was_enabled:
            tracer.disable()
    return 0
