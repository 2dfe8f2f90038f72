"""Shared HTTP plumbing of the worker and coordinator front-ends.

Both servers speak the same JSON-over-HTTP/1.1 wire protocol; what they
share lives here once: the draining ``ThreadingHTTPServer`` base and a
request handler that validates request ids, bounds and parses JSON
bodies, and writes every response as **one** segment on a
``TCP_NODELAY`` socket.

The one-segment rule is a latency fix, not a nicety.  ``http.server``
flushes the header block and then the body as two small writes; on a
keep-alive connection Nagle's algorithm holds the second until the
first is acknowledged, and the peer's delayed ACK sits on that
acknowledgement for ~40 ms — a fixed floor under every round trip.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from ..obs.trace import new_request_id
from .protocol import ProtocolError

#: Client-supplied request ids must match this or be replaced (they end
#: up in log lines, trace exports, and response headers verbatim).
REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class BodyTooLarge(ProtocolError):
    """Request body exceeds the server's acceptance limit."""


class DrainingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose shutdown can join its handlers.

    Handler threads are non-daemon so ``server_close()`` joins them:
    responses for already-accepted requests are fully written before
    shutdown proceeds (daemon threads would be killed at interpreter
    exit mid-write).  Two mechanisms bound how long keep-alive clients
    can delay that join: the handler's idle read timeout (silent
    connections), and the ``draining`` flag set by :meth:`shutdown`,
    which makes every subsequent response close its connection (active
    pollers would otherwise keep a persistent connection served
    forever).
    """

    daemon_threads = False
    allow_reuse_address = True
    # http.server's listen backlog of 5 resets or stalls a burst of
    # simultaneous connects before the accept loop gets to them.
    request_queue_size = 128
    #: Once True, handlers answer the current request then close the
    #: connection, so server_close() can join their threads.
    draining = False
    #: Per-request stderr logging is off unless a runner turns it on.
    quiet = True

    def shutdown(self) -> None:
        """Stop accepting requests and drain keep-alive connections."""
        self.draining = True
        super().shutdown()


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request/response plumbing for a :class:`DrainingHTTPServer`."""

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
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # such replies carry no headers
            self.wfile.write(body)
        else:
            # end_headers() would flush the head by itself; queue the
            # body behind it so both leave in a single write.
            self._headers_buffer += (b"\r\n", body)
            self.flush_headers()

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

    def _read_json(self) -> object:
        length = self._content_length()
        if length <= 0:
            raise ProtocolError("request body required")
        if length > self.max_body_bytes:
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes} byte limit"
            )
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"bad JSON body: {error}") from None
