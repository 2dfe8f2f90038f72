"""Thin stdlib HTTP client for the search service.

:class:`SearchClient` speaks the JSON protocol of
:mod:`repro.service.server` using nothing but ``http.client``, and
converts wire payloads back into first-class
:class:`~repro.oms.psm.PSM` objects, so callers interact with the
remote service exactly like with a local
:class:`~repro.oms.search.HDOmsSearcher`::

    client = SearchClient("http://127.0.0.1:8337")
    psm = client.search(spectrum)           # Optional[PSM]
    psms = client.search_batch(spectra)     # aligned List[Optional[PSM]]

A coordinator calls :meth:`SearchClient.score` with queries it encoded.

Against a multi-index server, requests can target one of the loaded
libraries per call or bind a default for the whole client::

    yeast = SearchClient("http://127.0.0.1:8337", route="yeast")
    psm = yeast.search(spectrum)                  # always the yeast route
    psm = client.search(spectrum, route="human")  # per-call override

The server speaks HTTP/1.1 keep-alive, so the client pools one
persistent connection per calling thread instead of paying a TCP
handshake per request.  A pooled socket can go stale between calls
(the server's idle timeout, a restart, a drain); the first send on a
stale socket fails before the server ever sees the request, so the
client transparently retries exactly once on a fresh connection.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..ms.spectrum import Spectrum
from ..oms.psm import PSM
from .protocol import SCORE_CONTENT_TYPE, ProtocolError, decode_score_reply
from .protocol import encode_score_request, spectrum_to_payload


class ServiceError(RuntimeError):
    """An HTTP request to the search service failed.

    ``status`` is the HTTP status code, or ``None`` when the service
    could not be reached at all.
    """

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class SearchClient:
    """Blocking JSON client for one search service endpoint.

    ``route`` (optional) names the library every request of this client
    targets; ``None`` lets the server pick its default route.  Each
    search method also takes a per-call ``route`` override.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        route: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.route = route
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"unsupported service URL {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        # One pooled keep-alive connection per calling thread
        # (http.client connections are not thread-safe); every
        # connection ever opened is also tracked under a lock so
        # close() can shut them all down from any thread.
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []
        # Counts close() calls, so a request can tell a hang-up that
        # happened under it from a stale socket.
        self._closes = 0

    def for_route(self, route: Optional[str]) -> "SearchClient":
        """A sibling client bound to ``route`` (same URL and timeout)."""
        return SearchClient(self.base_url, timeout=self.timeout, route=route)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            connection = factory(self._host, self._port, timeout=self.timeout)
            self._local.connection = connection
            with self._pool_lock:
                self._connections.append(connection)
        return connection

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        """Drop a (possibly stale) pooled connection."""
        try:
            connection.close()
        except Exception:  # noqa: BLE001 - best-effort socket teardown
            pass
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None
        with self._pool_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def close(self) -> None:
        """Hang up every pooled connection (the client stays usable).

        A request another thread has parked on one of them fails at
        once with :class:`ServiceError` instead of waiting out the
        timeout, and is not retried.
        """
        with self._pool_lock:
            self._closes += 1
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                if connection.sock is not None:
                    # close() alone does not wake a thread blocked in
                    # recv() on the socket; shutting it down does.
                    connection.sock.shutdown(socket.SHUT_RDWR)
                connection.close()
            except Exception:  # noqa: BLE001 - best-effort socket teardown
                pass
        self._local.connection = None

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, payload: Optional[dict] = None, headers=None):
        """One JSON round trip: ``payload`` (if any) out, the parsed reply back."""
        body = None
        headers = {"Accept": "application/json", **(headers or {})}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        return json.loads(self._exchange(method, path, body, headers).decode("utf-8"))

    def _exchange(self, method: str, path: str, body: Optional[bytes], headers: dict) -> bytes:
        """One round trip of raw bodies; an HTTP error status raises :class:`ServiceError`."""
        # A stale keep-alive socket fails on the *first* reused request
        # after the server closed its end; the request never reached a
        # handler, so exactly one transparent retry on a fresh
        # connection is safe for every method.
        closes = self._closes
        for attempt in (0, 1):
            connection = self._connection()
            fresh = connection.sock is None
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
            except (
                http.client.RemoteDisconnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ) as error:
                self._discard(connection)
                if attempt == 0 and not fresh and closes == self._closes:
                    continue
                raise ServiceError(
                    f"cannot reach {self.base_url}: {error}"
                ) from None
            except (socket.timeout, TimeoutError) as error:
                self._discard(connection)
                raise ServiceError(
                    f"{method} {path} timed out after {self.timeout}s: {error}"
                ) from None
            except (http.client.HTTPException, OSError) as error:
                self._discard(connection)
                raise ServiceError(
                    f"cannot reach {self.base_url}: {error}"
                ) from None
            if response.will_close:
                # The server asked to close (error path or drain);
                # honour it so the next request opens a fresh socket.
                self._discard(connection)
            if response.status >= 400:
                detail = ""
                try:
                    detail = json.loads(data.decode("utf-8")).get("error", "")
                except Exception:  # noqa: BLE001 - best-effort error body
                    pass
                raise ServiceError(
                    f"{method} {path} failed with HTTP {response.status}"
                    + (f": {detail}" if detail else ""),
                    status=response.status,
                )
            return data
        raise AssertionError("unreachable")  # pragma: no cover

    def _resolve_route(self, route: Optional[str]) -> Optional[str]:
        return route if route is not None else self.route

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def search(
        self,
        spectrum: Spectrum,
        route: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Optional[PSM]:
        """Search one spectrum; None when the service found no match."""
        payload = self.search_detailed(
            spectrum, route=route, request_id=request_id
        ).get("psm")
        return PSM.from_dict(payload) if payload is not None else None

    def search_detailed(
        self,
        spectrum: Spectrum,
        route: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """The raw ``/search`` reply (psm, cached flag, request id, timing).

        ``request_id`` pins the ``X-Request-Id`` the server would
        otherwise generate, correlating this call with the caller's own
        logs and with ``/debug/trace?request_id=...``.
        """
        body = {"spectrum": spectrum_to_payload(spectrum)}
        return self._post("/search", body, route, request_id)

    def search_batch(
        self,
        spectra: Sequence[Spectrum],
        route: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> List[Optional[PSM]]:
        """Search many spectra in one round trip; result aligns to input."""
        body = {"spectra": [spectrum_to_payload(spectrum) for spectrum in spectra]}
        return [
            PSM.from_dict(payload) if payload is not None else None
            for payload in self._post("/search_batch", body, route, request_id)["psms"]
        ]

    def score(
        self, queries, dim: int, masses, charges, half_width: float,
        route: Optional[str] = None, request_id: Optional[str] = None,
    ) -> Tuple:
        """``(counts, scores, masses, positions, records)`` of packed query rows.

        One ``/score`` round trip of binary frames (:mod:`~repro.service.protocol`):
        the worker's winners, in its own rows.

        Raises:
            ServiceError: On a transport or HTTP failure, or a reply
                that does not answer every query.
        """
        path, resolved = "/score", self._resolve_route(route)
        if resolved is not None:
            path += "?" + urllib.parse.urlencode({"route": resolved})
        headers = {"Content-Type": SCORE_CONTENT_TYPE}
        if request_id:
            headers["X-Request-Id"] = request_id
        body = encode_score_request(queries, dim, masses, charges, half_width)
        try:
            return decode_score_reply(self._exchange("POST", path, body, headers), len(masses))
        except ProtocolError as error:
            raise ServiceError(f"{self.base_url}: {error}") from None

    def _post(self, path: str, body: dict, route: Optional[str], request_id: Optional[str]):
        """POST ``body`` to ``path`` with the route and request id filled in."""
        resolved = self._resolve_route(route)
        if resolved is not None:
            body["route"] = resolved
        headers = {"X-Request-Id": request_id} if request_id else None
        return self._request("POST", path, body, headers=headers)

    def healthz(self) -> dict:
        """Liveness probe payload (includes the per-route breakdown)."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """Cache / scheduler / latency counters, overall and per route."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The raw Prometheus text payload of ``/metrics``."""
        return self._exchange("GET", "/metrics", None, {}).decode("utf-8")

    def debug_slow(self) -> dict:
        """The server's slow-query ring buffer (``/debug/slow``)."""
        return self._request("GET", "/debug/slow")

    def debug_trace(self, request_id: Optional[str] = None) -> dict:
        """Chrome ``trace_event`` JSON from ``/debug/trace``.

        With ``request_id``, only that request's spans are exported.
        """
        path = "/debug/trace"
        if request_id is not None:
            path += "?" + urllib.parse.urlencode({"request_id": request_id})
        return self._request("GET", path)

    def reload(
        self,
        index_path: Union[str, Path, None] = None,
        route: Optional[str] = None,
        remove: bool = False,
        ann: Optional[bool] = None,
    ) -> dict:
        """Hot-swap, add, remove, or re-tune one route without draining others.

        * no arguments — reload the client's (or server's default)
          route in place from its original path;
        * ``index_path`` — swap that route's index from a new file, or
          **add** a brand-new route when ``route`` names one the server
          does not serve yet;
        * ``remove=True`` — detach ``route`` and close it gracefully;
        * ``ann=True`` / ``ann=False`` — toggle the route's ANN
          candidate pass on its already-loaded index (mutually
          exclusive with the other forms).
        """
        if remove and index_path is not None:
            # Mirror the server's 400 instead of silently dropping the
            # path and removing the route anyway.
            raise ValueError("remove=True and index_path are mutually exclusive")
        if ann is not None and (remove or index_path is not None):
            raise ValueError(
                "ann is mutually exclusive with index_path and remove"
            )
        payload: dict = {}
        resolved = self._resolve_route(route)
        if resolved is not None:
            payload["route"] = resolved
        if ann is not None:
            payload["ann"] = ann
        elif remove:
            payload["remove"] = True
        elif index_path is not None:
            payload["index"] = str(index_path)
        return self._request("POST", "/reload", payload)
