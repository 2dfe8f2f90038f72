"""Wire protocol shared by the search server and its clients.

Three concerns live here because both sides of the HTTP boundary need
them:

* a JSON codec for :class:`~repro.ms.spectrum.Spectrum` payloads
  (``spectrum_to_payload`` / ``spectrum_from_payload``) with loud,
  field-level validation errors;
* a canonical **content digest** for spectra
  (:func:`spectrum_digest`) that ignores the identifier, so two
  requests carrying the same peaks/precursor hash to the same cache
  key no matter what the client called them;
* a **configuration fingerprint** (:func:`config_fingerprint`) mixing
  the index provenance with the search-stage knobs, so cached results
  can never leak across indexes, windows, or modes;
* the **route** field of the multi-index protocol
  (:func:`route_from_payload`, :data:`ROUTE_PATTERN`): requests may
  name which loaded library they target, and both the server and the
  :class:`~repro.service.registry.IndexRegistry` validate route names
  against the same pattern;
* the ``/score`` hop's binary frames: packed query rows, masses and
  charges out, fixed-width winner columns and one JSON array of their
  records back, each side checking what arrives from outside;
* the errors the HTTP layer maps to a status without importing their
  raisers (:class:`UnknownRouteError`, :class:`CapacityError`,
  :class:`UnavailableError`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import struct
from typing import Optional, Tuple

import numpy as np

from ..index.library import ReferenceRecord
from ..ms.peptide import Peptide
from ..ms.spectrum import Spectrum


class ProtocolError(ValueError):
    """A request payload does not describe a valid spectrum."""


#: Legal route names: metric-label safe, path-safe, no whitespace.
ROUTE_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Route name used when a single unnamed index is served.  Lives here
#: (not in registry.py) so server.py can share it without an import
#: cycle.
DEFAULT_ROUTE = "default"


class UnknownRouteError(LookupError):
    """A request named a route the server does not serve (HTTP 404).

    Lives here, like :data:`DEFAULT_ROUTE`, so the HTTP layer can map
    it to a status without importing the registry that raises it.
    """

    def __init__(self, route: str, known) -> None:
        super().__init__(
            f"unknown route {route!r}; serving {sorted(known)}"
        )
        self.route = route


class CapacityError(RuntimeError):
    """A route's admission gate is full (HTTP 429 with ``Retry-After``).

    Raised by a service whose ``ServiceConfig.max_inflight`` requests
    are already searching; the client's retry policy is the queue.
    """


class UnavailableError(RuntimeError):
    """The engine cannot answer right now (HTTP 503); a retry may.

    The coordinator's ``CoordinatorError`` (no replica of a partition
    answered) is one.
    """


def validate_route_name(route: str) -> str:
    """Return ``route`` if it is a legal route name, else raise."""
    if not isinstance(route, str) or not ROUTE_PATTERN.match(route):
        raise ProtocolError(
            f"bad route name {route!r}: expected 1-64 chars of "
            "[A-Za-z0-9._-] starting with a letter or digit"
        )
    return route


def route_from_payload(payload: object) -> Optional[str]:
    """Extract and validate the optional ``route`` field of a request.

    ``None`` (field absent or explicitly null) means "use the server's
    default route"; anything else must be a legal route name.
    """
    if not isinstance(payload, dict):
        return None
    route = payload.get("route")
    if route is None:
        return None
    return validate_route_name(route)


def spectrum_to_payload(spectrum: Spectrum) -> dict:
    """Encode a spectrum as a JSON-safe dict (the ``/search`` body)."""
    payload = {
        "id": spectrum.identifier,
        "precursor_mz": float(spectrum.precursor_mz),
        "precursor_charge": int(spectrum.precursor_charge),
        "mz": [float(value) for value in spectrum.mz],
        "intensity": [float(value) for value in spectrum.intensity],
    }
    if spectrum.peptide is not None:
        payload["peptide"] = spectrum.peptide.sequence
    if spectrum.retention_time is not None:
        payload["retention_time"] = float(spectrum.retention_time)
    return payload


def spectrum_from_payload(payload: object) -> Spectrum:
    """Decode one spectrum payload, raising :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"spectrum payload must be an object, got {type(payload).__name__}"
        )
    for field in ("precursor_mz", "precursor_charge", "mz", "intensity"):
        if field not in payload:
            raise ProtocolError(f"spectrum payload is missing {field!r}")
    peptide: Optional[Peptide] = None
    if payload.get("peptide"):
        try:
            peptide = Peptide(str(payload["peptide"]))
        except ValueError as error:
            raise ProtocolError(f"bad peptide: {error}") from None
    try:
        return Spectrum(
            identifier=str(payload.get("id", "query")),
            precursor_mz=float(payload["precursor_mz"]),
            precursor_charge=int(payload["precursor_charge"]),
            mz=np.asarray(payload["mz"], dtype=np.float64),
            intensity=np.asarray(payload["intensity"], dtype=np.float32),
            peptide=peptide,
            retention_time=(
                float(payload["retention_time"])
                if payload.get("retention_time") is not None
                else None
            ),
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad spectrum payload: {error}") from None


def spectrum_digest(spectrum: Spectrum) -> str:
    """Canonical content hash of one spectrum.

    Covers precursor m/z, charge, and the peak arrays — *not* the
    identifier — so renamed resubmissions of the same scan collide on
    purpose.  Peaks are already m/z-sorted by ``Spectrum.__post_init__``,
    making the byte stream canonical.
    """
    hasher = hashlib.sha256()
    hasher.update(
        struct.pack("<dq", float(spectrum.precursor_mz), int(spectrum.precursor_charge))
    )
    hasher.update(np.ascontiguousarray(spectrum.mz, dtype=np.float64).tobytes())
    hasher.update(
        np.ascontiguousarray(spectrum.intensity, dtype=np.float32).tobytes()
    )
    return hasher.hexdigest()


def config_fingerprint(index_provenance: dict, windows, search_config) -> str:
    """Hash of everything that can change a search result.

    ``index_provenance`` is :meth:`LibraryIndex.provenance`; ``windows``
    and ``search_config`` are the dataclass configs.  Two services with
    equal fingerprints return bit-identical PSMs for the same spectrum,
    which is exactly the property the result cache needs.
    """
    blob = json.dumps(
        {
            "index": index_provenance,
            "windows": dataclasses.asdict(windows),
            "search": dataclasses.asdict(search_config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The ``/score`` frames' media type, both ways.
SCORE_CONTENT_TYPE = "application/octet-stream"
#: The start of every ``/score`` frame: magic ``HDSC`` and version 1 as ``<I``.
SCORE_PREAMBLE = b"HDSC" + struct.pack("<I", 1)
#: Little-endian heads after the preamble: the request's ``dim``, query count and
#: half-width, or the reply's query count.
_REQUEST_HEAD, _REPLY_HEAD = struct.Struct("<8sqqd"), struct.Struct("<8sq")
#: The per-query winner columns of a ``/score`` reply, in order, and their wire dtypes.
SCORE_COLUMNS = {"counts": "<i8", "scores": "<f8", "masses": "<f8", "positions": "<i8"}


def _frame_head(head: struct.Struct, body: bytes, what: str) -> tuple:
    """The head fields after the preamble of a ``/score`` frame, or :class:`ProtocolError`."""
    if body[:8] != SCORE_PREAMBLE or len(body) < head.size:
        raise ProtocolError(f"{what} of {len(body)} bytes starting {body[:8]!r} is not a "
                            f"{SCORE_PREAMBLE!r} {SCORE_CONTENT_TYPE} frame")
    return head.unpack_from(body)[1:]


def encode_score_request(queries: np.ndarray, dim: int, masses, charges, half_width) -> bytes:
    """The ``/score`` body for packed ``(n, ceil(dim / 8))`` query rows."""
    masses, charges = np.asarray(masses, "<f8"), np.asarray(charges, "<i8")
    head = _REQUEST_HEAD.pack(SCORE_PREAMBLE, dim, masses.size, half_width)
    packed = np.ascontiguousarray(queries, np.uint8).tobytes()
    return b"".join((head, packed, masses.tobytes(), charges.tobytes()))


def decode_score_request(body: bytes, dim: int) -> Tuple:
    """``(packed, masses, charges, half_width)`` of a ``/score`` body for a ``dim``-wide route.

    Raises:
        ProtocolError: Unless the head is a request's for ``dim`` and exactly its rows of
            ``ceil(dim / 8)`` bytes, masses and charges follow, with every mass finite, every
            charge >= 1 and the half-width finite and >= 0.
    """
    sent_dim, rows, half_width = _frame_head(_REQUEST_HEAD, body, "/score body")
    row_bytes, offset = (dim + 7) // 8, _REQUEST_HEAD.size
    if sent_dim != dim or len(body) != offset + rows * (row_bytes + 16):
        raise ProtocolError(f"/score for dim {dim} got dim {sent_dim} and {len(body) - offset} "
                            f"bytes for {rows} queries of {row_bytes} + 16")
    if not 0 <= half_width < math.inf:
        raise ProtocolError(f"half_width must be finite and >= 0, got {half_width}")
    packed = np.frombuffer(body, np.uint8, rows * row_bytes, offset).reshape(rows, row_bytes)
    masses = np.frombuffer(body, "<f8", rows, offset + packed.size).astype(np.float64)
    charges = np.frombuffer(body, "<i8", rows, offset + packed.size + 8 * rows).astype(np.int64)
    if not np.isfinite(masses).all() or (charges < 1).any():
        raise ProtocolError("every /score mass must be finite and every charge >= 1")
    return packed, masses, charges, half_width


def encode_score_reply(counts, scores, masses, positions, records) -> bytes:
    """The ``/score`` reply: the winner columns, then one JSON array of records."""
    columns = zip((counts, scores, masses, positions), SCORE_COLUMNS.values())
    tail = [None if r is None else (r.identifier, r.peptide, r.is_decoy, r.neutral_mass,
                                    r.precursor_charge) for r in records]
    return b"".join([_REPLY_HEAD.pack(SCORE_PREAMBLE, len(records)),
                     *(np.asarray(column, dtype).tobytes() for column, dtype in columns),
                     json.dumps(tail).encode()])


def decode_score_reply(body: bytes, num_queries: int) -> Tuple:
    """``(counts, scores, masses, positions, records)`` of a ``/score`` reply.

    Raises:
        ProtocolError: Unless the head is a reply's for ``num_queries``, each column is whole,
            and one JSON array holds a five-field record exactly where a winner row is named.
    """
    (rows,) = _frame_head(_REPLY_HEAD, body, "/score reply")
    if rows != num_queries:
        raise ProtocolError(f"/score reply for {rows} queries does not answer its {num_queries}")
    columns, offset = [], _REPLY_HEAD.size
    for name, dtype in SCORE_COLUMNS.items():
        if len(body) < offset + 8 * rows:
            raise ProtocolError(f"/score reply of {len(body)} bytes ends inside its {name} column")
        columns.append(np.frombuffer(body, dtype, rows, offset).astype(dtype[1:]))
        offset += 8 * rows
    try:
        tail = json.loads(body[offset:])
        if not isinstance(tail, list) or not all(r is None or isinstance(r, list) for r in tail):
            raise TypeError("records must be an array of arrays and nulls")
        records = [None if r is None else ReferenceRecord(*r) for r in tail]
    except (TypeError, ValueError) as error:  # UnicodeDecodeError and JSONDecodeError too
        raise ProtocolError(f"bad /score reply records: {type(error).__name__}: {error}") from None
    if [r is not None for r in records] != (columns[3] >= 0).tolist():
        raise ProtocolError(f"/score reply records do not match its {num_queries} winner rows")
    return (*columns, records)
