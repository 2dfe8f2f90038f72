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
* the ``/score`` hop: packed query rows out, per-query winners and
  their records back, each side checking what arrives from outside;
* the errors the HTTP layer maps to a status without importing their
  raisers (:class:`UnknownRouteError`, :class:`CapacityError`,
  :class:`UnavailableError`).
"""

from __future__ import annotations

import base64
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


#: The per-query winner columns of a ``/score`` reply, and their dtypes.
SCORE_COLUMNS = {
    "counts": np.int64, "scores": np.float64, "masses": np.float64, "positions": np.int64
}


def score_request_to_payload(queries: np.ndarray, dim: int, masses, charges, half_width) -> dict:
    """The ``/score`` body for packed ``(n, ceil(dim / 8))`` query rows."""
    packed = base64.b64encode(np.ascontiguousarray(queries, np.uint8)).decode()
    return {"packed": packed, "dim": int(dim), "masses": np.asarray(masses, np.float64).tolist(),
            "charges": np.asarray(charges, np.int64).tolist(), "half_width": float(half_width)}


def score_request_from_payload(payload: object, dim: int) -> Tuple:
    """``(packed, masses, charges, half_width)`` of a ``/score`` body for a ``dim``-wide route.

    Raises:
        ProtocolError: Unless all is well typed, ``dim`` is the route's, each query has a mass,
            a charge and a ``ceil(dim / 8)``-byte row, and the half-width is finite and >= 0.
    """
    try:
        masses = np.asarray(payload["masses"], np.float64)
        charges = np.asarray(payload["charges"], np.int64)
        half_width = float(payload["half_width"])
        packed = np.frombuffer(base64.b64decode(payload["packed"], validate=True), np.uint8)
        sent_dim = payload["dim"]
    except (KeyError, TypeError, ValueError) as error:  # binascii.Error too
        raise ProtocolError(f"bad /score body: {type(error).__name__}: {error}") from None
    rows, row_bytes = masses.size, (dim + 7) // 8
    shaped = masses.shape == charges.shape == (rows,) and packed.size == rows * row_bytes
    if sent_dim != dim or not shaped:
        raise ProtocolError(
            f"/score for dim {dim} got dim {sent_dim!r}, {rows} masses, {charges.size} "
            f"charges and {packed.size} bytes for {rows} rows of {row_bytes}"
        )
    if not 0 <= half_width < math.inf:
        raise ProtocolError(f"half_width must be finite and >= 0, got {half_width}")
    return packed.reshape(rows, row_bytes), masses, charges, half_width


def score_reply_from_payload(payload: object, num_queries: int) -> Tuple:
    """``(counts, scores, masses, positions, records)`` of a ``/score`` reply.

    Raises:
        ProtocolError: Unless each column and the records hold one entry per query, with a
            record exactly where a winner row is named.
    """
    try:
        columns = [np.asarray(payload[name], dtype) for name, dtype in SCORE_COLUMNS.items()]
        records = [None if r is None else ReferenceRecord(**r) for r in payload["records"]]
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"bad /score reply: {type(error).__name__}: {error}") from None
    found = [record is not None for record in records]
    if any(c.shape != (num_queries,) for c in columns) or found != (columns[3] >= 0).tolist():
        raise ProtocolError(f"/score reply does not answer its {num_queries} queries")
    return (*columns, records)
