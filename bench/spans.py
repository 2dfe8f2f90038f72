"""The harness's own span log for the traced (per-layer) run.

The traced run times calls into each layer's public functions *from the
harness's files*; spans inside the program are ``repro.obs``'s business
and a later change.  A span records a name, start, end, the span that
caused it and the run identifier, plus whatever counts the caller
attaches.  Spans stay in memory and are written once, when the run
ends (``--out``), so recording never touches the disk mid-measurement.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    name: str
    run_id: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall time between start and end."""
        return self.end - self.start


class SpanLog:
    """An in-memory list of spans with a current-span stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        """Time the body as a child of the span currently open."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.run_id, parent, time.perf_counter(), counts=dict(counts))
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.write_text(
            json.dumps([asdict(span) for span in self.spans], indent=1),
            encoding="utf-8",
        )
