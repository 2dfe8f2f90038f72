"""Thread-safe LRU cache for per-spectrum search results.

Keys are ``(config fingerprint, spectrum digest)`` strings produced by
:mod:`repro.service.protocol`; values are the *search outcome* for that
spectrum — an anonymous PSM or ``None`` for an unmatched query.  A
cached miss is as valuable as a cached hit (the service would otherwise
re-run the full windowed scoring just to find nothing again), so the
cache must distinguish "stored None" from "absent": :meth:`get` returns
the :data:`MISSING` sentinel for absent keys.

The cache keeps no counters of its own: it reports each hit, miss and
eviction to its observer, the route's metric families, which both
``/metrics`` and ``/stats`` read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional

#: Sentinel distinguishing "key absent" from a cached ``None`` result.
MISSING = object()


class ResultCache:
    """Bounded LRU mapping of result keys to cached search outcomes.

    ``capacity=0`` disables storage entirely (every lookup misses, puts
    are dropped).

    ``observer``, when given, is called with ``"hit"`` / ``"miss"`` /
    ``"eviction"`` once per event, *outside* the cache lock (so an
    observer taking its own lock — the metrics counters do — cannot
    create a lock-ordering cycle with callers of the cache).
    """

    def __init__(
        self,
        capacity: int = 1024,
        observer: Optional[Callable[[str], None]] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.observer = observer
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def _notify(self, event: str, count: int = 1) -> None:
        if self.observer is not None:
            for _ in range(count):
                self.observer(event)

    def get(self, key: Hashable) -> object:
        """The cached value, or :data:`MISSING`; refreshes LRU order."""
        with self._lock:
            value = self._entries.get(key, MISSING)
            if value is not MISSING:
                self._entries.move_to_end(key)
        self._notify("miss" if value is MISSING else "hit")
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` (may be ``None``), evicting the LRU entry."""
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        self._notify("eviction", evicted)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
