"""Shared-memory arena for zero-copy shard scoring.

A :class:`SharedShardArena` places a set of named NumPy arrays (the
packed hypervector matrix, precursor masses/charges) in **one**
``multiprocessing.shared_memory`` segment.  The
creating process copies each array in exactly once; worker processes
reattach by name via the picklable :class:`ArenaSpec` and build views,
worker threads simply share the owner's views — nobody pays a second
copy of the index.

Lifecycle rules (the part that usually leaks):

* Only the **owner** (the process that called :meth:`create`) ever
  unlinks the segment.  Attachers deregister themselves from the
  ``resource_tracker`` on attach, so a worker exiting — or being
  terminated — can neither unlink the segment under the owner nor
  trigger a "leaked shared_memory objects" warning.
* :meth:`close` is idempotent and unlink-safe even while views are
  still alive (the mapping then dies with the process; the *name* is
  removed immediately).
* Owners are tracked in a process-wide registry cleaned up by
  ``atexit`` and — when no other handler owns the signal — ``SIGTERM``,
  so a killed CLI run leaves nothing behind in ``/dev/shm``.  A forked
  child inheriting the registry can never unlink the parent's segments:
  unlink is guarded by the creating PID.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Mapping, Tuple

import numpy as np

#: Segment offsets are rounded up to this many bytes so every array
#: view starts cache-line aligned (keeps the scoring slabs friendly to
#: vectorized XOR/popcount and BLAS kernels).
ARENA_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + ARENA_ALIGN - 1) // ARENA_ALIGN * ARENA_ALIGN


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable identity + layout of one arena segment.

    ``layout`` maps each array key to ``(offset, dtype string, shape)``;
    together with ``name`` it is everything a worker process needs to
    reattach and rebuild the exact views the owner holds.
    """

    name: str
    size: int
    layout: Tuple[Tuple[str, int, str, Tuple[int, ...]], ...]


#: Live owner arenas in this process, cleaned up at exit / on SIGTERM.
_LIVE_OWNERS: "weakref.WeakSet[SharedShardArena]" = weakref.WeakSet()
_SIGTERM_HOOKED = False


def _cleanup_live_arenas() -> None:
    """Unlink every owner arena still alive in this process."""
    for arena in list(_LIVE_OWNERS):
        try:
            arena.close()
        except Exception:  # pragma: no cover - best-effort shutdown path
            pass


atexit.register(_cleanup_live_arenas)


def _hook_sigterm() -> None:
    """Chain arena cleanup into SIGTERM when nobody else handles it.

    Installed once, from the main thread only, and only while the
    current disposition is the default (a server that already owns
    SIGTERM — ``repro serve`` — closes its searchers on its own
    shutdown path, which unlinks the arenas without our help).  The
    handler re-raises the default SIGTERM after cleanup so the exit
    status still reports death-by-signal.
    """
    global _SIGTERM_HOOKED
    if _SIGTERM_HOOKED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
            _SIGTERM_HOOKED = True
            return

        def _handler(signum, frame):  # pragma: no cover - exercised via subprocess
            _cleanup_live_arenas()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _handler)
        _SIGTERM_HOOKED = True
    except (ValueError, OSError):  # pragma: no cover - non-main interpreter
        pass


class SharedShardArena:
    """One shared-memory segment holding the arrays shard scorers read.

    Construct with :meth:`create` (owner side) or :meth:`attach`
    (worker side); both sides read arrays through :meth:`array`.  The
    class is also a context manager: leaving the ``with`` block closes
    (and, for owners, unlinks) the segment.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: ArenaSpec,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._owner_pid = os.getpid() if owner else -1
        self._views: Dict[str, np.ndarray] = {}
        self._closed = False
        if owner:
            _LIVE_OWNERS.add(self)
            _hook_sigterm()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedShardArena":
        """Copy ``arrays`` into a fresh segment and become its owner.

        Args:
            arrays: Named source arrays; each is copied once into the
                segment (sources may be memory-mapped or non-contiguous).

        Returns:
            The owning arena; :meth:`spec` describes it to attachers.

        Raises:
            ValueError: If ``arrays`` is empty.
        """
        if not arrays:
            raise ValueError("an arena needs at least one array")
        layout = []
        offset = 0
        sources = {}
        for key, value in arrays.items():
            source = np.asarray(value)
            offset = _aligned(offset)
            layout.append((key, offset, source.dtype.str, tuple(source.shape)))
            offset += source.nbytes
            sources[key] = source
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        spec = ArenaSpec(name=shm.name, size=max(1, offset), layout=tuple(layout))
        arena = cls(shm, spec, owner=True)
        for key, off, dtype, shape in layout:
            np.copyto(arena._view(key, off, dtype, shape), sources[key])
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedShardArena":
        """Attach to an existing segment by name (worker side).

        The attachment is never registered with the
        ``resource_tracker`` so only the owner's exit can unlink the
        segment — attaching workers dying (even violently) never
        produce leaked-segment warnings or pull the segment out from
        under their siblings.  (Registration must be *suppressed*, not
        undone: forked workers share the parent's tracker process, so a
        worker-side ``unregister`` would strip the owner's own entry.)
        """
        try:
            # Python >= 3.13 supports opting out of tracking directly.
            shm = shared_memory.SharedMemory(name=spec.name, track=False)
        except TypeError:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=spec.name)
            finally:
                resource_tracker.register = original
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def _view(
        self, key: str, offset: int, dtype: str, shape: Tuple[int, ...]
    ) -> np.ndarray:
        view = self._views.get(key)
        if view is None:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
            )
            self._views[key] = view
        return view

    def array(self, key: str) -> np.ndarray:
        """A zero-copy view of the named array inside the segment."""
        if self._closed:
            raise RuntimeError("arena is closed")
        for name, offset, dtype, shape in self._spec.layout:
            if name == key:
                return self._view(name, offset, dtype, shape)
        raise KeyError(key)

    def keys(self) -> Tuple[str, ...]:
        """The array names stored in this arena."""
        return tuple(name for name, _, _, _ in self._spec.layout)

    def spec(self) -> ArenaSpec:
        """The picklable reattachment spec for worker processes."""
        return self._spec

    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self._spec.name

    @property
    def nbytes(self) -> int:
        """Payload bytes held by the segment."""
        return self._spec.size

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` already ran."""
        return self._closed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Detach; the owner also unlinks the segment name (idempotent).

        Safe to call while scorer views are still alive: the mapping
        then stays valid until the last view dies with the process, but
        the name is gone immediately, so nothing can leak past process
        exit.  A forked child sharing the owner object can never unlink
        the parent's segment (PID-guarded).
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # live views — unmapped at process exit instead
            pass
        if self._owner and os.getpid() == self._owner_pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_OWNERS.discard(self)

    def __enter__(self) -> "SharedShardArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
