"""The process-pool shard executor over a shared arena.

:class:`ProcessShardExecutor` is a ``multiprocessing`` pool whose
workers reattach the arena **by name** in their initializer; only the
query batch and the per-shard winners cross the pipe, never index rows.
It consumes task tuples ``(shard_id, packed_queries, query_masses,
query_charges, half_width)`` and returns ``(shard_id, wall_seconds,
*score_batch_results)``.  Works under fork and spawn start methods (the
setup dict is picklable).  In-process scoring — serial or on threads —
needs neither the arena nor this module: the fan-out core
(:mod:`repro.oms.loop`) scores the parent's own row views.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..oms.kernel import ShardScorer, shard_payload
from .arena import SharedShardArena

#: How long pool startup may take before the first scoring call gives
#: up, terminates the half-started pool, and raises.  A failing pool
#: initializer would otherwise respawn workers forever while ``map``
#: hangs — the timeout converts that into a clean startup error (and
#: lets the owner unlink the arena instead of leaking it).
POOL_START_TIMEOUT = 30.0

#: Per-process worker state, populated by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}


def arena_shard_payload(arena: SharedShardArena, setup: Dict, shard_id: int) -> Dict:
    """One shard's scorer payload built from arena views (worker side)."""
    return shard_payload(
        shard_id,
        setup["bounds"][shard_id],
        arena.array("packed"),
        arena.array("masses"),
        arena.array("charges"),
        dim=setup["dim"],
        charge_aware=setup["charge_aware"],
        ann=setup.get("ann"),
    )


def _init_arena_worker(setup: Dict) -> None:
    """Pool initializer: reattach the arena by name; scorers build lazily."""
    _WORKER_STATE["arena"] = SharedShardArena.attach(setup["spec"])
    _WORKER_STATE["setup"] = setup
    _WORKER_STATE["scorers"] = {}


def _worker_ping(_: int) -> int:
    """Liveness probe confirming the initializer ran to completion."""
    if "arena" not in _WORKER_STATE:  # pragma: no cover - defensive
        raise RuntimeError("worker initialized without an arena")
    return os.getpid()


def _score_arena_task(task: Tuple) -> Tuple:
    """Score one (shard, query batch) pair inside a pool worker.

    The second element of the returned tuple is the worker-side wall
    time of the scoring call, so the parent can merge per-shard spans
    into its trace without any tracer state crossing the pool boundary.
    """
    shard_id = task[0]
    scorers: Dict[int, ShardScorer] = _WORKER_STATE["scorers"]
    scorer = scorers.get(shard_id)
    if scorer is None:
        scorer = ShardScorer(
            arena_shard_payload(
                _WORKER_STATE["arena"], _WORKER_STATE["setup"], shard_id
            )
        )
        scorers[shard_id] = scorer
    started = time.perf_counter()
    scored = scorer.score_batch(*task[1:])
    return (shard_id, time.perf_counter() - started) + scored


class ProcessShardExecutor:
    """Shard scoring on a lazily created multiprocessing pool.

    Workers attach the arena by name in their initializer, so the only
    per-worker memory is the window-ordered packed rows of the shards it
    has scored — never a copy of the whole index.  ``run`` raises
    :class:`RuntimeError` when the pool cannot start within
    ``start_timeout`` seconds (wedged or crashing initializer); the
    half-started pool is terminated first so the caller can still
    unlink the arena cleanly.
    """

    def __init__(
        self,
        setup: Dict,
        num_workers: int,
        start_timeout: Optional[float] = None,
    ) -> None:
        self._setup = setup
        self._num_workers = num_workers
        self._start_timeout = (
            POOL_START_TIMEOUT if start_timeout is None else start_timeout
        )
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context()
            pool = context.Pool(
                processes=self._num_workers,
                initializer=_init_arena_worker,
                initargs=(self._setup,),
            )
            try:
                pool.apply_async(_worker_ping, (0,)).get(self._start_timeout)
            except Exception as error:
                pool.terminate()
                pool.join()
                raise RuntimeError(
                    "scoring pool failed to start (worker initializer "
                    f"did not come up within {self._start_timeout}s)"
                ) from error
            self._pool = pool
        return self._pool

    def run(self, tasks: List[Tuple]) -> List[Tuple]:
        """Score all shard tasks, one pool job each, in shard order."""
        return self._ensure_pool().map(_score_arena_task, tasks)

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down gracefully (idempotent).

        The pool is ``close()``-d and ``join()``-ed so in-flight shard
        tasks finish instead of being killed mid-request.  If the join
        does not complete within ``timeout`` seconds — a wedged worker —
        the pool falls back to ``terminate()``.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        pool.close()
        waiter = threading.Thread(target=pool.join, daemon=True)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            pool.terminate()
            waiter.join()
