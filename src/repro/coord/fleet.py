"""Local worker fleets: spawn, watch, and reap ``repro serve`` workers.

:class:`LocalWorkerFleet` turns a list of partition store directories
into a set of ``repro serve`` subprocesses bound to ephemeral ports,
parsing each worker's load-bearing ``listening on http://host:port``
log line to learn where it landed.  It exists so ``repro coordinate
--spawn-workers`` is a one-command scale-out demo — production
deployments pass pre-started worker URLs via ``--worker`` instead and
never touch this module.

Workers inherit the coordinator's interpreter and ``sys.path`` (via
``PYTHONPATH``), so the fleet works from a source checkout without an
installed package.  Teardown is polite-then-firm: SIGTERM, bounded
wait, SIGKILL.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, List, Optional, Sequence, Union

#: Pattern matching the serve runner's bound-address log line.
LISTENING_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Lines of worker output retained per worker for failure diagnostics.
LOG_TAIL_LINES = 200


class FleetError(RuntimeError):
    """A worker failed to start or died before binding its port."""


class LocalWorker:
    """One spawned ``repro serve`` subprocess and its output tail."""

    def __init__(self, index_path: Path, process: subprocess.Popen) -> None:
        self.index_path = index_path
        self.process = process
        self.url: Optional[str] = None
        self.logs: Deque[str] = deque(maxlen=LOG_TAIL_LINES)
        self._bound = threading.Event()
        self._reader = threading.Thread(
            target=self._read_output,
            name=f"fleet-reader-{process.pid}",
            daemon=True,
        )
        self._reader.start()

    def _read_output(self) -> None:
        stream = self.process.stdout
        if stream is None:  # pragma: no cover - stdout is always piped
            return
        for raw in stream:
            line = raw.decode("utf-8", "replace").rstrip()
            self.logs.append(line)
            if self.url is None:
                match = LISTENING_PATTERN.search(line)
                if match:
                    self.url = f"http://{match.group(1)}:{match.group(2)}"
                    self._bound.set()
        self._bound.set()  # EOF: unblock waiters even on startup failure

    def wait_bound(self, timeout: float) -> str:
        """Block until the worker logs its bound address; return its URL."""
        self._bound.wait(timeout)
        if self.url is None:
            tail = "\n".join(self.logs)
            raise FleetError(
                f"worker for {self.index_path} did not bind within "
                f"{timeout:.0f}s (exit code {self.process.poll()}); "
                f"output tail:\n{tail}"
            )
        return self.url

    @property
    def alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self.process.poll() is None


class LocalWorkerFleet:
    """Spawn one ``repro serve`` per partition directory on port 0."""

    def __init__(
        self,
        index_paths: Sequence[Union[str, Path]],
        host: str = "127.0.0.1",
        mode: str = "open",
        open_window: float = 500.0,
        workers: int = 0,
        extra_args: Sequence[str] = (),
        startup_timeout: float = 60.0,
    ) -> None:
        """Spawn the fleet; call :meth:`wait_ready` before routing to it.

        Args:
            index_paths: One store/index path per worker.
            host: Bind address for every worker.
            mode: Search mode forwarded to ``repro serve --mode``.
            open_window: Open-search window forwarded to the workers.
            workers: Per-worker scoring thread count (0 = serial).
            extra_args: Additional ``repro serve`` flags, verbatim.
            startup_timeout: Seconds to wait for each port binding.
        """
        self.startup_timeout = startup_timeout
        self.workers: List[LocalWorker] = []
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p]
            + [p for p in (environment.get("PYTHONPATH") or "").split(os.pathsep) if p]
        )
        try:
            for path in index_paths:
                path = Path(path)
                command = [
                    sys.executable,
                    "-u",
                    "-c",
                    "from repro.cli import main; import sys; sys.exit(main())",
                    "serve",
                    "--index",
                    str(path),
                    "--host",
                    host,
                    "--port",
                    "0",
                    "--mode",
                    mode,
                    "--open-window",
                    str(open_window),
                    "--workers",
                    str(workers),
                    *extra_args,
                ]
                process = subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    env=environment,
                    start_new_session=True,
                )
                self.workers.append(LocalWorker(path, process))
        except Exception:
            self.close()
            raise

    def wait_ready(self) -> List[str]:
        """Wait for every worker to bind; return their URLs in order."""
        try:
            return [
                worker.wait_bound(self.startup_timeout)
                for worker in self.workers
            ]
        except FleetError:
            self.close()
            raise

    def close(self, grace: float = 10.0) -> None:
        """Terminate every worker: SIGTERM, wait up to ``grace``, SIGKILL."""
        for worker in self.workers:
            if worker.alive:
                worker.process.terminate()
        deadline = time.monotonic() + grace
        for worker in self.workers:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                worker.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
        for worker in self.workers:
            stream = worker.process.stdout
            if stream is not None:
                try:
                    stream.close()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass

    def __enter__(self) -> "LocalWorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
