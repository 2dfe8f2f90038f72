"""Subprocess plumbing: run CLI verbs, run servers, and clean up after both.

Every program under test is started from here, as ``python -m repro.cli
<verb>`` with ``PYTHONPATH`` pointing at the checkout's ``src``.  The
harness makes itself the *child subreaper* of its process tree: whatever
a verb leaves behind when it exits (``multiprocessing``'s resource
tracker, workers that ``repro coordinate --spawn-workers`` started in
sessions of their own) is re-parented to the harness instead of to
init, so the harness can find it among its own descendants, kill it,
and wait until it is gone — nothing, not even a zombie, outlives a run.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: ``prctl`` option: orphaned descendants are re-parented to the caller.
PR_SET_CHILD_SUBREAPER = 36

#: The servers' load-bearing bound-address log line.
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Wall-clock cap for one CLI verb (the driver allows a run 180 s).
CLI_TIMEOUT_S = 120.0

#: Wall-clock cap for a server to report healthy.
SERVER_TIMEOUT_S = 60.0

#: How long helpers of an exited verb get to exit on their own.
ORPHAN_GRACE_S = 3.0

SHM_DIR = Path("/dev/shm")


class BenchError(RuntimeError):
    """The benchmark could not be carried out (not a wrong answer)."""


@dataclass
class CliResult:
    """Outcome of one CLI verb.

    Attributes:
        returncode: Exit code (negative = killed by that signal).
        wall_s: Spawn-to-reap wall time — what a shell user waits.
        max_rss_mb: Peak resident set of the child and the descendants
            it waited for, from ``os.wait4``.
        log: Path of the captured stdout+stderr.
    """

    returncode: int
    wall_s: float
    max_rss_mb: float
    log: Path


class Sandbox:
    """One run's scratch directory, environment and process ledger.

    Use as a context manager: leaving it kills every server still
    running, waits until no descendant of the harness is left, removes
    the directory, and reports what it had to clean up in :attr:`leaks`
    (orphan processes, ``/dev/shm`` segments).
    """

    def __init__(self, root: Path, src: Path, run_id: str) -> None:
        self.root = root
        self.run_id = run_id
        self.servers: List["Server"] = []
        self.leaks: List[str] = []
        self.cli_calls = 0
        self.cli_failures = 0
        self._log_counter = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        # Anything the program puts in a temp dir stays inside the checkout.
        self.env["TMPDIR"] = str(root / "tmp")
        self._shm_before: Set[str] = set()

    def __enter__(self) -> "Sandbox":
        adopt_orphans()
        if self.root.exists():
            shutil.rmtree(self.root)
        (self.root / "tmp").mkdir(parents=True)
        self._shm_before = _shm_names()
        return self

    def __exit__(self, *exc_info) -> None:
        for server in list(self.servers):
            server.stop()
        _stop_resource_tracker()
        # Helpers of an exited verb (multiprocessing's resource tracker)
        # notice their parent is gone a moment later; only what is still
        # there after a grace period was left behind.
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while living_descendants() and time.monotonic() < deadline:
            time.sleep(0.02)
        reported: Set[int] = set()
        while True:
            left = living_descendants()
            if not left:
                break
            for pid in left:
                if pid not in reported:
                    reported.add(pid)
                    self.leaks.append(f"orphan process {pid}: {_cmdline(pid)}")
                _kill(pid, signal.SIGKILL)
            time.sleep(0.01)
        reap()
        # A new segment no live process maps any more was leaked: nothing
        # will ever unlink it.  (One that is mapped belongs to somebody
        # still running, possibly another benchmark on this machine.)
        leaked = _shm_names() - self._shm_before
        for name in sorted(leaked - _mapped_shm_names() if leaked else leaked):
            self.leaks.append(f"leftover /dev/shm segment {name}")
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass
        shutil.rmtree(self.root, ignore_errors=True)
        if self.root.exists():
            self.leaks.append(f"work dir {self.root} could not be removed")
        try:
            self.root.parent.rmdir()  # the shared parent, once the last run leaves
        except OSError:
            pass

    def path(self, name: str) -> Path:
        """A path inside the scratch directory."""
        return self.root / name

    def _next_log(self, stem: str) -> Path:
        self._log_counter += 1
        return self.root / f"log-{self._log_counter:03d}-{stem}.txt"

    def cli(self, *args: object, check: bool = True) -> CliResult:
        """Run one ``repro`` CLI verb to completion and time it.

        Args:
            *args: Arguments after ``python -m repro.cli``.
            check: Raise :class:`BenchError` on a non-zero exit (the
                failure is counted in :attr:`cli_failures` either way).
        """
        argv = [sys.executable, "-m", "repro.cli", *map(str, args)]
        log = self._next_log(str(args[0]))
        self.cli_calls += 1
        with open(log, "wb") as sink:
            start = time.perf_counter()
            process = subprocess.Popen(
                argv, stdout=sink, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.root, start_new_session=True,
            )
            watchdog = threading.Timer(CLI_TIMEOUT_S, _kill_group, [process.pid])
            watchdog.daemon = True
            watchdog.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                _kill_group(process.pid)
                process.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        # Popen did not reap the child itself; tell it the verdict.
        process.returncode = os.waitstatus_to_exitcode(status)
        result = CliResult(process.returncode, wall, usage.ru_maxrss / 1024.0, log)
        if result.returncode != 0:
            self.cli_failures += 1
            if check:
                raise BenchError(
                    f"`repro {' '.join(map(str, args))}` exited "
                    f"{result.returncode}:\n{_tail(log)}"
                )
        return result

    def serve(self, *args: object) -> "Server":
        """Start a long-running ``repro`` verb and wait until it is healthy."""
        server = Server(self, [str(a) for a in args])
        self.servers.append(server)
        server.wait_ready()
        return server


class Server:
    """A ``repro serve`` / ``repro coordinate`` process tree under test."""

    def __init__(self, sandbox: Sandbox, args: Sequence[str]) -> None:
        self.sandbox = sandbox
        self.args = list(args)
        self.log = sandbox._next_log(args[0])
        self.url: Optional[str] = None
        self.startup_s = 0.0
        self._sink = open(self.log, "wb")
        self._spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", *self.args],
            stdout=self._sink, stderr=subprocess.STDOUT,
            env=sandbox.env, cwd=sandbox.root, start_new_session=True,
        )

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers 200 with status ok.

        Sets :attr:`url` and :attr:`startup_s` (spawn to first healthy
        reply).  Raises :class:`BenchError` if the process exits or the
        deadline passes first.
        """
        deadline = self._spawned + SERVER_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            if self.url is None:
                match = LISTENING.search(self.log.read_text("utf-8", "replace"))
                if match:
                    self.url = f"http://{match.group(1)}:{match.group(2)}"
            if self.url is not None and self._healthy():
                self.startup_s = time.perf_counter() - self._spawned
                return
            time.sleep(0.005)
        self.stop()
        raise BenchError(
            f"`repro {' '.join(self.args)}` never became healthy "
            f"(exit code {self.process.returncode}):\n{_tail(self.log)}"
        )

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=5.0) as reply:
                return (
                    reply.status == 200
                    and json.loads(reply.read()).get("status") == "ok"
                )
        except (urllib.error.URLError, OSError, ValueError):
            return False

    def get(self, path: str) -> str:
        """GET ``path`` from the server and return the body as text."""
        with urllib.request.urlopen(self.url + path, timeout=30.0) as reply:
            return reply.read().decode("utf-8")

    def tree(self) -> List[int]:
        """PIDs of the server and every live descendant."""
        return [self.process.pid, *descendants(self.process.pid)]

    def peak_rss_mb(self) -> float:
        """Sum over the process tree of each member's peak RSS (VmHWM)."""
        return sum(_vm_hwm_mb(pid) for pid in self.tree())

    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole recorded tree."""
        if self in self.sandbox.servers:
            self.sandbox.servers.remove(self)
        tree = self.tree() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        for pid in tree:
            _kill(pid, signal.SIGKILL)
        self.process.wait()
        self._sink.close()


def _shm_names() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _mapped_shm_names() -> Set[str]:
    """Names under ``/dev/shm`` that some live process has mapped."""
    prefix = f"{SHM_DIR}/"
    mapped: Set[str] = set()
    for pid in _proc_pids():
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            _, _, path = line.partition(prefix)
            if path:
                mapped.add(path.split(" (deleted)")[0])
    return mapped


def _kill(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _kill_group(pid: int) -> None:
    """SIGKILL the process group ``pid`` leads and its stray descendants."""
    strays = descendants(pid)
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for stray in strays:
        _kill(stray, signal.SIGKILL)


def _proc_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _state_and_parent(pid: int) -> Optional[Tuple[str, int]]:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces or parentheses; the fields
    # after the *last* ")" are state, ppid, ...
    fields = stat.rsplit(")", 1)[-1].split()
    return (fields[0], int(fields[1])) if len(fields) > 1 else None


def descendants(root: int, living_only: bool = False) -> List[int]:
    """Every process whose ancestor chain reaches ``root``.

    Exited processes nobody has waited for yet (zombies) are included
    unless ``living_only`` is set.
    """
    children: Dict[int, List[int]] = {}
    for pid in _proc_pids():
        entry = _state_and_parent(pid)
        if entry is not None and not (living_only and entry[0] in "ZX"):
            children.setdefault(entry[1], []).append(pid)
    found: List[int] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode("utf-8", "replace").strip()


def adopt_orphans() -> None:
    """Make this process the reaper of descendants that lose their parent.

    Without this an orphan is re-parented to init, where the harness can
    neither recognise it as its own nor wait for it to end.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError(f"prctl(PR_SET_CHILD_SUBREAPER) failed: errno {ctypes.get_errno()}")


def living_descendants() -> List[int]:
    """Descendants of the harness that are still running."""
    return descendants(os.getpid(), living_only=True)


def reap() -> None:
    """Wait for every child that has exited, adopted orphans included."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_resource_tracker() -> None:
    """Stop the harness's own ``multiprocessing`` resource tracker.

    The traced run scores through a shared-memory arena in-process,
    which starts one; left alone it ends only after the harness has.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def _tail(log: Path, lines: int = 15) -> str:
    try:
        return "\n".join(log.read_text("utf-8", "replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


def tree_bytes(path: Path) -> int:
    """Bytes on disk of a file, or of every file under a directory."""
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
