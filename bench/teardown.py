"""Leave nothing running: child process groups, closers, watchdog, audit.

Everything a workload starts is registered with one :class:`Teardown`;
``close()`` runs from ``finally``, from ``atexit`` and from the SIGTERM /
SIGINT handlers, and is idempotent.  :class:`LeakAudit` compares the
process's surroundings after the run with a listing taken at the start.
"""

from __future__ import annotations

import atexit
import faulthandler
import glob
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Callable

from bench import OUT_DIR

#: seconds a child gets to drain after SIGINT before its group is killed
CHILD_GRACE_S = 10.0
#: one measurement must end well inside the driver's 180 s limit
WATCHDOG_S = 170.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - a recycled pgid we do not own
        return False
    return True


class ChildGroup:
    """A child started in its own session, stopped as a whole group."""

    def __init__(self, argv: list[str], *, env: dict[str, str], log_path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        try:
            self.process = subprocess.Popen(
                argv,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=self._log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        except BaseException:
            self._log.close()
            raise
        #: with ``start_new_session`` the child leads its own group
        self.pgid = self.process.pid

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pgid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self, grace_s: float = CHILD_GRACE_S) -> None:
        """SIGINT the group, wait, SIGKILL the group, wait until the
        group is gone, reap the child.  Safe on a child already dead."""
        try:
            if self.process.poll() is None:
                self._signal_group(signal.SIGINT)
                try:
                    self.process.wait(timeout=grace_s)
                except subprocess.TimeoutExpired:
                    pass
            self._signal_group(signal.SIGKILL)
            self.process.wait()
            deadline = time.monotonic() + grace_s
            while _group_alive(self.pgid) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            self._log.close()
            try:
                os.unlink(self.log_path)
            except FileNotFoundError:
                pass

    def kill_now(self) -> None:
        """Watchdog path: no grace, no waiting on a drain."""
        self._signal_group(signal.SIGKILL)


class Teardown:
    """Stack of things to stop, run newest first, exactly once each."""

    def __init__(self) -> None:
        self._closers: list[tuple[str, Callable[[], object]]] = []
        self._children: list[ChildGroup] = []
        self._lock = threading.Lock()
        self._watchdog: threading.Timer | None = None

    # -- registration ------------------------------------------------------
    def add(self, name: str, closer: Callable[[], object]) -> None:
        with self._lock:
            self._closers.append((name, closer))

    def child(self, argv: list[str], *, env: dict[str, str], log_path) -> ChildGroup:
        group = ChildGroup(argv, env=env, log_path=log_path)
        with self._lock:
            self._children.append(group)
        self.add(f"child {group.pgid}", group.stop)
        return group

    # -- closing -----------------------------------------------------------
    def close(self) -> list[str]:
        """Run every closer; returns what failed (never raises)."""
        problems: list[str] = []
        while True:
            with self._lock:
                if not self._closers:
                    break
                name, closer = self._closers.pop()
            try:
                closer()
            except Exception as exc:  # keep closing the rest
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
        return problems

    def live_children(self) -> list[int]:
        with self._lock:
            children = list(self._children)
        return [c.pgid for c in children if _group_alive(c.pgid)]

    # -- process-wide hooks ------------------------------------------------
    def install(self) -> None:
        """``atexit`` + SIGTERM/SIGINT → ``close()``; watchdog armed."""
        atexit.register(self.close)

        def on_signal(signum: int, _frame) -> None:
            # unwinds the main thread through every ``finally``
            raise SystemExit(128 + signum)

        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)
        self._watchdog = threading.Timer(WATCHDOG_S, self._on_timeout)
        self._watchdog.daemon = True
        self._watchdog.start()

    def disarm(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _on_timeout(self) -> None:
        """A hung drain must not outlive the run: say where it hangs,
        kill every child group, leave."""
        print(f"bench: watchdog fired after {WATCHDOG_S:.0f}s", file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        with self._lock:
            children = list(self._children)
        for child in children:
            child.kill_now()
        os._exit(3)


class LeakAudit:
    """What must be unchanged when the benchmark ends."""

    def __init__(self) -> None:
        self._before = self._listing()

    @staticmethod
    def _listing() -> set[str]:
        found = set(glob.glob("/dev/shm/psm_*"))
        if OUT_DIR.is_dir():
            # traces are the benchmark's product; everything else in
            # ``out`` is scratch that must be gone again
            found.update(
                str(path)
                for path in OUT_DIR.iterdir()
                if not path.name.startswith("trace-")
            )
        return found

    def offenders(self, teardown: Teardown) -> list[str]:
        problems = [f"file left behind: {p}" for p in sorted(self._listing() - self._before)]
        problems += [f"child group still alive: {pgid}" for pgid in teardown.live_children()]
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass  # no children at all: what we want
        else:
            problems.append(f"unreaped child process (waitpid -> {pid})")
        main = threading.main_thread()
        problems += [
            f"non-daemon thread still running: {thread.name}"
            for thread in threading.enumerate()
            if thread is not main and not thread.daemon and thread.is_alive()
        ]
        return problems
