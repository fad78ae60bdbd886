"""Shared pieces of the benchmark: paths, statistics, and the span log.

The benchmark measures the ``repro`` package strictly from outside: it
imports the public API from the checkout's ``src`` directory (batch
workloads) or drives ``repro serve`` over TCP (serving workloads). Spans
are recorded here, in the benchmark's own files, around each call into
a layer; nothing inside the package is changed to measure it.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (no result is printed)."""


def require_source() -> None:
    """Fail fast unless the package sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")


def import_path() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child process that runs the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Child processes. Every child starts a process group of its own, so
# whatever it starts in turn (pool workers, multiprocessing's resource
# tracker) can be found, waited for and, if need be, killed; the
# benchmark adopts orphaned descendants so it can reap them too.

#: Process groups started by this process and not yet known to be empty.
GROUPS: set[int] = set()
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so their exit is reaped here."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def spawn(cmd: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``cmd`` from the checkout root in a process group of its own."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True, **kwargs)
    GROUPS.add(proc.pid)
    return proc


def group_members(pgid: int) -> list[tuple[int, int, str]]:
    """``(pid, ppid, state)`` of every process in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            members.append((int(entry), int(fields[1]), fields[0]))
    return members


def end_group(pgid: int, grace_s: float = 15.0) -> None:
    """Wait until no process of group ``pgid`` runs; SIGKILL after ``grace_s``.

    Call it once the group's leader has been waited for (or is being
    abandoned). Zombies this process adopted are reaped on the way.
    """
    me = os.getpid()
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        members = group_members(pgid)
        for pid, ppid, state in members:
            if state == "Z" and ppid == me:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        if not any(state != "Z" for _, _, state in members):
            GROUPS.discard(pgid)
            return
        if time.monotonic() > deadline:
            if killed:
                raise BenchError(f"process group {pgid} survived SIGKILL")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def end_all_groups(grace_s: float) -> None:
    """End every group still on record, then reap any adopted child left."""
    for pgid in sorted(GROUPS):
        end_group(pgid, grace_s)
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def finish_child(proc: subprocess.Popen, timeout_s: float, what: str,
                 data: str | None = None) -> str:
    """``communicate`` with ``proc``, then wait until its group is empty.

    Returns its standard output; raises :class:`BenchError` when it
    overran (it is killed; its group is left to :func:`end_all_groups`)
    or exited with a non-zero code.
    """
    try:
        out, _ = proc.communicate(data, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} did not finish in {timeout_s:.0f} s")
    end_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit code {proc.returncode})")
    return out or ""


def median(values: Iterable[float]) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else 0.0


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); 0.0 for no samples."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = max(1, math.ceil(q * len(data)))
    return float(data[rank - 1])


class SpanLog:
    """In-memory spans: name, start, end, parent span, and request id.

    Spans nest per thread through a stack, so a span opened inside
    another becomes its child. A layer's self time is its duration minus
    the part of it that its children cover.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.active = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: str = "",
        parent: int | None = None,
    ) -> int:
        """Record a finished span (for spans timed across threads)."""
        with self._lock:
            self.spans.append(
                {"name": name, "start": start, "end": end,
                 "request": request, "parent": parent}
            )
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[int | None]:
        if not self.active:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if not request and parent is not None:
            request = self.spans[parent]["request"]
        index = self.add(name, time.perf_counter(), 0.0, request, parent)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        children = sorted(
            (child["start"], child["end"])
            for child in self.spans
            if child["parent"] == index
        )
        covered = 0.0
        cursor = span["start"]
        for start, end in children:
            start = max(start, cursor)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        return span["end"] - span["start"] - covered

    def named(self, name: str, request: str = "") -> list[int]:
        """Spans called ``name`` whose request id starts with ``request``."""
        return [
            i for i, span in enumerate(self.spans)
            if span["name"] == name and span["request"].startswith(request)
        ]

    def self_times(self, name: str, request: str = "") -> list[float]:
        return [self.self_time(i) for i in self.named(name, request)]

    def durations(self, name: str, request: str = "") -> list[float]:
        return [self.duration(i) for i in self.named(name, request)]


def wrap_function(log: SpanLog, owner: Any, attr: str, name: str) -> None:
    """Replace ``owner.attr`` by a wrapper that opens span ``name``.

    Used to time public functions the package calls internally (the
    replacement lives only in this process). Changes nothing when the
    attribute does not exist, so the layer's metric then reads 0.
    """
    original = getattr(owner, attr, None)
    if original is None:
        return

    def traced(*args: Any, **kwargs: Any) -> Any:
        with log.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)
