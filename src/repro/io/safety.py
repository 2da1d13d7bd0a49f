"""Crash-safe file primitives: locks, durable appends, tolerant reads.

The JSONL stores (result cache, run store, sweep journal) share three
failure modes this module defends against:

* **Interleaved appends** from concurrent writers (a parallel sweep, a
  future HTTP daemon) — solved by an advisory :class:`FileLock` held for
  the duration of each append or rewrite.
* **Torn writes** — a writer killed mid-append leaves a partial final
  line.  :func:`append_line` writes each record as a single buffered
  write, flushes and fsyncs before releasing the lock, and *heals* a
  torn trailing line (no final newline) before appending so one crash
  can never corrupt the next writer's record.  :func:`read_jsonl` skips
  any line that does not parse, warning with the file and line number.
* **Stale locks** — a lock left by a crashed or wedged holder.  In
  ``flock`` mode the kernel releases a dead holder's lock automatically;
  in ``softlock`` mode (no :mod:`fcntl`) acquisition detects a dead
  holder pid or an over-age lock and breaks it with a warning.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX advisory locks; gated so non-POSIX hosts fall back cleanly
    import fcntl
except ImportError:  # pragma: no cover - exercised via mode="softlock"
    fcntl = None

LOCK_SUFFIX = ".lock"
DEFAULT_TIMEOUT = 30.0
DEFAULT_STALE_AFTER = 120.0


@dataclass
class LockTelemetry:
    """Process-wide counters for every :class:`FileLock` acquisition.

    Contention is otherwise invisible: a sweep that spends half its wall
    time queueing on the cache lock looks identical to one that never
    waits.  The accumulator lives here (not in ``obs``) so the io layer
    stays dependency-free; consumers snapshot/delta it around a sweep.
    """

    acquires: int = 0
    contended: int = 0           # acquisitions that did not succeed first try
    wait_seconds: float = 0.0    # total time spent inside acquire()
    max_wait_seconds: float = 0.0
    stale_broken: int = 0
    timeouts: int = 0

    def snapshot(self) -> dict:
        return {
            "acquires": self.acquires,
            "contended": self.contended,
            "wait_seconds": round(self.wait_seconds, 6),
            "max_wait_seconds": round(self.max_wait_seconds, 6),
            "stale_broken": self.stale_broken,
            "timeouts": self.timeouts,
        }


LOCK_TELEMETRY = LockTelemetry()


def lock_telemetry_snapshot() -> dict:
    """Current process-wide lock counters as a plain dict."""
    return LOCK_TELEMETRY.snapshot()


def lock_telemetry_delta(base: dict) -> dict:
    """Counters accumulated since ``base`` (an earlier snapshot)."""
    now = LOCK_TELEMETRY.snapshot()
    delta = {k: now[k] - base.get(k, 0) for k in now}
    # max is not a counter; report the current high-water mark instead.
    delta["max_wait_seconds"] = now["max_wait_seconds"]
    # No wait exceeds the max: the clamp drops the 1e-6 overshoot that
    # subtracting two independently rounded totals can leave.
    delta["wait_seconds"] = round(min(
        delta["wait_seconds"], delta["acquires"] * now["max_wait_seconds"]
    ), 6)
    return delta


def reset_lock_telemetry() -> None:
    LOCK_TELEMETRY.__init__()


class LockTimeoutError(TimeoutError):
    """A :class:`FileLock` could not be acquired within its timeout."""


class CorruptLineWarning(UserWarning):
    """A JSONL line was unreadable (torn write / corruption) and skipped."""


class StaleLockWarning(UserWarning):
    """A lock left behind by a dead or wedged holder was broken."""


def pid_alive(pid) -> bool:
    """Best-effort liveness probe for a holder pid (signal 0)."""
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:
        return False
    return True


class FileLock:
    """Advisory exclusive lock guarding one data file.

    The lock is a sidecar ``<target>.lock`` file recording its holder
    (pid + wall-clock acquisition time).  Two mechanisms, chosen by
    ``mode``:

    * ``"flock"`` (the default wherever :mod:`fcntl` exists) — kernel
      advisory ``flock`` on the sidecar.  A holder that dies releases
      the lock automatically, so a stale *lock* is impossible; only the
      holder info in the sidecar can go stale, which is harmless.
    * ``"softlock"`` — O_EXCL lockfile creation, for platforms without
      :mod:`fcntl`.  A crashed holder leaves the lockfile behind;
      acquisition detects staleness (holder pid dead, or lock older
      than ``stale_after`` seconds) and breaks it with a
      :class:`StaleLockWarning` instead of deadlocking.

    Not reentrant — keep critical sections short.
    """

    def __init__(
        self,
        target: str | Path,
        timeout: float = DEFAULT_TIMEOUT,
        stale_after: float = DEFAULT_STALE_AFTER,
        poll: float = 0.02,
        mode: str = "auto",
    ) -> None:
        self.target = Path(target)
        self.lock_path = Path(str(target) + LOCK_SUFFIX)
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll = poll
        if mode == "auto":
            mode = "flock" if fcntl is not None else "softlock"
        if mode not in ("flock", "softlock"):
            raise ValueError(f"unknown lock mode {mode!r}")
        if mode == "flock" and fcntl is None:
            raise ValueError("flock mode requires the fcntl module")
        self.mode = mode
        self.broke_stale = 0
        self._fd: int | None = None

    # -- holder info ----------------------------------------------------------

    def holder(self) -> dict:
        """Whatever the sidecar says about the current/last holder."""
        try:
            with open(self.lock_path, "r", encoding="utf-8") as handle:
                data = json.loads(handle.read() or "{}")
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def _stamp(self, fd: int) -> None:
        info = json.dumps(
            {"pid": os.getpid(), "time": time.time(), "mode": self.mode}
        )
        os.ftruncate(fd, 0)
        os.lseek(fd, 0, os.SEEK_SET)
        os.write(fd, info.encode())

    # -- acquisition ----------------------------------------------------------

    def acquire(self) -> "FileLock":
        start = time.monotonic()
        deadline = start + self.timeout
        first_try = True
        while True:
            if self._try_acquire():
                waited = time.monotonic() - start
                LOCK_TELEMETRY.acquires += 1
                LOCK_TELEMETRY.wait_seconds += waited
                if waited > LOCK_TELEMETRY.max_wait_seconds:
                    LOCK_TELEMETRY.max_wait_seconds = waited
                if not first_try:
                    LOCK_TELEMETRY.contended += 1
                return self
            first_try = False
            if self._break_if_stale():
                LOCK_TELEMETRY.stale_broken += 1
                continue
            if time.monotonic() >= deadline:
                holder = self.holder()
                LOCK_TELEMETRY.timeouts += 1
                raise LockTimeoutError(
                    f"could not lock {self.target} within "
                    f"{self.timeout:g}s (held by pid "
                    f"{holder.get('pid', '?')})"
                )
            time.sleep(self.poll)

    def _try_acquire(self) -> bool:
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        if self.mode == "flock":
            fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            self._fd = fd
            self._stamp(fd)
            return True
        try:
            fd = os.open(
                self.lock_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return False
        except OSError:
            return False
        self._fd = fd
        self._stamp(fd)
        return True

    def _break_if_stale(self) -> bool:
        """Remove a softlock whose holder died or wedged; True if broken."""
        if self.mode == "flock":
            # The kernel already released any dead holder's flock; an
            # unacquirable lock means a live process holds it.
            return False
        holder = self.holder()
        pid = holder.get("pid")
        held = holder.get("time")
        age = None
        if isinstance(held, (int, float)):
            age = time.time() - held
        else:
            try:
                age = time.time() - self.lock_path.stat().st_mtime
            except OSError:
                return False  # vanished: the holder released it, retry
        dead = pid is not None and not pid_alive(pid)
        wedged = age is not None and age > self.stale_after
        if not dead and not wedged:
            return False
        why = (f"holder pid {pid} is dead" if dead
               else f"lock is {age:.0f}s old (> {self.stale_after:g}s)")
        warnings.warn(
            f"breaking stale lock {self.lock_path}: {why}",
            StaleLockWarning,
            stacklevel=3,
        )
        try:
            self.lock_path.unlink()
        except OSError:
            pass  # a racing breaker got there first
        self.broke_stale += 1
        return True

    # -- release --------------------------------------------------------------

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if self.mode == "flock":
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        else:
            os.close(fd)
            try:
                self.lock_path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


# ---------------------------------------------------------------------------
# Durable appends and atomic replace
# ---------------------------------------------------------------------------


def _heal_torn_tail(handle) -> bool:
    """If the file's last byte is not a newline (a previous writer died
    mid-append), terminate the torn line so this append starts clean.
    Returns True when healing happened.  Caller holds the lock."""
    handle.flush()
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    if size == 0:
        return False
    if os.pread(fd, 1, size - 1) == b"\n":
        return False
    handle.write("\n")
    return True


def append_line(
    path: str | Path,
    text: str,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    lock: bool = True,
    fsync: bool = True,
) -> None:
    """Durably append one line: a single write + flush + fsync under the
    file's advisory lock.

    ``lock=False`` skips locking for callers already holding the
    :class:`FileLock` for ``path`` (e.g. a read-modify-write section).
    A torn trailing line from an earlier crash is newline-terminated
    before the append so the new record cannot glue onto it.
    """
    path = Path(path)
    guard = FileLock(path, timeout=timeout) if lock else None
    if guard is not None:
        guard.acquire()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a+", encoding="utf-8") as handle:
            _heal_torn_tail(handle)
            handle.write(text if text.endswith("\n") else text + "\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
    finally:
        if guard is not None:
            guard.release()


def replace_file(path: str | Path, text: str) -> None:
    """Atomically replace ``path``'s contents: tmp + fsync + rename,
    then fsync the directory so the rename itself is durable."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass
    if hasattr(os, "O_DIRECTORY"):
        try:
            dfd = os.open(path.parent, os.O_DIRECTORY)
        except OSError:
            return
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)


# ---------------------------------------------------------------------------
# Torn-write-tolerant JSONL reading
# ---------------------------------------------------------------------------


@dataclass
class JsonlRead:
    """What :func:`read_jsonl` found: parsed rows plus damage report."""

    rows: list[tuple[int, dict]] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)  # 1-based line numbers
    lines: int = 0
    missing: bool = False

    @property
    def dicts(self) -> list[dict]:
        return [data for _, data in self.rows]


def read_jsonl(path: str | Path, *, warn: bool = True) -> JsonlRead:
    """Parse a JSONL file, tolerating torn and corrupt lines.

    Every line that fails to parse as a JSON object — including a torn
    trailing line from a writer killed mid-append — is skipped and
    recorded in ``skipped``; with ``warn`` a :class:`CorruptLineWarning`
    names the file and line number.  Never raises on content.
    """
    path = Path(path)
    result = JsonlRead()
    if not path.exists():
        result.missing = True
        return result
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            result.lines += 1
            try:
                data = json.loads(stripped)
            except json.JSONDecodeError:
                data = None
            if not isinstance(data, dict):
                result.skipped.append(lineno)
                if warn:
                    warnings.warn(
                        f"{path}:{lineno}: skipping corrupt JSONL line "
                        f"({stripped[:40]!r}...)",
                        CorruptLineWarning,
                        stacklevel=2,
                    )
                continue
            result.rows.append((lineno, data))
    return result
