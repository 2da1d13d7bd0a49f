"""Crash-safe file primitives: locking, durable appends, tolerant reads."""

import json
import multiprocessing
import os
import time

import pytest

from repro.exec.chaos import find_dead_pid
from repro.io import (
    CorruptLineWarning,
    FileLock,
    LockTimeoutError,
    StaleLockWarning,
    append_line,
    lock_telemetry_delta,
    lock_telemetry_snapshot,
    pid_alive,
    read_jsonl,
    replace_file,
    reset_lock_telemetry,
)
from repro.io.safety import LOCK_TELEMETRY


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid())

    def test_dead_pid_is_dead(self):
        assert not pid_alive(find_dead_pid())

    def test_garbage_pids_are_dead(self):
        assert not pid_alive(None)
        assert not pid_alive(-1)
        assert not pid_alive("1")


class TestFileLock:
    def test_mutual_exclusion_same_process(self, tmp_path):
        target = tmp_path / "data.jsonl"
        first = FileLock(target, timeout=5.0)
        second = FileLock(target, timeout=0.2)
        with first:
            with pytest.raises(LockTimeoutError, match="could not lock"):
                second.acquire()
        # Released: the same lock object acquires cleanly now.
        with second:
            pass

    def test_context_manager_releases_on_exception(self, tmp_path):
        target = tmp_path / "data.jsonl"
        with pytest.raises(RuntimeError):
            with FileLock(target):
                raise RuntimeError("boom")
        with FileLock(target, timeout=0.5):
            pass

    def test_holder_info_records_pid(self, tmp_path):
        lock = FileLock(tmp_path / "data.jsonl")
        with lock:
            assert lock.holder()["pid"] == os.getpid()

    def test_mutual_exclusion_across_processes(self, tmp_path):
        """Two forked writers increment a counter file under the lock;
        without mutual exclusion the read-modify-write races."""
        target = tmp_path / "counter"
        target.write_text("0")

        def bump(n):
            for _ in range(n):
                with FileLock(target, timeout=30.0):
                    value = int(target.read_text())
                    time.sleep(0.001)   # widen the race window
                    target.write_text(str(value + 1))

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=bump, args=(20,)) for _ in range(3)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert int(target.read_text()) == 60

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="unknown lock mode"):
            FileLock(tmp_path / "x", mode="hopes-and-dreams")


class TestSoftlock:
    def test_breaks_dead_holders_lock(self, tmp_path):
        target = tmp_path / "data.jsonl"
        lock_path = tmp_path / "data.jsonl.lock"
        lock_path.write_text(json.dumps(
            {"pid": find_dead_pid(), "time": time.time()}))
        lock = FileLock(target, mode="softlock", timeout=5.0)
        with pytest.warns(StaleLockWarning, match="is dead"):
            lock.acquire()
        lock.release()
        assert lock.broke_stale == 1

    def test_breaks_over_age_lock_of_live_holder(self, tmp_path):
        target = tmp_path / "data.jsonl"
        lock_path = tmp_path / "data.jsonl.lock"
        lock_path.write_text(json.dumps(
            {"pid": os.getpid(), "time": time.time() - 7200}))
        lock = FileLock(target, mode="softlock", stale_after=60.0,
                        timeout=5.0)
        with pytest.warns(StaleLockWarning, match="old"):
            lock.acquire()
        lock.release()

    def test_respects_live_recent_holder(self, tmp_path):
        target = tmp_path / "data.jsonl"
        holder = FileLock(target, mode="softlock")
        holder.acquire()
        try:
            waiter = FileLock(target, mode="softlock", timeout=0.2,
                              stale_after=3600.0)
            with pytest.raises(LockTimeoutError):
                waiter.acquire()
        finally:
            holder.release()

    def test_release_removes_lockfile(self, tmp_path):
        target = tmp_path / "data.jsonl"
        lock = FileLock(target, mode="softlock")
        lock.acquire()
        assert lock.lock_path.exists()
        lock.release()
        assert not lock.lock_path.exists()


class TestLockTelemetry:
    """Process-wide acquisition counters (deltas, not absolutes: other
    tests in the same process also take locks)."""

    def test_uncontended_acquire_counts_once(self, tmp_path):
        base = lock_telemetry_snapshot()
        with FileLock(tmp_path / "data.jsonl"):
            pass
        delta = lock_telemetry_delta(base)
        assert delta["acquires"] == 1
        assert delta["contended"] == 0
        assert delta["timeouts"] == 0

    def test_contended_acquire_counts_wait(self, tmp_path):
        import threading

        target = tmp_path / "data.jsonl"
        holder = FileLock(target)
        holder.acquire()
        threading.Timer(0.15, holder.release).start()
        base = lock_telemetry_snapshot()
        with FileLock(target, timeout=5.0, poll=0.01):
            pass
        delta = lock_telemetry_delta(base)
        assert delta["acquires"] == 1
        assert delta["contended"] == 1
        assert delta["wait_seconds"] > 0.05
        assert delta["max_wait_seconds"] >= delta["wait_seconds"]

    def test_delta_never_exceeds_the_high_water_mark(self, monkeypatch):
        # One 0.1476624 s wait on top of a 4e-7 s total: the rounded
        # totals differ by 0.147663, one microsecond above the rounded
        # max (0.147662).  The delta must still respect the max.
        for name, value in (("acquires", 0), ("wait_seconds", 4e-7),
                            ("max_wait_seconds", 0.0)):
            monkeypatch.setattr(LOCK_TELEMETRY, name, value)
        base = lock_telemetry_snapshot()
        monkeypatch.setattr(LOCK_TELEMETRY, "acquires", 1)
        monkeypatch.setattr(LOCK_TELEMETRY, "wait_seconds", 4e-7 + 0.1476624)
        monkeypatch.setattr(LOCK_TELEMETRY, "max_wait_seconds", 0.1476624)
        delta = lock_telemetry_delta(base)
        assert delta["max_wait_seconds"] == 0.147662
        assert delta["wait_seconds"] == 0.147662

    def test_timeout_counts_as_timeout_not_acquire(self, tmp_path):
        target = tmp_path / "data.jsonl"
        with FileLock(target):
            base = lock_telemetry_snapshot()
            with pytest.raises(LockTimeoutError):
                FileLock(target, timeout=0.05, poll=0.01).acquire()
            delta = lock_telemetry_delta(base)
        assert delta["timeouts"] == 1
        assert delta["acquires"] == 0

    def test_stale_break_is_counted(self, tmp_path):
        target = tmp_path / "data.jsonl"
        (tmp_path / "data.jsonl.lock").write_text(json.dumps(
            {"pid": find_dead_pid(), "time": time.time()}))
        base = lock_telemetry_snapshot()
        lock = FileLock(target, mode="softlock", timeout=5.0)
        with pytest.warns(StaleLockWarning):
            lock.acquire()
        lock.release()
        delta = lock_telemetry_delta(base)
        assert delta["stale_broken"] == 1
        assert delta["acquires"] == 1

    def test_reset_zeroes_every_counter(self, tmp_path):
        with FileLock(tmp_path / "data.jsonl"):
            pass
        reset_lock_telemetry()
        snap = lock_telemetry_snapshot()
        assert all(value == 0 for value in snap.values())


class TestAppendLine:
    def test_creates_parents_and_appends_newline(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "log.jsonl"
        append_line(path, '{"a": 1}')
        append_line(path, '{"b": 2}\n')   # explicit newline not doubled
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_heals_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, '{"a": 1}')
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')   # crashed writer: no newline
        append_line(path, '{"b": 2}')

        read = read_jsonl(path, warn=False)
        assert [data for _, data in read.rows] == [{"a": 1}, {"b": 2}]
        assert read.skipped == [2]   # the torn line, isolated, not glued

    def test_lock_false_skips_locking(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with FileLock(path):
            append_line(path, '{"a": 1}', lock=False)
        assert read_jsonl(path).dicts == [{"a": 1}]


class TestReplaceFile:
    def test_replaces_contents_atomically(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("old\n")
        replace_file(path, "new\n")
        assert path.read_text() == "new\n"
        # No tmp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        replace_file(path, "hello\n")
        assert path.read_text() == "hello\n"


class TestReadJsonl:
    def test_missing_file(self, tmp_path):
        read = read_jsonl(tmp_path / "nope.jsonl")
        assert read.missing
        assert read.rows == [] and read.skipped == []

    def test_skips_corrupt_lines_with_warning(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"ok": 1}\ngarbage\n[1, 2]\n{"ok": 2}\n{"torn')
        with pytest.warns(CorruptLineWarning) as caught:
            read = read_jsonl(path)
        assert read.dicts == [{"ok": 1}, {"ok": 2}]
        assert read.skipped == [2, 3, 5]
        assert read.lines == 5
        messages = [str(w.message) for w in caught]
        assert any(f"{path}:2:" in m for m in messages)
        assert any(f"{path}:5:" in m for m in messages)

    def test_warn_false_is_silent(self, tmp_path, recwarn):
        path = tmp_path / "data.jsonl"
        path.write_text("garbage\n")
        read = read_jsonl(path, warn=False)
        assert read.skipped == [1]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, CorruptLineWarning)]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"b": 2}\n')
        read = read_jsonl(path)
        assert read.dicts == [{"a": 1}, {"b": 2}]
        assert read.skipped == []
