"""Chaos harness: seeded infrastructure faults and recovery under them.

The simulator's fault injection (PR 1) gets a sibling here: worker
crashes, torn writes, and stale locks, all deterministic from a seed,
plus the recovery paths they must exercise — pool fallback, tolerant
readers, lock breaking, and the multiprocess stress the storage layer
guarantees hinge on.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.eval.platforms import HARP
from repro.exec import (
    ChaosConfig,
    GraphAppSource,
    JobOutcome,
    ResultCache,
    SimJob,
    SweepRunner,
)
from repro.exec.chaos import (
    CHAOS_ENV,
    active_chaos,
    find_dead_pid,
    maybe_crash_worker,
    plant_stale_lock,
    should_fire,
    torn_append,
)
from repro.io import (
    CorruptLineWarning,
    FileLock,
    LockTimeoutError,
    StaleLockWarning,
    read_jsonl,
)
from repro.obs.runstore import RunStore, record_from_outcome
from repro.sim.accelerator import SimConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def grid_jobs(points: int = 4) -> list[SimJob]:
    return [
        SimJob(
            source=GraphAppSource("SPEC-BFS", 80, 240, seed=seed, start=0),
            platform=HARP,
            config=SimConfig(),
            tag=f"chaos:{seed}",
        )
        for seed in range(points)
    ]


def comparable(outcomes) -> list[dict]:
    rows = []
    for outcome in outcomes:
        data = outcome.to_dict()
        del data["wall_seconds"]
        rows.append(data)
    return rows


class TestDeterministicSelection:
    def test_same_inputs_same_draw(self):
        draws = {should_fire(7, "crash", "abc", 0.5) for _ in range(20)}
        assert len(draws) == 1

    def test_rate_extremes(self):
        assert not should_fire(1, "crash", "k", 0.0)
        assert should_fire(1, "crash", "k", 1.0)

    def test_fraction_tracks_rate(self):
        keys = [f"job-{i}" for i in range(500)]
        fired = sum(should_fire(3, "crash", k, 0.3) for k in keys)
        assert 0.2 < fired / len(keys) < 0.4

    def test_seed_changes_selection(self):
        keys = [f"job-{i}" for i in range(200)]
        a = [should_fire(1, "crash", k, 0.5) for k in keys]
        b = [should_fire(2, "crash", k, 0.5) for k in keys]
        assert a != b


class TestChaosConfigEnv:
    def test_roundtrip(self):
        config = ChaosConfig(seed=9, crash_rate=0.25)
        assert ChaosConfig.from_env(config.to_env()) == config

    def test_garbage_env_is_ignored(self):
        assert ChaosConfig.from_env("not json") is None
        assert ChaosConfig.from_env("[1, 2]") is None
        assert ChaosConfig.from_env(json.dumps({"seed": "x"})) is None

    def test_install_activates_and_uninstall_clears(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert active_chaos() is None
        config = ChaosConfig(seed=5, crash_rate=1.0)
        config.install()
        try:
            assert active_chaos() == config
        finally:
            ChaosConfig.uninstall()
        assert active_chaos() is None


class TestCrashInjection:
    def test_never_kills_outside_pool_workers(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV, ChaosConfig(seed=1, crash_rate=1.0).to_env()
        )
        maybe_crash_worker(grid_jobs(1)[0])   # would SIGKILL us otherwise

    def test_pool_recovers_from_killed_workers(self, monkeypatch):
        """crash_rate=1.0 kills every pool worker; the runner must fall
        back, retry every point in-process, and still produce outcomes
        identical to an undisturbed serial run."""
        jobs = grid_jobs(4)
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        clean = SweepRunner(jobs=1).run(grid_jobs(4))

        monkeypatch.setenv(
            CHAOS_ENV, ChaosConfig(seed=1, crash_rate=1.0).to_env()
        )
        runner = SweepRunner(jobs=2, retries=1, backoff_base=0.0)
        chaotic = runner.run(jobs)

        assert not any(o.error for o in chaotic)
        assert runner.report.retried >= 1
        assert comparable(chaotic) == comparable(clean)

    def test_crash_before_submission_ends_falls_back(self, tmp_path,
                                                     monkeypatch):
        """A worker that dies before the parent has submitted every job
        breaks the pool under ``submit`` itself: that job and every
        later one, retries included, run in-process instead of the
        ``BrokenProcessPool`` escaping ``run()``."""
        from concurrent.futures import ProcessPoolExecutor, wait

        from repro.obs.fleet import FleetRecorder

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        clean = SweepRunner(jobs=1).run(grid_jobs(4))

        submit = ProcessPoolExecutor.submit

        def submit_and_settle(self, fn, /, *args, **kwargs):
            future = submit(self, fn, *args, **kwargs)
            wait([future])   # the worker dies before the next submit
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit",
                            submit_and_settle)
        monkeypatch.setenv(
            CHAOS_ENV, ChaosConfig(seed=1, crash_rate=1.0).to_env()
        )
        fleet = FleetRecorder(tmp_path)
        runner = SweepRunner(jobs=2, retries=1, backoff_base=0.0,
                             fleet=fleet)
        chaotic = runner.run(grid_jobs(4))

        assert comparable(chaotic) == comparable(clean)
        # Only the first job reached a worker; its crash is one failure
        # and returned no outcome, so no span: the four job spans are
        # the in-process attempts.
        assert runner.report.retried == 1
        jobs = [row for row in fleet.spans() if row["kind"] == "job"]
        assert sorted(row["name"] for row in jobs) == \
            sorted(job.tag for job in grid_jobs(4))
        assert {row["pid"] for row in jobs} == {os.getpid()}
        assert runner.report.fallback == \
            "process pool broke (BrokenProcessPool)"
        assert "in-process: process pool broke" in runner.report.summary()

    def test_selective_crashes_are_seed_deterministic(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV, ChaosConfig(seed=2, crash_rate=0.5).to_env()
        )
        first = SweepRunner(jobs=2, retries=2, backoff_base=0.0)
        a = first.run(grid_jobs(4))
        second = SweepRunner(jobs=2, retries=2, backoff_base=0.0)
        b = second.run(grid_jobs(4))
        assert not any(o.error for o in a)
        assert comparable(a) == comparable(b)


class TestChaosJournal:
    """Injections leave an audit trail in the sweep journal."""

    def test_journal_dir_round_trips_through_env(self):
        config = ChaosConfig(seed=3, crash_rate=0.5, journal_dir="/tmp/x")
        again = ChaosConfig.from_env(config.to_env())
        assert again == config
        assert again.journal_dir == "/tmp/x"

    def test_record_chaos_folds_into_state(self, tmp_path):
        from repro.exec import SweepJournal

        journal = SweepJournal(tmp_path)
        journal.record_chaos("worker-crash", key="digest0",
                             detail="signal 9")
        journal.record_chaos("torn-append", key="cache.jsonl")
        state = journal.load()
        assert [e["kind"] for e in state.chaos] == \
            ["worker-crash", "torn-append"]
        assert state.chaos[0]["key"] == "digest0"
        assert state.chaos[0]["pid"] == os.getpid()

    def test_torn_append_journals_itself(self, tmp_path):
        from repro.exec import SweepJournal

        data = tmp_path / "data.jsonl"
        torn_append(data, '{"victim": 1}\n', journal_dir=str(tmp_path))
        entries = SweepJournal(tmp_path).load().chaos
        assert [e["kind"] for e in entries] == ["torn-append"]
        assert entries[0]["key"] == str(data)

    def test_plant_stale_lock_journals_itself(self, tmp_path):
        from repro.exec import SweepJournal

        lock_path = plant_stale_lock(tmp_path / "data.jsonl",
                                     journal_dir=str(tmp_path))
        entries = SweepJournal(tmp_path).load().chaos
        assert [e["kind"] for e in entries] == ["stale-lock"]
        assert entries[0]["key"] == lock_path
        assert "age" in entries[0]["detail"]

    def test_worker_crashes_journal_and_count(self, tmp_path, monkeypatch):
        """A chaos campaign with a journal_dir leaves worker-crash
        events that the runner folds into exec.chaos.* metrics."""
        from repro.exec import SweepJournal

        monkeypatch.setenv(
            CHAOS_ENV,
            ChaosConfig(seed=1, crash_rate=1.0,
                        journal_dir=str(tmp_path)).to_env(),
        )
        runner = SweepRunner(jobs=2, retries=1, backoff_base=0.0,
                             journal=SweepJournal(tmp_path))
        outcomes = runner.run(grid_jobs(4))
        assert not any(o.error for o in outcomes)

        entries = SweepJournal(tmp_path).load().chaos
        crash_events = [e for e in entries if e["kind"] == "worker-crash"]
        assert crash_events, "expected journaled worker crashes"
        assert all(e["pid"] != os.getpid() for e in crash_events)

        snap = runner.metrics.snapshot()
        assert snap["counters"]["exec.chaos.injections"] == len(entries)
        assert snap["counters"]["exec.chaos.worker-crash"] \
            == len(crash_events)


class TestTornWrites:
    def test_reader_skips_torn_tail_and_append_heals_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aaaa", JobOutcome(app="A", cycles=1))
        fragment = torn_append(
            cache.path, json.dumps({"digest": "bbbb", "outcome": {}}),
        )
        assert fragment and not fragment.endswith("\n")

        # A fresh reader warns, skips the torn line, keeps good entries.
        torn = ResultCache(tmp_path)
        with pytest.warns(CorruptLineWarning, match="skipping corrupt"):
            assert torn.get("aaaa").cycles == 1
        assert torn.skipped == 1

        # The next writer heals the tail: its record is NOT glued onto
        # the fragment, so nothing readable is lost.
        cache2 = ResultCache(tmp_path)
        cache2.put("cccc", JobOutcome(app="C", cycles=3))
        final = ResultCache(tmp_path)
        assert final.get("aaaa").cycles == 1
        assert final.get("cccc").cycles == 3

        report = final.verify()
        assert not report["ok"]
        assert report["corrupt"] == 1
        final.compact()
        assert final.verify()["ok"]

    def test_torn_runstore_line_is_skipped_and_compacted(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = JobOutcome(app="A", cycles=10)
        store.append(record_from_outcome(
            "chaos", outcome, platform=HARP, config=SimConfig()))
        torn_append(store.path, json.dumps({"run_id": 99, "app": "torn"}),
                    keep=0.4)
        store.append(record_from_outcome(
            "chaos", outcome, platform=HARP, config=SimConfig()))

        fresh = RunStore(tmp_path)
        with pytest.warns(CorruptLineWarning):
            records = fresh.records()
        # The torn line occupies a line slot, so the healed append takes
        # id 3 — ids never collide even around corruption.
        assert [r.run_id for r in records] == ["000001", "000003"]

        result = fresh.compact()
        assert result["dropped_corrupt"] == 1
        assert [r.run_id for r in RunStore(tmp_path).records()] == [
            "000001", "000003"]


class TestStaleLocks:
    def test_softlock_breaks_dead_holders_lock(self, tmp_path):
        target = tmp_path / "data.jsonl"
        plant_stale_lock(target, pid=find_dead_pid(), age=3600.0)
        lock = FileLock(target, mode="softlock", stale_after=60.0,
                        timeout=5.0)
        with pytest.warns(StaleLockWarning):
            with lock:
                pass
        assert lock.broke_stale == 1

    def test_softlock_respects_live_recent_holder(self, tmp_path):
        target = tmp_path / "data.jsonl"
        plant_stale_lock(target, pid=os.getpid(), age=0.0)
        lock = FileLock(target, mode="softlock", stale_after=3600.0,
                        timeout=0.2)
        with pytest.raises(LockTimeoutError):
            lock.acquire()


def _stress_writer(root: str, writer: int, count: int) -> None:
    cache = ResultCache(root)
    store = RunStore(root)
    for i in range(count):
        outcome = JobOutcome(app=f"w{writer}", cycles=writer * 1000 + i)
        cache.put(f"{writer:02d}:{i:03d}", outcome)
        store.append(record_from_outcome(
            "chaos-stress", outcome, platform=HARP, config=SimConfig(),
            seed=writer,
        ))


class TestConcurrentWriters:
    def test_four_writers_lose_nothing(self, tmp_path):
        """The acceptance stress: 4 concurrent writer processes against
        ONE cache file and ONE run store — every record readable, no
        corrupt lines, no duplicated run ids."""
        writers, appends = 4, 20
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_stress_writer,
                        args=(str(tmp_path), w, appends))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        expected = writers * appends
        cache = ResultCache(tmp_path)
        report = cache.verify()
        assert report["ok"], report
        assert report["entries"] == expected
        assert cache.skipped == 0

        store = RunStore(tmp_path)
        records = store.records()
        assert store.skipped == 0
        assert len(records) == expected
        assert len({r.run_id for r in records}) == expected

        raw = read_jsonl(store.path, warn=False)
        assert not raw.skipped
        assert len(raw.rows) == expected


@pytest.mark.slow
class TestKillResume:
    def test_sigkilled_sweep_resumes_without_rework(self, tmp_path):
        """SIGKILL a sweep mid-flight; the journal + cache must preserve
        every completed point, the resumed sweep must only simulate the
        remainder, and a third run must be 100% cache hits."""
        script = REPO_ROOT / "scripts" / "chaos_stress.py"
        env = dict(os.environ)
        store = str(tmp_path / "store")
        argv = [sys.executable, str(script), "sweep", "--dir", store,
                "--points", "6"]

        proc = subprocess.Popen(argv, env=env, cwd=REPO_ROOT,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        journal = Path(store) / "sweep-journal.jsonl"
        deadline = time.time() + 60
        # Kill once at least one point has been journaled done but the
        # sweep is still running.
        while time.time() < deadline and proc.poll() is None:
            if journal.exists() and '"done"' in journal.read_text():
                break
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=30)
        assert proc.returncode != 0

        done_before = journal.read_text().count('"event": "done"')
        assert 1 <= done_before < 6

        resumed = subprocess.run(
            [sys.executable, str(script), "sweep", "--dir", store,
             "--points", "6", "--resume"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        match = re.search(r"(\d+) cache hits, (\d+) simulated",
                          resumed.stdout)
        assert match, resumed.stdout
        hits, simulated = int(match.group(1)), int(match.group(2))
        # Every journaled-done point is cached (the runner caches before
        # journaling); a kill between the two may leave an extra cached
        # point the journal missed, so >= rather than ==.
        assert hits >= done_before
        assert hits + simulated == 6
        assert simulated >= 1

        check = subprocess.run(
            [sys.executable, str(script), "check", "--dir", store,
             "--points", "6"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=300,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert "6 cache hits, 0 simulated" in check.stdout
        assert "check OK" in check.stdout
