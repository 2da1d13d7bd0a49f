"""The sweep runner: one scheduling loop over an inline or a pool executor.

Guarantees, independent of ``jobs``:

* **Deterministic ordering** — results come back in input order, never
  completion order, so a parallel sweep is byte-identical to a serial
  one.
* **Graceful degradation** — ``jobs=1``, a single pending point, or an
  unpicklable job all run on an inline executor, in this process, one
  job in flight; a pool that breaks (a failed submit or a broken
  future) sends every later submission, retries included, to the inline
  executor, and ``report.fallback`` names the breakage.
* **Bounded failures** — each job gets a wall-clock budget (enforced by
  an interval timer inside the worker, since a running pool future
  cannot be cancelled) and supervised retries: seeded-deterministic
  exponential backoff with jitter between attempts, and poison-job
  quarantine — a job whose total failure count (accumulated across
  runs in the sweep journal) crosses ``quarantine_after`` is recorded
  as quarantined and the sweep *continues* instead of raising.
* **Resumability** — with a :class:`~repro.exec.journal.SweepJournal`
  attached, an interrupted sweep restarts with ``resume=True``:
  completed digests come back as cache hits, quarantined digests are
  skipped with a synthetic error outcome, and earlier failure counts
  carry over.

Both executors feed the same loop, so retries, failure counts, journal
and cache commits, and the fleet's job spans (written by this process
from each returned outcome) do not depend on which executor ran a job.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import random
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Sequence

from repro.exec.cache import ResultCache
from repro.exec.chaos import maybe_crash_worker
from repro.exec.job import JobOutcome, JobTimeoutError, SimJob, execute_job
from repro.exec.journal import JournalState, SweepJournal
from repro.io.safety import lock_telemetry_delta, lock_telemetry_snapshot
from repro.obs.fleet import FleetRecorder, SweepProgress
from repro.obs.metrics import MetricsRegistry

DEFAULT_QUARANTINE_AFTER = 3


def run_job_with_timeout(job: SimJob, timeout: float | None) -> JobOutcome:
    """One job under an optional wall-clock budget.

    Uses :func:`signal.setitimer`, so sub-second budgets are honoured
    exactly; the timer is *always* cancelled in the ``finally`` block so
    a leftover SIGALRM can never fire into a later job executed by the
    same pool worker.  Without ``setitimer`` the job runs unbudgeted.
    """
    maybe_crash_worker(job)
    if not timeout or timeout <= 0 or not hasattr(signal, "setitimer"):
        return execute_job(job)

    def _expired(signum, frame):
        raise JobTimeoutError(
            f"job {job.app!r} exceeded {timeout:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute_job(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _delayed_run(job: SimJob, timeout: float | None,
                 delay: float) -> JobOutcome:
    """Every attempt's entry point: a retry backs off inside the
    executor (a pool worker, not the master, so the scheduling loop
    keeps collecting other completions)."""
    if delay > 0:
        time.sleep(delay)
    return run_job_with_timeout(job, timeout)


class _InlineExecutor(Executor):
    """Runs each submission to completion inside ``submit``, in this
    process: the serial executor, and the fallback for a broken pool."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:   # noqa: BLE001 - surfaces via result()
            future.set_exception(exc)
        return future


_INLINE = _InlineExecutor()


class SweepError(RuntimeError):
    """One or more sweep points failed (strict mode)."""


@dataclass
class SweepReport:
    """What one :meth:`SweepRunner.run` call did."""

    points: int = 0
    hits: int = 0
    executed: int = 0
    retried: int = 0
    errors: int = 0
    quarantined: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    fallback: str = ""   # why a parallel request ran in-process, if it did

    @property
    def hit_rate(self) -> float:
        return self.hits / self.points if self.points else 0.0

    def summary(self) -> str:
        text = (f"sweep: {self.points} points, {self.hits} cache hits, "
                f"{self.executed} simulated, jobs={self.jobs}, "
                f"{self.wall_seconds:.2f}s")
        if self.retried:
            text += f", {self.retried} retried"
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        if self.errors:
            text += f", {self.errors} FAILED"
        if self.fallback:
            text += f" (in-process: {self.fallback})"
        return text


class SweepRunner:
    """Execute batches of :class:`SimJob` with caching and parallelism."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 1,
        strict: bool = True,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_seed: int = 0,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        journal: SweepJournal | None = None,
        resume: bool = False,
        progress: SweepProgress | None = None,
        fleet: FleetRecorder | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, retries)
        self.strict = strict
        self.backoff_base = max(0.0, backoff_base)
        self.backoff_cap = max(0.0, backoff_cap)
        self.backoff_seed = backoff_seed
        self.quarantine_after = max(1, quarantine_after)
        self.journal = journal
        self.resume = resume
        self.progress = progress
        self.fleet = fleet
        self.report = SweepReport()
        # Refreshed per run(): exec.* metrics and the per-job span list
        # that feed the sweep-level RunRecord and the fleet dashboard.
        self.metrics = MetricsRegistry()
        self.job_spans: list[dict] = []
        self._failures: dict[int, int] = {}
        self._keys: dict[int, str] = {}
        self._digests: list[str | None] = []
        self._submitted: dict[int, float] = {}
        self._completed = 0
        self._errors_seen = 0

    # -- supervision ----------------------------------------------------------

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Deterministic exponential backoff with jitter.

        Seeded from (runner seed, job key, attempt) so two runs of the
        same sweep sleep identically — retry schedules are part of the
        reproducibility contract, like everything else here.  Jitter
        spans [0.5x, 1.5x) of the exponential step to decorrelate
        concurrent retries against a shared bottleneck.
        """
        if self.backoff_base <= 0:
            return 0.0
        step = self.backoff_base * (2 ** attempt)
        rng = random.Random(f"{self.backoff_seed}:{key}:{attempt}")
        return min(self.backoff_cap, step * rng.uniform(0.5, 1.5))

    @staticmethod
    def _job_key(job: SimJob, digest: str | None, index: int) -> str:
        """The supervision key a job is journaled under."""
        if digest:
            return digest
        if job.tag:
            return f"tag:{job.tag}"
        return f"index:{index}"

    def _sweep_id(self) -> str:
        blob = "\n".join(self._keys[i] for i in sorted(self._keys))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    # -- execution ------------------------------------------------------------

    def run(self, sim_jobs: Sequence[SimJob]) -> list[JobOutcome]:
        """All outcomes, in input order."""
        jobs = list(sim_jobs)
        report = self.report = SweepReport(points=len(jobs), jobs=self.jobs)
        self.metrics = MetricsRegistry()
        self.job_spans = []
        self._submitted = {}
        self._completed = 0
        self._errors_seen = 0
        if self.cache is not None:
            self.cache.metrics = self.metrics
        lock_base = lock_telemetry_snapshot()
        sweep_t0 = time.time()
        start = time.perf_counter()
        results: list[JobOutcome | None] = [None] * len(jobs)
        digests = self._digests = [job.digest() for job in jobs]
        self._keys = {
            i: self._job_key(job, digests[i], i)
            for i, job in enumerate(jobs)
        }
        sweep_id = self._sweep_id()

        pending: list[int] = []
        for index, job in enumerate(jobs):
            # "is not None", not truthiness: an empty ResultCache is
            # falsy (__len__ == 0), but its misses must still be looked
            # up (and counted) like any other lookup.
            hit = (self.cache.get(digests[index])
                   if self.cache is not None else None)
            if hit is not None:
                hit.cached = True
                results[index] = hit
                report.hits += 1
            else:
                pending.append(index)

        state = JournalState()
        if self.journal is not None:
            state = self.journal.begin(
                sweep_id, len(jobs), resume=self.resume
            )
            # Poison jobs recorded by an earlier (crashed or exhausted)
            # run are skipped outright: the sweep keeps going.
            runnable = []
            for index in pending:
                key = self._keys[index]
                if state.is_quarantined(key):
                    outcome = JobOutcome(
                        app=jobs[index].app,
                        error=(f"quarantined after "
                               f"{state.failure_count(key)} failures "
                               f"(journal {self.journal.path}): "
                               f"{state.errors.get(key, 'unknown error')}"),
                        quarantined=True,
                    )
                    results[index] = outcome
                    report.quarantined += 1
                else:
                    runnable.append(index)
            pending = runnable
        report.executed = len(pending)

        if self.fleet is not None:
            self.fleet.begin(sweep_id, len(jobs))
        if self.progress is not None:
            self.progress.begin(sweep_id, len(jobs), self.jobs,
                                hits=report.hits)
            if report.quarantined:
                self.progress.update(quarantined=report.quarantined)
        try:
            if pending:
                self._schedule(jobs, pending, state, results)
        finally:
            if self.fleet is not None:
                self.fleet.record_span(
                    "sweep", sweep_t0, time.time(),
                    sweep_id=sweep_id, points=len(jobs),
                    hits=report.hits,
                )

        outcomes = [
            outcome if outcome is not None else JobOutcome(
                app=jobs[i].app, error="InternalError: job never completed"
            )
            for i, outcome in enumerate(results)
        ]
        report.errors = sum(1 for o in outcomes if o.error)
        report.quarantined = sum(1 for o in outcomes if o.quarantined)
        report.wall_seconds = round(time.perf_counter() - start, 6)
        self._finish_metrics(report, lock_base)
        if self.progress is not None:
            self.progress.update(errors=report.errors,
                                 quarantined=report.quarantined,
                                 retried=report.retried)
            hard_errors = report.errors - report.quarantined
            self.progress.finish("failed" if hard_errors > 0 else "done")
        hard_failures = [
            (i, o) for i, o in enumerate(outcomes)
            if o.error and not o.quarantined
        ]
        if self.strict and hard_failures:
            failures = [
                f"{jobs[i].tag or o.app}: {o.error}"
                for i, o in hard_failures
            ]
            raise SweepError(
                f"{len(hard_failures)} of {report.points} sweep points "
                "failed: " + "; ".join(failures[:4])
            )
        return outcomes

    def _finish_metrics(self, report: SweepReport, lock_base: dict) -> None:
        """Fold the finished sweep into ``self.metrics``.

        Lock telemetry is the parent-side delta over this run — cache
        puts, journal appends, and run-store writes all happen in the
        parent, which is where contention with concurrent CLI
        invocations shows up.
        """
        m = self.metrics
        m.counter("exec.jobs.points").inc(report.points)
        m.counter("exec.jobs.executed").inc(report.executed)
        m.counter("exec.jobs.retried").inc(report.retried)
        m.counter("exec.jobs.errors").inc(report.errors)
        m.counter("exec.jobs.quarantined").inc(report.quarantined)
        workers = min(self.jobs, report.executed)
        m.gauge("exec.workers.pool_size").set(workers)
        if report.wall_seconds > 0:
            busy = sum(
                max(0.0, span["end"] - span["start"])
                for span in self.job_spans
            )
            if workers:
                m.gauge("exec.workers.busy_fraction").set(
                    round(min(1.0, busy / (workers * report.wall_seconds)),
                          4)
                )
            m.gauge("exec.sweep.points_per_sec").set(
                round(report.points / report.wall_seconds, 3)
            )
        delta = lock_telemetry_delta(lock_base)
        m.counter("io.lock.acquires").inc(delta["acquires"])
        m.counter("io.lock.contended").inc(delta["contended"])
        m.counter("io.lock.wait_ms").inc(
            int(delta["wait_seconds"] * 1000)
        )
        m.counter("io.lock.stale_broken").inc(delta["stale_broken"])
        m.counter("io.lock.timeouts").inc(delta["timeouts"])
        if self.journal is not None:
            try:
                injections = self.journal.load().chaos
            except Exception:   # noqa: BLE001 - telemetry only
                injections = []
            if injections:
                m.counter("exec.chaos.injections").inc(len(injections))
                for event in injections:
                    m.counter(
                        f"exec.chaos.{event.get('kind', 'unknown')}"
                    ).inc()

    def _observe(self, job: SimJob, index: int,
                 outcome: JobOutcome) -> None:
        """Per-executed-point metrics, span bookkeeping, and progress."""
        m = self.metrics
        m.histogram("exec.job.run_wall_ms").record(
            int(outcome.wall_seconds * 1000)
        )
        submit = self._submitted.get(index)
        if submit and outcome.started:
            m.histogram("exec.job.queue_wait_ms").record(
                max(0, int((outcome.started - submit) * 1000))
            )
        if outcome.worker_pid and outcome.started:
            self.job_spans.append({
                "tag": job.tag or job.app,
                "app": job.app,
                "pid": outcome.worker_pid,
                "start": round(outcome.started, 6),
                "end": round(outcome.started + outcome.wall_seconds, 6),
                "error": bool(outcome.error),
            })
        self._completed += 1
        if outcome.error:
            self._errors_seen += 1
        if self.progress is not None:
            self.progress.update(executed=self._completed,
                                 errors=self._errors_seen,
                                 retried=self.report.retried)

    def _finalize(
        self,
        jobs: list[SimJob],
        index: int,
        outcome: JobOutcome,
        state: JournalState,
    ) -> JobOutcome:
        """Durability point: journal and cache one completed sweep point.

        Called the moment a point's outcome is final (retries exhausted
        or success), not at end of batch, so a sweep killed mid-flight
        resumes from every point that finished instead of losing the
        whole batch.  A job's failure count accumulates across runs
        (the journal carries it); crossing ``quarantine_after`` marks
        the outcome quarantined so strict mode lets the sweep's result
        stand and a resumed sweep skips the job entirely.
        """
        key = self._keys[index]
        tag = jobs[index].tag or outcome.app
        if not outcome.error:
            # Cache BEFORE journaling done: a crash between the two
            # leaves a cached-but-unjournaled point (harmless — resume
            # still hits the cache), never a journaled-done point whose
            # result is missing.
            commit_t0 = time.perf_counter()
            if self.cache is not None:
                self.cache.put(self._digests[index], outcome)
            if self.journal is not None:
                self.journal.record_done(key, tag)
            if self.cache is not None or self.journal is not None:
                self.metrics.histogram("exec.store.commit_us").record(
                    int((time.perf_counter() - commit_t0) * 1e6)
                )
        else:
            total = state.failure_count(key) + self._failures[index]
            if self.journal is not None:
                self.journal.record_fail(key, tag, outcome.error, total)
            if total >= self.quarantine_after:
                outcome.quarantined = True
                outcome.error = (
                    f"quarantined after {total} failures: {outcome.error}"
                )
                if self.journal is not None:
                    self.journal.record_quarantine(
                        key, tag, outcome.error, total
                    )
        self._observe(jobs[index], index, outcome)
        return outcome

    # -- the scheduling loop --------------------------------------------------

    @staticmethod
    def _unpicklable(jobs: list[SimJob], pending: list[int]) -> str:
        """Non-empty reason when any pending job cannot cross a fork."""
        for index in pending:
            try:
                pickle.dumps(jobs[index])
            except Exception as exc:   # noqa: BLE001 — reason only
                return (f"job {jobs[index].app!r} is not picklable "
                        f"({type(exc).__name__})")
        return ""

    @staticmethod
    def _pool(workers: int) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

    def _broken(self, exc: Exception) -> Executor:
        """The pool takes no more work: name why, and go in-process."""
        if not self.report.fallback:
            self.report.fallback = (f"process pool broke "
                                    f"({type(exc).__name__})")
        return _INLINE

    def _schedule(
        self,
        jobs: list[SimJob],
        pending: list[int],
        state: JournalState,
        results: list[JobOutcome | None],
    ) -> None:
        """The one submit/collect loop, whichever executor runs the jobs.

        Serial work keeps one job in flight on the inline executor, so a
        point and its retries finish before the next point starts; pool
        work submits every pending job up front.  A retry goes to the
        head of the queue with its backoff delay, which the executor
        sleeps (inside the worker, for a pool).  A failed submit or a
        broken future sends every later submission to the inline
        executor.
        """
        parallel = self.jobs > 1 and len(pending) > 1
        if parallel:
            self.report.fallback = self._unpicklable(jobs, pending)
            parallel = not self.report.fallback
        window = len(pending) if parallel else 1
        queue = deque((index, 0.0) for index in pending)
        in_flight: dict[Future, int] = {}
        self._failures = dict.fromkeys(pending, 0)
        with (self._pool(min(self.jobs, len(pending))) if parallel
              else _INLINE) as executor:
            while queue or in_flight:
                while queue and len(in_flight) < window:
                    index, delay = queue.popleft()
                    call = (_delayed_run, jobs[index], self.timeout, delay)
                    self._submitted[index] = time.time()
                    try:
                        future = executor.submit(*call)
                    except RuntimeError as exc:   # broken or shut down
                        executor = self._broken(exc)
                        future = executor.submit(*call)
                    in_flight[future] = index
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:   # noqa: BLE001 - worker died
                        if isinstance(exc, BrokenExecutor):
                            executor = self._broken(exc)
                        outcome = JobOutcome(
                            app=jobs[index].app,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        if self.fleet is not None:
                            self.fleet.record_job(
                                jobs[index], outcome,
                                self._digests[index] or "",
                            )
                    if outcome.error:
                        attempt = self._failures[index]
                        self._failures[index] += 1
                        if attempt < self.retries:
                            self.report.retried += 1
                            queue.appendleft((index, self.backoff_delay(
                                self._keys[index], attempt
                            )))
                            continue
                    results[index] = self._finalize(
                        jobs, index, outcome, state
                    )
