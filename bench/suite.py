"""The four benchmark workloads and the recorder that times their passes.

Each workload generates its inputs once (:meth:`Workload.setup`), then
runs passes (:meth:`Workload.run_pass`).  A pass calls the program's
public functions and wraps every call in a span of the pass's
:class:`Recorder`: build, construct, run, verify, critpath, record,
store, sweep.  The recorder also keeps each simulated point's counts and
every failure, so the caller can check the cycle counts and compute the
metrics.  Nothing here reaches inside the program: layers are timed
around the calls into them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)
from bench.speed import (
    ProbedBuilder,
    logged_samples,
    slowdown_of,
    window_slowdown,
)
from bench.workloads import make_workloads
from repro.cpu.timing import parallel_seconds, sequential_seconds
from repro.eval.experiments import Figure9Row, run_figure10
from repro.eval.platforms import EVAL_HARP, EVAL_XEON
from repro.exec import ResultCache, SweepRunner
from repro.io.safety import lock_telemetry_snapshot
from repro.obs import FleetRecorder, Observability
from repro.obs.critpath import (
    extract_critical_path,
    result_saturation,
    summary_block,
)
from repro.obs.diagnose import cross_check, diagnose_record
from repro.obs.runstore import RunStore, record_from_result
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.ledger import TokenLedger
from repro.sim.stats import stats_digest

# Simulated counts kept per point, summed over a pass.
COUNTS = (
    "cycles", "commits", "squashes", "events_delivered", "queue_full_stalls",
    "active_stage_cycles", "stage_cycles", "loads", "load_hits", "bytes",
    "jumps", "cycles_skipped",
)


@dataclass
class Span:
    """One timed call: ``start`` is epoch seconds, ``dur`` seconds."""

    name: str
    point: str
    start: float
    dur: float


@dataclass
class Recorder:
    """Everything one pass measured."""

    spans: list[Span] = field(default_factory=list)
    # point id -> simulated counts plus "run_s", the host seconds spent
    # simulating it, "run_start" (epoch) and "slowdown", the host's
    # slowdown while it ran (None until known).
    points: dict[str, dict[str, float]] = field(default_factory=dict)
    # Pass-level measurements other than spans (exec and obs shares).
    values: dict[str, float] = field(default_factory=dict)
    # critpath buckets of the observed points, summed.
    buckets: dict[str, int] = field(default_factory=dict)
    # The program's own fleet spans (pool workers' job lanes), when traced.
    fleet_rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    wall_s: float = 0.0
    # The host's slowdown during the pass (bench.speed); host times
    # divided by it read as seconds on the reference host.  A workload
    # whose work runs in other processes sets it from their probes.
    slowdown: float | None = None

    @contextmanager
    def span(self, name: str, point: str = ""):
        start, t0 = time.time(), time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                Span(name, point, start, time.perf_counter() - t0)
            )

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def duration(self, name: str, point: str) -> float:
        return sum(s.dur for s in self.spans
                   if s.name == name and s.point == point)

    def check(self, ok: bool, failure: str) -> None:
        """Count one run-level check; record ``failure`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(failure)


def point_record(run, stats: dict[str, Any]) -> dict[str, float]:
    """The simulated counts of one point.

    ``run`` is a SimResult (in-process) or a JobOutcome (from the pool);
    both carry these fields, and ``stats`` is its SimStats as a dict.
    """
    return {
        "cycles": run.cycles,
        "commits": stats["commits"],
        "squashes": stats["squashes"],
        "events_delivered": stats["events_delivered"],
        "queue_full_stalls": stats["queue_full_stalls"],
        "active_stage_cycles": stats["active_stage_cycles"],
        "stage_cycles": run.cycles * stats["total_stages"],
        "loads": run.memory_loads,
        "load_hits": round(run.memory_hit_rate * run.memory_loads),
        "bytes": run.memory_bytes,
        "jumps": run.ff_jumps,
        "cycles_skipped": run.ff_cycles_skipped,
    }


def simulate(rec: Recorder, point: str, builder: Callable, platform,
             config: SimConfig, replicas=None, obs=None, ledger=None):
    """One in-process point: build, construct, run, verify, each a span.

    ``run(verify=False)`` followed by ``spec.verify`` is the work
    ``run()`` does, split so the oracle check is timed on its own.
    Returns ``(spec, sim, result)``, or None after recording a failure.
    """
    rec.attempted += 1
    try:
        with rec.span("build", point):
            spec = builder()
        with rec.span("construct", point):
            sim = AcceleratorSim(spec, platform=platform, config=config,
                                 replicas=replicas, obs=obs, ledger=ledger)
        with rec.span("run", point):
            result = sim.run(verify=False)
        with rec.span("verify", point):
            spec.verify(sim.state)
    except Exception as exc:   # noqa: BLE001 - a failed point is counted
        rec.failures.append(f"{point}: {type(exc).__name__}: {exc}")
        return None
    run = next(s for s in reversed(rec.spans)
               if s.name == "run" and s.point == point)
    rec.points[point] = {**point_record(result, stats_digest(result.stats)),
                         "run_s": run.dur, "run_start": run.start,
                         "slowdown": None}
    return spec, sim, result


def figure9_rows(rec: Recorder, table) -> dict[str, Figure9Row]:
    """Figure 9 rows for every app whose 1x point the pass simulated."""
    rows = {}
    for app, workload in table.items():
        point = rec.points.get(f"{app}@1x")
        if point is None:
            continue
        rows[app] = Figure9Row(
            app=app,
            accel_seconds=point["cycles"] / EVAL_HARP.clock_hz,
            sequential_seconds=sequential_seconds(workload.profile,
                                                  EVAL_XEON),
            parallel_seconds=parallel_seconds(workload.profile, EVAL_XEON),
            utilization=0.0,
        )
    return rows


class Workload:
    """A benchmark workload: seeded inputs plus a repeatable pass."""

    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.table: dict = {}

    def setup(self) -> None:
        """Generate the inputs (timed by the caller as set-up)."""
        raise NotImplementedError

    def run_pass(self, rec: Recorder, traced: bool = False) -> None:
        raise NotImplementedError

    def warm_up(self, rec: Recorder) -> None:
        """One discarded pass, so lazy imports and allocation settle."""
        self.run_pass(rec)

    def scratch(self) -> Path:
        """A fresh directory for caches and run stores, inside the run's."""
        return Path(tempfile.mkdtemp(dir=self.work_dir))


class Figure9Suite(Workload):
    name = "fig9-suite"
    why = ("the six Figure 9 apps at full scale in-process: active cycles "
           "dominate, so stage, rule-engine and task-queue speed shows here")

    def setup(self) -> None:
        self.table = make_workloads(self.seed, scale=1.0)

    def run_pass(self, rec: Recorder, traced: bool = False) -> None:
        for app, workload in self.table.items():
            simulate(rec, f"{app}@1x", workload.spec_builder, EVAL_HARP,
                     workload.config, workload.replicas)


class LowBandwidthGraph(Workload):
    name = "lowbw-graph"
    why = ("graph apps at 5% QPI bandwidth: pipelines idle 98% of cycles, "
           "so memory and cycle scheduling dominate; idle skipping shows")

    BANDWIDTH = 0.05

    def setup(self) -> None:
        self.table = make_workloads(self.seed, scale=0.5,
                                    apps=("SPEC-BFS", "COOR-BFS"))

    def run_pass(self, rec: Recorder, traced: bool = False) -> None:
        platform = EVAL_HARP.scaled(self.BANDWIDTH)
        for app, workload in self.table.items():
            simulate(rec, f"{app}@{self.BANDWIDTH:g}x", workload.spec_builder,
                     platform, workload.config, workload.replicas)


class _RecordingRunner(SweepRunner):
    """A SweepRunner that keeps the jobs and outcomes of its last run."""

    def run(self, sim_jobs):
        self.last_jobs = list(sim_jobs)
        self.outcomes = super().run(self.last_jobs)
        return self.outcomes


class Figure10Sweep(Workload):
    name = "fig10-sweep"
    why = ("the Figure 10 grid through the process pool on a fresh result "
           "cache, then a warm rerun: the only workload in exec and io")

    # Workers match the 2-core reference host; fixed so hosts compare.
    JOBS = 2
    # The cheap 1x points the pass re-simulates in-process, checking the
    # pool and cache path against a direct run.
    REFERENCE_APPS = ("SPEC-MST", "SPEC-DMR", "COOR-LU")

    def setup(self) -> None:
        self.table = make_workloads(self.seed, scale=1.0)

    def warm_up(self, rec: Recorder) -> None:
        # A cold sweep forks fresh workers every pass, so only the parent
        # warms up: the in-process reference points.
        self._reference(rec, self.table)

    def _sweep(self, rec: Recorder, table, cache_dir: Path,
               fleet=None) -> _RecordingRunner:
        runner = _RecordingRunner(jobs=self.JOBS, cache=ResultCache(cache_dir),
                                  strict=False, fleet=fleet)
        runner.last_jobs, runner.outcomes = [], []
        try:
            run_figure10(workloads=table, runner=runner)
        except Exception as exc:   # noqa: BLE001 - counted, outcomes kept
            rec.failures.append(f"sweep: {type(exc).__name__}: {exc}")
        return runner

    def _reference(self, rec: Recorder, table) -> None:
        for app in self.REFERENCE_APPS:
            workload = table[app]
            simulate(rec, f"{app}@1x:reference", workload.spec_builder,
                     EVAL_HARP, workload.config, workload.replicas)

    def _probed(self, log_dir: Path) -> dict:
        """The inputs, with each job making its pool worker probe speed."""
        return {
            app: replace(workload, source=replace(
                workload.source,
                builder=ProbedBuilder(workload.source.builder, log_dir),
            ))
            for app, workload in self.table.items()
        }

    def run_pass(self, rec: Recorder, traced: bool = False) -> None:
        cache_dir = self.scratch()
        speed_dir = cache_dir / "speed"
        speed_dir.mkdir()
        fleet = FleetRecorder(cache_dir / "fleet") if traced else None
        locks = lock_telemetry_snapshot()
        with rec.span("sweep", "cold"):
            cold = self._sweep(rec, self._probed(speed_dir), cache_dir, fleet)
        # Each point's slowdown is its worker's while it ran.
        samples = logged_samples(speed_dir)
        every = [d for rows in samples.values() for _, d in rows]
        fallback = slowdown_of(every) if every else None
        if fleet is not None:
            rec.fleet_rows = fleet.spans()
        job_wall = rebuild = 0.0
        for job, outcome in zip(cold.last_jobs, cold.outcomes):
            point = job.tag.split(":", 1)[1]
            rec.attempted += 1
            if outcome.error or not outcome.verified:
                rec.failures.append(f"{point}: {outcome.error}")
                continue
            offset, run_s = (outcome.phases or {}).get("simulate", (0, 0))
            start = outcome.started + offset
            rec.points[point] = {
                **point_record(outcome, outcome.stats),
                "run_s": run_s, "run_start": start,
                "slowdown": window_slowdown(
                    samples.get(outcome.worker_pid, []), start,
                    start + run_s) or fallback,
            }
            job_wall += outcome.wall_seconds
            rebuild += (outcome.phases or {}).get("spec-rebuild", (0, 0))[1]
        # The workers did most of the pass's work, so theirs sets the
        # pass's slowdown: each job's weighed by its time, so a worker on
        # a busier core counts for the work it did, not for its probes.
        jobs = [p for p in rec.points.values() if p["slowdown"]]
        if jobs:
            rec.slowdown = (sum(p["run_s"] for p in jobs)
                            / sum(p["run_s"] / p["slowdown"] for p in jobs))
        rec.check(cold.report.hits == 0,
                  f"cold sweep hit the cache {cold.report.hits} times")
        rec.check(not cold.report.fallback,
                  f"cold sweep ran in-process: {cold.report.fallback}")

        # The warm rerun rebuilds the inputs, as every `repro experiment`
        # does, then finds every point in the cache.
        with rec.span("sweep", "warm"):
            with rec.span("inputs", "warm"):
                table = make_workloads(self.seed, scale=1.0)
            warm = self._sweep(rec, table, cache_dir)
        points = len(cold.last_jobs)
        rec.check(points > 0 and warm.report.hits == points,
                  f"warm rerun hit {warm.report.hits} of {points} points")
        rec.check([o.cycles for o in warm.outcomes]
                  == [o.cycles for o in cold.outcomes],
                  "warm rerun cycles differ from the cold sweep")

        self._reference(rec, table)
        for app in self.REFERENCE_APPS:
            got = rec.points.get(f"{app}@1x:reference", {}).get("cycles")
            want = rec.points.get(f"{app}@1x", {}).get("cycles")
            rec.check(got == want, f"{app}@1x: in-process run gives {got} "
                                   f"cycles, the sweep {want}")
        waited = (lock_telemetry_snapshot()["wait_seconds"]
                  - locks["wait_seconds"])
        shutil.rmtree(cache_dir, ignore_errors=True)

        def histogram_total(runner, name: str) -> float:
            histogram = runner.metrics.histograms.get(name)
            return histogram.total if histogram is not None else 0.0

        busy = cold.metrics.gauges.get("exec.workers.busy_fraction")
        both = (cold, warm)
        rec.values.update({
            "exec.workers.busy_fraction": busy.value if busy else 0.0,
            "exec.queue_wait_s":
                histogram_total(cold, "exec.job.queue_wait_ms") / 1e3,
            "exec.job_wall_s": job_wall,
            "exec.spec_rebuild_s": rebuild,
            "exec.store.commit_s":
                histogram_total(cold, "exec.store.commit_us") / 1e6,
            "exec.cache.lookup_s": sum(
                histogram_total(r, "exec.cache.lookup_us") for r in both
            ) / 1e6,
            "io.lock.wait_s": waited,
            "exec.cache.hits": sum(
                r.metrics.counter_value("exec.cache.hits") for r in both),
            "exec.cache.misses": sum(
                r.metrics.counter_value("exec.cache.misses") for r in both),
            "exec.jobs.retried": sum(r.report.retried for r in both),
        })


class CriticalPathObserved(Workload):
    name = "critpath-observed"
    why = ("repro critpath on a speculation-bound and a squash-heavy point, "
           "each beside an unobserved run: the cost of instrumentation")

    # (app, bandwidth) as `repro critpath APP --bandwidth B` runs them:
    # the CLI's scale-0.5 input and default SimConfig.
    POINTS = (("SPEC-BFS", 8.0), ("SPEC-MST", 1.0))
    CONFIG = SimConfig()

    def setup(self) -> None:
        self.table = make_workloads(
            self.seed, scale=0.5, apps=tuple(app for app, _ in self.POINTS)
        )
        self.passes = 0

    def run_pass(self, rec: Recorder, traced: bool = False) -> None:
        # Alternate which variant goes first so neither always runs on a
        # warmer cache.
        self.passes += 1
        order = (False, True) if self.passes % 2 else (True, False)
        # A fresh store each pass: appending scans the store, so a store
        # growing across passes would make later passes slower.
        store_dir = self.scratch()
        store = RunStore(store_dir)
        for app, bandwidth in self.POINTS:
            point = f"{app}@{bandwidth:g}x"
            for observed in order:
                if observed:
                    self._observed(rec, store, app, bandwidth, point)
                else:
                    simulate(rec, point, self.table[app].spec_builder,
                             EVAL_HARP.scaled(bandwidth), self.CONFIG)
            plain = rec.points.get(point, {}).get("cycles")
            seen = rec.points.get(f"{point}:observed", {}).get("cycles")
            rec.check(plain == seen, f"{point}: observed run gives {seen} "
                                     f"cycles, unobserved {plain}")
        shutil.rmtree(store_dir, ignore_errors=True)

    def _observed(self, rec: Recorder, store: RunStore, app: str,
                  bandwidth: float, point: str) -> None:
        platform = EVAL_HARP.scaled(bandwidth)
        point = f"{point}:observed"
        done = simulate(rec, point, self.table[app].spec_builder, platform,
                        self.CONFIG, obs=Observability(), ledger=TokenLedger())
        if done is None:
            return
        spec, sim, result = done
        rec.attempted += 1
        try:
            with rec.span("critpath", point):
                critpath = extract_critical_path(
                    result.ledger, result.cycles,
                    rule_lanes=self.CONFIG.rule_lanes,
                    saturation=result_saturation(result, platform),
                )
                summary = summary_block(critpath)
            with rec.span("record", point):
                stage_names = [stage.name for pipeline in sim.pipelines
                               for stage in pipeline.stages]
                record = record_from_result(
                    "critpath", spec, result, platform=platform,
                    config=self.CONFIG, stage_names=stage_names,
                    wall_seconds=rec.duration("run", point),
                    critical_path=summary,
                )
                cross_check(diagnose_record(record), summary)
            with rec.span("store", point):
                store.append(record)
        except Exception as exc:   # noqa: BLE001 - a failed point is counted
            rec.failures.append(f"{point}: {type(exc).__name__}: {exc}")
            return
        for bucket, cycles in summary["buckets"].items():
            rec.buckets[bucket] = rec.buckets.get(bucket, 0) + cycles


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Figure9Suite, LowBandwidthGraph,
                              Figure10Sweep, CriticalPathObserved)
}


def point_counts(points: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Every count in :data:`COUNTS`, summed over a pass's points."""
    return {name: sum(p[name] for p in points.values()) for name in COUNTS}
