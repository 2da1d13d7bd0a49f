"""Picklable simulation jobs with canonical content digests.

A :class:`SimJob` fully describes one cycle-level simulation — what to
build, on which platform, with which knobs, under which fault plan — as
plain data, so it can cross a process boundary (the parallel runner) and
be hashed into a cache key (the result cache).

Application specs themselves are *not* picklable (they carry lambdas),
so a job holds a declarative *source* that rebuilds the spec inside the
worker: :class:`WorkloadSource` (named evaluation workloads),
:class:`GraphAppSource` (an app over a seeded random graph),
:class:`CliAppSource` (the CLI's default input), or
:class:`CallableSource` as an escape hatch for arbitrary builders (which
forfeits caching unless an explicit ``key`` is given, and parallelism
unless the callable pickles).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

from repro.eval.platforms import HARP, HarpPlatform
from repro.sim.accelerator import SimConfig

# Bump when execute_job's behaviour changes in a way that invalidates
# previously cached outcomes (it salts every job digest).
JOB_SCHEMA = 2


# ---------------------------------------------------------------------------
# Spec sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSource:
    """A named workload from :mod:`repro.eval.workloads`."""

    app: str
    family: str = "default"   # "default" | "road"
    scale: float = 1.0

    def build(self):
        return _workload(self.family, self.scale)[self.app].build_spec()


@dataclass(frozen=True)
class GraphAppSource:
    """An app built over a seeded random graph (benchmarks, tests)."""

    app: str
    nodes: int
    edges: int
    seed: int
    start: int | None = None

    def build(self):
        from repro.apps.registry import build_app
        from repro.substrates.graphs.generators import random_graph

        graph = random_graph(self.nodes, self.edges, seed=self.seed)
        if self.start is not None:
            return build_app(self.app, graph, self.start)
        return build_app(self.app, graph)


@dataclass(frozen=True)
class CliAppSource:
    """The CLI's default input for ``app`` (mirrors ``repro simulate``)."""

    app: str
    scale: float = 0.5

    def build(self):
        from repro.apps.registry import build_app
        from repro.substrates.graphs.generators import random_graph

        workloads = _workload("default", self.scale)
        if self.app in workloads:
            return workloads[self.app].build_spec()
        if self.app in ("SPEC-CC", "COOR-SSSP"):
            return build_app(self.app, random_graph(200, 500, seed=1))
        return build_app(self.app)


@dataclass(frozen=True)
class CallableSource:
    """Wraps an arbitrary spec builder.

    Parallel execution needs the callable to pickle (the runner checks
    and falls back in-process when it does not); caching needs a caller-
    supplied ``key`` that uniquely names what the builder produces — with
    no key the job is uncacheable, never wrongly shared.
    """

    builder: Callable[[], Any]
    key: str = ""

    def build(self):
        return self.builder()


# Worker-side memo: workload tables regenerate their input graphs on
# every call, so a pool worker running many points of one sweep builds
# them once.  Keyed by (family, scale); safe because sequential sims
# over a shared input graph is the pattern the serial harness always
# used.
_WORKLOAD_MEMO: dict[tuple[str, float], dict] = {}


def _workload(family: str, scale: float) -> dict:
    table = _WORKLOAD_MEMO.get((family, scale))
    if table is None:
        from repro.eval.workloads import default_workloads, road_workloads

        maker = road_workloads if family == "road" else default_workloads
        table = _WORKLOAD_MEMO[(family, scale)] = maker(scale)
    return table


def _source_key(source) -> dict[str, Any] | None:
    """The source's contribution to the job digest; None = uncacheable."""
    if isinstance(source, CallableSource):
        if not source.key:
            return None
        return {"type": "CallableSource", "key": source.key}
    return {"type": type(source).__name__, **asdict(source)}


# ---------------------------------------------------------------------------
# The job
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """Declarative stand-in for a generated FaultPlan.

    The plan itself holds an RNG and closures; workers regenerate it
    from the seed, the baseline-run horizon, and the intensity — the
    exact inputs :meth:`repro.sim.faults.FaultPlan.generate` consumes.
    """

    seed: int
    horizon: int
    intensity: float = 1.0


@dataclass
class SimJob:
    """One simulation point of a sweep."""

    source: Any
    platform: HarpPlatform = HARP
    config: SimConfig = field(default_factory=SimConfig)
    replicas: dict[str, int] | None = None
    fault: FaultSpec | None = None
    resilient: bool = False
    check_interval: int | None = None
    checkpoint_interval: int = 5000
    verify: bool = True
    # Informational only (display label, runstore seed column) — neither
    # changes what the simulator computes, so neither enters the digest.
    seed: int | None = None
    tag: str = ""

    @property
    def app(self) -> str:
        return getattr(self.source, "app", None) or self.tag or "?"

    def canonical(self) -> dict[str, Any] | None:
        """Digest payload; None when the source is uncacheable."""
        source = _source_key(self.source)
        if source is None:
            return None
        return {
            "schema": JOB_SCHEMA,
            "source": source,
            "platform": asdict(self.platform),
            "config": asdict(self.config),
            "replicas": dict(sorted(self.replicas.items()))
            if self.replicas else None,
            "fault": asdict(self.fault) if self.fault else None,
            "resilient": self.resilient,
            "check_interval": self.check_interval,
            "checkpoint_interval": self.checkpoint_interval,
            "verify": self.verify,
        }

    def digest(self) -> str | None:
        """Stable sha256 over the canonical payload (cache key)."""
        payload = self.canonical()
        if payload is None:
            return None
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The outcome
# ---------------------------------------------------------------------------


@dataclass
class JobOutcome:
    """Everything a sweep consumer reads from one simulated point.

    Plain JSON-ready data (no SimStats / registry objects) so outcomes
    round-trip through the result cache and across process boundaries
    byte-identically.
    """

    app: str
    cycles: int = 0
    seconds: float = 0.0
    utilization: float = 0.0
    squash_fraction: float = 0.0
    memory_bytes: int = 0
    memory_loads: int = 0
    memory_hit_rate: float = 0.0
    bandwidth_scale: float = 1.0
    ff_jumps: int = 0
    ff_cycles_skipped: int = 0
    verified: bool = False
    app_mode: str = ""
    host_fed: bool = False
    stats: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None
    resilient: dict[str, Any] | None = None
    error: str = ""
    # Set with error when the job crossed the poison threshold and the
    # sweep kept going; strict mode does not raise for these.
    quarantined: bool = False
    wall_seconds: float = 0.0
    # Fleet telemetry: which process ran the job, when it started (epoch
    # seconds), and per-phase [offset, duration] pairs relative to that
    # start ({"spec-rebuild": [...], "simulate": [...]}).  Host-dependent,
    # so excluded from to_dict() — they cross the pool boundary by
    # pickling but never enter the cache or any determinism comparison.
    worker_pid: int = 0
    started: float = 0.0
    phases: dict[str, Any] | None = None
    # Set by the runner when this outcome came from the cache; not
    # persisted (a cached copy of a cached copy is still one result).
    cached: bool = False

    # Host/process-local fields stripped before persisting or comparing.
    _EPHEMERAL = ("cached", "worker_pid", "started", "phases")

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        for name in self._EPHEMERAL:
            del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobOutcome":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class JobTimeoutError(Exception):
    """The per-job wall-clock budget expired."""


def _outcome_from_result(job: SimJob, result, resilient) -> JobOutcome:
    from repro.sim.stats import stats_digest

    return JobOutcome(
        app=result.app,
        cycles=result.cycles,
        seconds=result.seconds,
        utilization=result.utilization,
        squash_fraction=result.squash_fraction,
        memory_bytes=result.memory_bytes,
        memory_loads=result.memory_loads,
        memory_hit_rate=result.memory_hit_rate,
        bandwidth_scale=result.bandwidth_scale,
        ff_jumps=result.ff_jumps,
        ff_cycles_skipped=result.ff_cycles_skipped,
        verified=job.verify,
        stats=stats_digest(result.stats),
        metrics=result.metrics.snapshot() if result.metrics else None,
        resilient=resilient,
    )


def _execute(job: SimJob, phases: dict[str, Any] | None = None) -> JobOutcome:
    from repro.sim.accelerator import AcceleratorSim, run_resilient
    from repro.sim.invariants import DEFAULT_CHECK_INTERVAL

    t0 = time.perf_counter()
    spec = job.source.build()
    if phases is not None:
        phases["spec-rebuild"] = [0.0, round(time.perf_counter() - t0, 6)]
    faults = None
    if job.fault is not None:
        from repro.sim.faults import FaultPlan

        faults = FaultPlan.generate(
            job.fault.seed,
            horizon=job.fault.horizon,
            engines=tuple(spec.rules),
            task_sets=tuple(spec.task_sets),
            banks=job.config.queue_banks,
            rule_lanes=job.config.rule_lanes,
            intensity=job.fault.intensity,
        )
    sim_t0 = time.perf_counter()
    if job.resilient:
        res = run_resilient(
            spec,
            platform=job.platform,
            config=job.config,
            replicas=job.replicas,
            faults=faults,
            check_interval=(
                job.check_interval if job.check_interval is not None
                else DEFAULT_CHECK_INTERVAL
            ),
            checkpoint_interval=job.checkpoint_interval,
            verify=job.verify,
        )
        resilient = {
            "attempts": res.attempts,
            "rollbacks": res.rollbacks,
            "degradations": res.degradations,
            "recovered": res.recovered,
            "failures": [
                {"cycle": f.cycle, "attempt": f.attempt, "error": f.error}
                for f in res.failures
            ],
        }
        result = res.result
    else:
        sim = AcceleratorSim(
            spec, platform=job.platform, config=job.config,
            replicas=job.replicas, faults=faults,
            check_interval=job.check_interval,
        )
        result = sim.run(verify=job.verify)
        resilient = None
    if phases is not None:
        phases["simulate"] = [
            round(sim_t0 - t0, 6),
            round(time.perf_counter() - sim_t0, 6),
        ]
    outcome = _outcome_from_result(job, result, resilient)
    outcome.app_mode = spec.mode
    outcome.host_fed = spec.host_feed is not None
    return outcome


def execute_job(job: SimJob) -> JobOutcome:
    """Run one job to an outcome; failures become ``outcome.error``.

    Never raises: errors (including per-job timeouts, delivered as
    :class:`JobTimeoutError` via SIGALRM) are folded into the outcome so
    a pool worker always returns a picklable value and the runner can
    keep result ordering deterministic.
    """
    started = time.time()
    start = time.perf_counter()
    phases: dict[str, Any] = {}
    try:
        outcome = _execute(job, phases)
    except Exception as exc:   # noqa: BLE001 — fold into the outcome
        outcome = JobOutcome(
            app=job.app, error=f"{type(exc).__name__}: {exc}"
        )
    outcome.wall_seconds = round(time.perf_counter() - start, 6)
    outcome.worker_pid = os.getpid()
    outcome.started = started
    outcome.phases = phases or None
    return outcome
