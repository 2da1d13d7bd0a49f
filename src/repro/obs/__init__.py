"""Simulator-wide observability: tracing, metrics, stall attribution.

Three pillars (see docs/observability.md):

* a structured **event tracer** (`tracer.py`) — ring-buffered typed
  events exported as Chrome ``trace_event`` JSON for Perfetto, or folded
  into the legacy ASCII timeline;
* a **metrics registry** (`metrics.py`) — named counters, gauges, and
  log-scaled histograms that components register against, from which
  :class:`~repro.sim.stats.SimStats` is re-derived;
* a **stall-attribution profiler** (`profile.py`) — per-stage cycle
  accounting (active / stalled-by-reason / idle) that sums exactly to
  the simulated cycle count.

An :class:`Observability` instance bundles all three for one simulation
run and is handed to :class:`~repro.sim.accelerator.AcceleratorSim` via
its ``obs=`` parameter.  The contract mirrors the fault hooks: every
component holds ``obs = None`` by default and pays a single identity
test on the hot path, so with observability disabled the simulator's
behaviour — including cycle counts — is bit-identical.  The bundle lives
inside the simulator's checkpointed object graph, so a rollback restores
trace/profile/metric state and replayed cycles are never double-counted.
"""

from __future__ import annotations

from repro.obs.events import StallReason, TraceEvent, TraceEventKind
from repro.obs.fleet import (
    FleetRecorder,
    SweepProgress,
    format_status,
    load_status,
    merge_fleet_trace,
    write_fleet_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    StallProfiler,
    UtilizationTimeline,
    format_stall_report,
)
from repro.obs.regress import (
    Regression,
    format_regressions,
    regress_bench,
    regress_store,
)
from repro.obs.tracer import EventTracer


class Observability:
    """One run's tracer + registry + profiler, plus the emission hooks.

    ``now`` is the simulator's current cycle, refreshed once per
    :meth:`~repro.sim.accelerator.AcceleratorSim.step`; hooks on
    components that do not carry a cycle of their own (queues, engines,
    request retirement) timestamp with it.
    """

    def __init__(self, trace_capacity: int = 65536) -> None:
        self.tracer = EventTracer(trace_capacity)
        self.registry = MetricsRegistry()
        self.profiler = StallProfiler()
        self.timeline = UtilizationTimeline()
        self.tracer.add_sink(self.profiler.on_event)
        self.tracer.add_sink(self.timeline.on_event)
        self.now = 0

    # -- pipeline stages -------------------------------------------------------

    def stage_fire(self, cycle: int, stage: str) -> None:
        self.tracer.emit(cycle, TraceEventKind.STAGE_FIRE, stage)

    def stage_stall(self, cycle: int, stage: str, reason: StallReason) -> None:
        self.tracer.emit(cycle, TraceEventKind.STAGE_STALL, stage,
                         reason=reason)

    def credit_skipped_stalls(self, stage: str, reason: StallReason,
                              count: int) -> None:
        """Idle skip: fold ``count`` repeated stall cycles into the
        profiler's accounting without emitting per-cycle trace events
        (the one place event and dense traces deliberately differ)."""
        self.profiler.credit(stage, reason, count)

    # -- task queues -----------------------------------------------------------

    def queue_push(self, task_set: str, occupancy: int) -> None:
        self.registry.histogram(f"queue.{task_set}.occupancy").record(
            occupancy
        )
        self.tracer.emit(self.now, TraceEventKind.TOKEN_ENQ, task_set,
                         data={"occupancy": occupancy})

    def queue_pop(self, task_set: str, occupancy: int) -> None:
        self.tracer.emit(self.now, TraceEventKind.TOKEN_DEQ, task_set,
                         data={"occupancy": occupancy})

    # -- rule engines ----------------------------------------------------------

    def rule_promise(self, engine: str, occupancy: int) -> None:
        self.registry.histogram(f"rules.{engine}.lane_occupancy").record(
            occupancy
        )
        self.tracer.emit(self.now, TraceEventKind.RULE_PROMISE, engine,
                         data={"occupancy": occupancy})

    def rule_rendezvous(self, engine: str) -> None:
        self.tracer.emit(self.now, TraceEventKind.RULE_RENDEZVOUS, engine)

    def rule_return(self, engine: str, verdict: str,
                    occupancy: int = 0) -> None:
        self.tracer.emit(self.now, TraceEventKind.RULE_RETURN, engine,
                         data={"verdict": verdict, "occupancy": occupancy})

    def rule_squash(self, cycle: int, engine: str) -> None:
        self.tracer.emit(cycle, TraceEventKind.RULE_SQUASH, engine)

    # -- memory system ---------------------------------------------------------

    def mem_issue(self, cycle: int, kind: str, nbytes: int) -> None:
        self.registry.counter(f"mem.{kind}s_issued").inc()
        self.tracer.emit(cycle, TraceEventKind.MEM_ISSUE, kind,
                         data={"bytes": nbytes})

    def mem_load(self, cycle: int, addr: int, hit: bool,
                 latency: int) -> None:
        self.registry.histogram("mem.load_latency").record(latency)
        self.tracer.emit(
            cycle,
            TraceEventKind.MEM_HIT if hit else TraceEventKind.MEM_MISS,
            "load", data={"addr": addr, "latency": latency},
        )

    def mem_complete(self, kind: str = "load") -> None:
        self.tracer.emit(self.now, TraceEventKind.MEM_COMPLETE, kind)

    # -- robustness ------------------------------------------------------------

    def checkpoint(self, cycle: int, count: int) -> None:
        self.registry.counter("recovery.checkpoints").inc()
        self.tracer.emit(cycle, TraceEventKind.CHECKPOINT, "checkpoint",
                         data={"count": count})

    def rollback(self, cycle: int) -> None:
        self.registry.counter("recovery.rollbacks").inc()
        self.tracer.emit(cycle, TraceEventKind.ROLLBACK, "rollback",
                         data={"to_cycle": cycle})


__all__ = [
    "Counter",
    "EventTracer",
    "FleetRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Regression",
    "StallProfiler",
    "StallReason",
    "SweepProgress",
    "TraceEvent",
    "TraceEventKind",
    "UtilizationTimeline",
    "format_regressions",
    "format_stall_report",
    "format_status",
    "load_status",
    "merge_fleet_trace",
    "regress_bench",
    "regress_store",
    "write_fleet_trace",
]
