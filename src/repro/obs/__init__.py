"""Simulator-wide observability: tracing, metrics, stall attribution.

Each consumer of the simulator's one :class:`~repro.obs.events.Probe`
has one job (see docs/observability.md): the event metrics
(`metrics.py`) record into a registry from which
:class:`~repro.sim.stats.SimStats` is re-derived; the stall profiler
and the utilization timeline (`profile.py`) fold stage activity into
exact per-stage cycle accounting and a plotted series; the trace ring
(`tracer.py`) exports Chrome ``trace_event`` JSON for Perfetto.

An :class:`Observability` instance holds one run's consumers, handed to
:class:`~repro.sim.accelerator.AcceleratorSim` via its ``obs=``
parameter, and carries the ring only when given a capacity: only a
command that exports a trace fills one.  The probe and its consumers
live inside the simulator's checkpointed object graph, so a rollback
restores trace/profile/metric state and replayed cycles are never
double-counted.
"""

from __future__ import annotations

from repro.obs.events import Probe, StallReason, TraceEvent, TraceEventKind
from repro.obs.fleet import (
    FleetRecorder,
    SweepProgress,
    format_status,
    load_status,
    merge_fleet_trace,
    write_fleet_trace,
)
from repro.obs.metrics import (
    Counter,
    EventMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    StallProfiler,
    UtilizationTimeline,
    format_stall_report,
)
from repro.obs.regress import (
    Regression,
    format_regressions,
    regress_store,
)
from repro.obs.tracer import EventTracer


class Observability:
    """One run's metrics registry, event metrics, profiler and timeline,
    and its trace ring (``tracer``) when given a ``trace_capacity``."""

    def __init__(self, trace_capacity: int | None = None) -> None:
        self.registry = MetricsRegistry()
        self.event_metrics = EventMetrics(self.registry)
        self.tracer = (EventTracer(trace_capacity)
                       if trace_capacity is not None else None)
        self.profiler = StallProfiler()
        self.timeline = UtilizationTimeline()

    @property
    def consumers(self) -> list:
        """The probe consumers, in the order the probe calls them."""
        return [c for c in (self.event_metrics, self.tracer, self.profiler,
                            self.timeline) if c is not None]


__all__ = [
    "Counter",
    "EventMetrics",
    "EventTracer",
    "FleetRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Probe",
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
    "regress_store",
    "write_fleet_trace",
]
