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
its ``obs=`` parameter.  The bundle is data: its parts are consumers of
the simulator's one :class:`~repro.obs.events.Probe` (see there for the
zero-cost contract).  The probe and its consumers live inside the
simulator's checkpointed object graph, so a rollback restores
trace/profile/metric state and replayed cycles are never double-counted.
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
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
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
    """One run's trace ring, metrics registry, profiler and timeline."""

    def __init__(self, trace_capacity: int = 65536) -> None:
        self.tracer = EventTracer(trace_capacity)
        self.registry = self.tracer.registry
        self.profiler = StallProfiler()
        self.timeline = UtilizationTimeline()


__all__ = [
    "Counter",
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
