"""Ring-buffered structured event tracer with Chrome trace export.

The tracer keeps the most recent ``capacity`` events in a ring (old
events fall off the back, so tracing a long run is bounded-memory); its
``on_<kind>`` handlers fill it as a consumer of the simulator's
:class:`~repro.obs.events.Probe`.

The ring exports to the Chrome ``trace_event`` JSON format, loadable in
``chrome://tracing`` or https://ui.perfetto.dev: stage activity becomes
per-stage duration slices, queue traffic becomes counter tracks, rule
and memory events become instants.  Cycle *n* is rendered at timestamp
*n* microseconds.
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.events import StallReason, TraceEvent
from repro.obs.events import TraceEventKind as Kind
from repro.obs.metrics import MetricsRegistry

# Synthetic process ids grouping the Chrome trace tracks.
_PID_PIPELINES = 1
_PID_QUEUES = 2
_PID_RULES = 3
_PID_MEMORY = 4
_PID_RECOVERY = 5

_PROCESS_NAMES = {
    _PID_PIPELINES: "pipelines",
    _PID_QUEUES: "task queues",
    _PID_RULES: "rule engines",
    _PID_MEMORY: "memory system",
    _PID_RECOVERY: "checkpoint/rollback",
}


class EventTracer:
    """Bounded ring of :class:`TraceEvent`; its probe handlers also record
    occupancy, latency and issue/recovery metrics into ``registry``."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.registry = MetricsRegistry()

    # -- emission -------------------------------------------------------------

    def emit(
        self,
        cycle: int,
        kind: Kind,
        name: str,
        reason: StallReason | None = None,
        data: dict | None = None,
    ) -> None:
        self.ring.append(TraceEvent(cycle, kind, name, reason, data))
        self.emitted += 1

    # -- probe consumer ---------------------------------------------------------

    def on_fire(self, cycle: int, stage: str, *_) -> None:
        self.emit(cycle, Kind.STAGE_FIRE, stage)

    on_fork = on_release = on_fire

    def on_born(self, cycle, stage, uid, handle, task_set, occupancy):
        self.emit(cycle, Kind.TOKEN_DEQ, task_set,
                  data={"occupancy": occupancy})
        self.emit(cycle, Kind.STAGE_FIRE, stage)

    def on_alloc(self, cycle, stage, uid, retired, engine, lanes):
        self.registry.histogram(f"rules.{engine}.lane_occupancy").record(lanes)
        self.emit(cycle, Kind.RULE_PROMISE, engine, data={"occupancy": lanes})
        self.emit(cycle, Kind.STAGE_FIRE, stage)

    def on_verdict(self, cycle, stage, uid, retired, engine, instance,
                   outcome):
        if outcome != "pass":
            self.emit(cycle, Kind.RULE_SQUASH, engine)
        self.emit(cycle, Kind.STAGE_FIRE, stage)

    def on_awaited(self, cycle, stage, uid, engine):
        self.emit(cycle, Kind.RULE_RENDEZVOUS, engine)

    def on_stall(self, cycle, stage, reason):
        self.emit(cycle, Kind.STAGE_STALL, stage, reason=reason)

    def on_activate(self, cycle, handle, cause, cause_uid, task_set,
                    occupancy):
        self.registry.histogram(f"queue.{task_set}.occupancy").record(
            occupancy)
        self.emit(cycle, Kind.TOKEN_ENQ, task_set,
                  data={"occupancy": occupancy})

    def on_lane_free(self, cycle, engine, verdict, lanes):
        self.emit(cycle, Kind.RULE_RETURN, engine,
                  data={"verdict": verdict.name.lower(), "occupancy": lanes})

    def on_load(self, cycle, addr, nbytes, hit, done_at, req):
        self.registry.counter("mem.loads_issued").inc()
        self.registry.histogram("mem.load_latency").record(done_at - cycle)
        self.emit(cycle, Kind.MEM_ISSUE, "load", data={"bytes": nbytes})
        self.emit(cycle, Kind.MEM_HIT if hit else Kind.MEM_MISS, "load",
                  data={"addr": addr, "latency": done_at - cycle})

    def on_store(self, cycle, nbytes):
        self.registry.counter("mem.stores_issued").inc()
        self.emit(cycle, Kind.MEM_ISSUE, "store", data={"bytes": nbytes})

    def on_stream(self, cycle, nbytes, done_at, req):
        self.registry.counter("mem.streams_issued").inc()
        self.emit(cycle, Kind.MEM_ISSUE, "stream", data={"bytes": nbytes})

    def on_mem_done(self, cycle):
        # Every retirement is named "load", whatever the request was.
        self.emit(cycle, Kind.MEM_COMPLETE, "load")

    def on_checkpoint(self, cycle, count):
        self.registry.counter("recovery.checkpoints").inc()
        self.emit(cycle, Kind.CHECKPOINT, "checkpoint", data={"count": count})

    def on_rollback(self, cycle):
        self.registry.counter("recovery.rollbacks").inc()
        self.emit(cycle, Kind.ROLLBACK, "rollback", data={"to_cycle": cycle})

    @property
    def evicted(self) -> int:
        """Events that fell off the ring (the profiler still saw them)."""
        return self.emitted - len(self.ring)

    def events(self) -> list[TraceEvent]:
        return list(self.ring)

    # -- Chrome trace_event export ---------------------------------------------

    def chrome_trace(self) -> dict:
        """The ring as a Chrome ``trace_event`` JSON document (a dict).

        Besides the stage slices and instants, three families of counter
        tracks ("C" events) render Perfetto load curves: per-queue
        occupancy, per-engine live rule lanes, and the outstanding QPI
        request count (reconstructed from issue/complete instants, so it
        is relative to the start of the ring when old events were
        evicted).
        """
        out: list[dict] = []
        tids: dict[tuple[int, str], int] = {}
        qpi_outstanding = 0

        def tid(pid: int, name: str) -> int:
            key = (pid, name)
            ident = tids.get(key)
            if ident is None:
                ident = len(tids) + 1
                tids[key] = ident
                out.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": ident, "args": {"name": name},
                })
            return ident

        for pid, pname in _PROCESS_NAMES.items():
            out.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": pname},
            })

        for ev in self.ring:
            kind = ev.kind
            if kind is Kind.STAGE_FIRE:
                out.append({
                    "name": "active", "ph": "X", "ts": ev.cycle, "dur": 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, ev.name),
                })
            elif kind is Kind.STAGE_STALL:
                out.append({
                    "name": f"stall:{ev.reason.value}", "ph": "X",
                    "ts": ev.cycle, "dur": 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, ev.name),
                })
            elif kind in (Kind.TOKEN_ENQ, Kind.TOKEN_DEQ):
                out.append({
                    "name": f"queue:{ev.name}", "ph": "C", "ts": ev.cycle,
                    "pid": _PID_QUEUES,
                    "args": {"occupancy": (ev.data or {}).get("occupancy", 0)},
                })
            elif kind in (Kind.RULE_PROMISE, Kind.RULE_RENDEZVOUS,
                          Kind.RULE_RETURN, Kind.RULE_SQUASH):
                out.append({
                    "name": kind.value, "ph": "i", "s": "t", "ts": ev.cycle,
                    "pid": _PID_RULES, "tid": tid(_PID_RULES, ev.name),
                    "args": dict(ev.data) if ev.data else {},
                })
                if kind in (Kind.RULE_PROMISE, Kind.RULE_RETURN):
                    out.append({
                        "name": f"lanes:{ev.name}", "ph": "C",
                        "ts": ev.cycle, "pid": _PID_RULES,
                        "args": {
                            "lanes": (ev.data or {}).get("occupancy", 0),
                        },
                    })
            elif kind in (Kind.MEM_ISSUE, Kind.MEM_HIT, Kind.MEM_MISS,
                          Kind.MEM_COMPLETE):
                out.append({
                    "name": kind.value, "ph": "i", "s": "t", "ts": ev.cycle,
                    "pid": _PID_MEMORY, "tid": tid(_PID_MEMORY, "channel"),
                    "args": dict(ev.data) if ev.data else {},
                })
                if kind is Kind.MEM_ISSUE:
                    qpi_outstanding += 1
                elif kind is Kind.MEM_COMPLETE:
                    qpi_outstanding = max(0, qpi_outstanding - 1)
                if kind in (Kind.MEM_ISSUE, Kind.MEM_COMPLETE):
                    out.append({
                        "name": "qpi:outstanding", "ph": "C",
                        "ts": ev.cycle, "pid": _PID_MEMORY,
                        "args": {"outstanding": qpi_outstanding},
                    })
            else:  # CHECKPOINT / ROLLBACK
                out.append({
                    "name": kind.value, "ph": "i", "s": "g", "ts": ev.cycle,
                    "pid": _PID_RECOVERY, "tid": tid(_PID_RECOVERY, "recovery"),
                    "args": dict(ev.data) if ev.data else {},
                })
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "emitted": self.emitted,
                "evicted": self.evicted,
                "timestampUnit": "1 us == 1 simulated cycle",
            },
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=None,
                      separators=(",", ":"), sort_keys=False)
