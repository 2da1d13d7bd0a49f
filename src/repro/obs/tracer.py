"""Ring-buffered structured event tracer with Chrome trace export.

The tracer keeps the most recent ``capacity`` events in a ring (old
events fall off the back, so tracing a long run is bounded-memory); its
``on_<kind>`` handlers fill it as a consumer of the simulator's
:class:`~repro.obs.events.Probe`.  It records nothing else (the event
metrics are :class:`~repro.obs.metrics.EventMetrics`), so a run attaches
the ring only when it exports a trace.

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

# The ring's size when a command does not choose one.
DEFAULT_TRACE_CAPACITY = 65536

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

# A ring entry is a plain tuple ``(cycle, kind, name, reason, data)``:
# ``kind`` indexes _KINDS, ``reason`` is a StallReason column (0: none,
# see _REASONS) and ``data`` is None or a dict of ints and strings (a
# stall run's is its cycle count, an int).  A stage slice's parts are
# atomic, so the cyclic collector stops tracking its entry once it has
# survived a collection; TraceEvent records are built only by
# ``events()``.
_KINDS = (Kind.TOKEN_ENQ, Kind.TOKEN_DEQ, Kind.STAGE_FIRE, Kind.STAGE_STALL,
          Kind.RULE_PROMISE, Kind.RULE_RENDEZVOUS, Kind.RULE_RETURN,
          Kind.RULE_SQUASH, Kind.MEM_ISSUE, Kind.MEM_HIT, Kind.MEM_MISS,
          Kind.MEM_COMPLETE, Kind.CHECKPOINT, Kind.ROLLBACK)
(_ENQ, _DEQ, _FIRE, _STALL, _PROMISE, _RENDEZVOUS, _RETURN, _SQUASH,
 _MEM_ISSUE, _HIT, _MISS, _COMPLETE, _CHECKPOINT, _ROLLBACK) = range(
    len(_KINDS))
_REASONS = (None, *StallReason)
_STALL_SLICES = (None, *(f"stall:{reason.value}" for reason in StallReason))
_KIND_NAMES = tuple(kind.value for kind in _KINDS)


class _Ring(deque):
    """The trace ring.  Entries are never mutated once appended, so a
    copy (a checkpoint snapshot) shares them instead of copying each."""

    def __deepcopy__(self, memo):
        return _Ring(self, self.maxlen)


class EventTracer:
    """Bounded ring of trace entries, filled by its probe handlers,
    which append to the ring directly."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.ring = _Ring(maxlen=capacity)
        self.emitted = 0

    # -- probe consumer ---------------------------------------------------------

    def on_firing(self, cycle, stage):
        """A fire, fork or release: a plain stage slice."""
        self.ring.append((cycle, _FIRE, stage, 0, None))
        self.emitted += 1

    def on_born(self, cycle, stage, uid, handle, task_set, occupancy):
        append = self.ring.append
        append((cycle, _DEQ, task_set, 0, {"occupancy": occupancy}))
        append((cycle, _FIRE, stage, 0, None))
        self.emitted += 2

    def on_alloc(self, cycle, stage, uid, retired, engine, lanes):
        append = self.ring.append
        append((cycle, _PROMISE, engine, 0, {"occupancy": lanes}))
        append((cycle, _FIRE, stage, 0, None))
        self.emitted += 2

    def on_verdict(self, cycle, stage, uid, retired, engine, instance,
                   outcome):
        append = self.ring.append
        if outcome != "pass":
            append((cycle, _SQUASH, engine, 0, None))
            self.emitted += 1
        append((cycle, _FIRE, stage, 0, None))
        self.emitted += 1

    def on_awaited(self, cycle, stage, uid, engine):
        self.ring.append((cycle, _RENDEZVOUS, engine, 0, None))
        self.emitted += 1

    def on_stall(self, cycle, stage, reason, count):
        # A run of stalled cycles is one entry whose data is its length.
        self.ring.append((cycle, _STALL, stage, reason.column,
                          None if count == 1 else count))
        self.emitted += 1

    def on_activate(self, cycle, handle, cause, cause_uid, task_set,
                    occupancy):
        self.ring.append((cycle, _ENQ, task_set, 0,
                          {"occupancy": occupancy}))
        self.emitted += 1

    def on_lane_free(self, cycle, engine, verdict, lanes):
        # A RuleVerdict's value is its lower-case name; ``_value_`` reads
        # it without the enum's ``name`` descriptor.
        self.ring.append((cycle, _RETURN, engine, 0,
                          {"verdict": verdict._value_, "occupancy": lanes}))
        self.emitted += 1

    def on_load(self, cycle, addr, nbytes, hit, done_at):
        append = self.ring.append
        append((cycle, _MEM_ISSUE, "load", 0, {"bytes": nbytes}))
        append((cycle, _HIT if hit else _MISS, "load", 0,
                {"addr": addr, "latency": done_at - cycle}))
        self.emitted += 2

    def on_store(self, cycle, nbytes):
        self.ring.append((cycle, _MEM_ISSUE, "store", 0, {"bytes": nbytes}))
        self.emitted += 1

    def on_stream(self, cycle, nbytes, done_at):
        self.ring.append((cycle, _MEM_ISSUE, "stream", 0,
                          {"bytes": nbytes}))
        self.emitted += 1

    def on_mem_done(self, cycle):
        # Every retirement is named "load", whatever the request was.
        self.ring.append((cycle, _COMPLETE, "load", 0, None))
        self.emitted += 1

    def on_checkpoint(self, cycle, count):
        self.ring.append((cycle, _CHECKPOINT, "checkpoint", 0,
                          {"count": count}))
        self.emitted += 1

    def on_rollback(self, cycle):
        self.ring.append((cycle, _ROLLBACK, "rollback", 0,
                          {"to_cycle": cycle}))
        self.emitted += 1

    @property
    def evicted(self) -> int:
        """Events that fell off the ring (the profiler still saw them)."""
        return self.emitted - len(self.ring)

    def events(self) -> list[TraceEvent]:
        """The ring's entries as :class:`TraceEvent` records, oldest first."""
        return [TraceEvent(cycle, _KINDS[kind], name, _REASONS[reason],
                           {"cycles": data} if kind == _STALL and data
                           else data)
                for cycle, kind, name, reason, data in self.ring]

    # -- Chrome trace_event export ---------------------------------------------

    def chrome_trace(self) -> dict:
        """The ring as a Chrome ``trace_event`` JSON document (a dict).

        A stall run is one slice lasting its cycles.  Besides the stage
        slices and instants, three families of counter
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

        for cycle, kind, name, reason, data in self.ring:
            if kind == _FIRE:
                out.append({
                    "name": "active", "ph": "X", "ts": cycle, "dur": 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, name),
                })
            elif kind == _STALL:
                out.append({
                    "name": _STALL_SLICES[reason], "ph": "X",
                    "ts": cycle, "dur": data or 1,
                    "pid": _PID_PIPELINES, "tid": tid(_PID_PIPELINES, name),
                })
            elif kind in (_ENQ, _DEQ):
                out.append({
                    "name": f"queue:{name}", "ph": "C", "ts": cycle,
                    "pid": _PID_QUEUES,
                    "args": {"occupancy": (data or {}).get("occupancy", 0)},
                })
            elif kind in (_PROMISE, _RENDEZVOUS, _RETURN, _SQUASH):
                out.append({
                    "name": _KIND_NAMES[kind], "ph": "i", "s": "t",
                    "ts": cycle,
                    "pid": _PID_RULES, "tid": tid(_PID_RULES, name),
                    "args": dict(data) if data else {},
                })
                if kind in (_PROMISE, _RETURN):
                    out.append({
                        "name": f"lanes:{name}", "ph": "C",
                        "ts": cycle, "pid": _PID_RULES,
                        "args": {
                            "lanes": (data or {}).get("occupancy", 0),
                        },
                    })
            elif kind in (_MEM_ISSUE, _HIT, _MISS, _COMPLETE):
                out.append({
                    "name": _KIND_NAMES[kind], "ph": "i", "s": "t",
                    "ts": cycle,
                    "pid": _PID_MEMORY, "tid": tid(_PID_MEMORY, "channel"),
                    "args": dict(data) if data else {},
                })
                if kind == _MEM_ISSUE:
                    qpi_outstanding += 1
                elif kind == _COMPLETE:
                    qpi_outstanding = max(0, qpi_outstanding - 1)
                if kind in (_MEM_ISSUE, _COMPLETE):
                    out.append({
                        "name": "qpi:outstanding", "ph": "C",
                        "ts": cycle, "pid": _PID_MEMORY,
                        "args": {"outstanding": qpi_outstanding},
                    })
            else:  # CHECKPOINT / ROLLBACK
                out.append({
                    "name": _KIND_NAMES[kind], "ph": "i", "s": "g",
                    "ts": cycle,
                    "pid": _PID_RECOVERY, "tid": tid(_PID_RECOVERY, "recovery"),
                    "args": dict(data) if data else {},
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
