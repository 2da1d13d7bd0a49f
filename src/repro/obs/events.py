"""The sim core's probe and the trace-event taxonomy (docs/observability.md).

Every instrumented site in the simulator emits once, to its
:class:`Probe`, one of :data:`PROBE_KINDS`; the tracer turns those into
:class:`TraceEventKind` records.  Stage stalls carry a
:class:`StallReason` so the profiler can attribute every stalled cycle
to the resource the stage was blocked on.  Trace events are plain
timestamped records, never mutated after they are emitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable


class TraceEventKind(enum.Enum):
    """What happened, at the granularity the schedule analyses need."""

    # Task-queue traffic.
    TOKEN_ENQ = "token-enq"          # a task entered a workset queue
    TOKEN_DEQ = "token-deq"          # a task was popped into a pipeline
    # Pipeline stages.
    STAGE_FIRE = "stage-fire"        # a stage advanced a token this cycle
    STAGE_STALL = "stage-stall"      # a stage held a token (reason attached)
    # Rule engines.
    RULE_PROMISE = "rule-promise"    # a lane was allocated (promise made)
    RULE_RENDEZVOUS = "rule-rendezvous"  # the parent reached its rendezvous
    RULE_RETURN = "rule-return"      # a verdict was consumed, lane freed
    RULE_SQUASH = "rule-squash"      # the verdict squashed the task
    # Memory system.
    MEM_ISSUE = "mem-issue"          # a load/store/stream request was issued
    MEM_HIT = "mem-hit"              # a load hit the FPGA cache
    MEM_MISS = "mem-miss"            # a load crossed the QPI channel
    MEM_COMPLETE = "mem-complete"    # an outstanding request retired
    # Robustness subsystem.
    CHECKPOINT = "checkpoint"        # a snapshot was captured
    ROLLBACK = "rollback"            # execution rolled back to a snapshot


class StallReason(enum.Enum):
    """The resource a stalled stage was blocked on.

    ``QUEUE``        a workset queue was full (Enqueue) or its banks
                     refused pops (Source under a bank-stall fault);
    ``MEMORY``       a load/expand/call station was full of in-flight
                     memory or function-unit requests;
    ``RULE``         no rule-engine lane was free (AllocRule), the
                     rendezvous station was full of unresolved promises,
                     or admission credits — bounded by the lane count —
                     ran out (Source);
    ``BACKPRESSURE`` the downstream FIFO (or epilogue entry) was full.
    """

    QUEUE = "queue"
    MEMORY = "memory"
    RULE = "rule"
    BACKPRESSURE = "backpressure"


# Each reason's column in a profiler row (0 is "active"), kept as a plain
# member attribute: hot handlers read it instead of looking the member up
# in a dict, which runs the Python-level ``Enum.__hash__``.
for _column, _reason in enumerate(StallReason, 1):
    _reason.column = _column


@dataclass
class TraceEvent:
    """One timestamped observation.

    ``name`` identifies the component (stage, queue, engine); ``reason``
    is set only for ``STAGE_STALL``; ``data`` carries small kind-specific
    payloads (occupancy, verdict, address, latency).
    """

    __slots__ = ("cycle", "kind", "name", "reason", "data")

    cycle: int
    kind: TraceEventKind
    name: str
    reason: StallReason | None
    data: dict[str, Any] | None


# Every kind the sim core emits, mapped to its arguments (a generated
# fan-out takes them under these names).  ``cycle`` comes first
# (``probe.now`` where a component has no clock); ``stage`` is a stage
# name, ``uid`` a token uid, ``retired`` the outcome when the token left
# the datapath in this firing (None otherwise).
PROBE_KINDS = {
    # Stage firings: the stage advanced a token this cycle.
    "born": "cycle, stage, uid, handle, task_set, occupancy",  # popped
    "fire": "cycle, stage, uid, retired",  # an in-order stage
    "alloc": "cycle, stage, uid, retired, engine, lanes",  # rule lane
    "fork": "cycle, stage, uid, retired, parent_uid, last",  # expand
    "release": "cycle, stage, uid, retired",  # a load/call station
    "verdict": "cycle, stage, uid, retired, engine, instance, outcome",
    # Other stage activity.
    # A load/expand/call station took a token; the completion cycles of
    # its memory request and function unit (-1 for none).
    "issue": "cycle, stage, uid, mem_done, fu_done",
    "awaited": "cycle, stage, uid, engine",  # a rendezvous admitted
    # ``count`` cycles from ``cycle`` on, each stalled for ``reason``:
    # dense emits one cycle at a time, the event engine a sleeping
    # stage's whole run when it ends.
    "stall": "cycle, stage, reason, count",
    # Tasks, memory, rule lanes, host feed and recovery.
    "activate": "cycle, handle, cause, cause_uid, task_set, occupancy",
    "load": "cycle, addr, nbytes, hit, done_at",
    "store": "cycle, nbytes",
    "stream": "cycle, nbytes, done_at",
    "mem_done": "cycle",  # a tracked request retired
    "lane_free": "cycle, engine, verdict, lanes",
    "host_issue": "cycle, done_at, nbytes",  # a host batch DMA was issued
    "host_inject": "cycle, batch",  # a host batch entered the queues
    "checkpoint": "cycle, count",
    "rollback": "cycle",
}

# The stage firing kinds, and what an ``on_firing`` handler, which
# stands for all of them, takes.
FIRING_KINDS = ("born", "fire", "alloc", "fork", "release", "verdict")
FIRING_ARGS = "cycle, stage"

# (kind, each reader's arguments) -> a factory taking the handlers and
# returning the kind's fan-out over them, compiled once per shape.
_FAN_OUTS: dict[tuple, Callable] = {}


def _fan_out(kind: str, readers: tuple):
    """A function with ``kind``'s arguments calling each reader's
    handler in turn with that reader's arguments; ``readers`` is a
    tuple of (handler, arguments)."""
    shape = (kind, tuple(args for _, args in readers))
    make = _FAN_OUTS.get(shape)
    if make is None:
        names = [f"h{i}" for i in range(len(readers))]
        calls = "".join(f"        {name}({args})\n"
                        for name, (_, args) in zip(names, readers))
        source = (f"def make({', '.join(names)}):\n"
                  f"    def {kind}({PROBE_KINDS[kind]}):\n{calls}"
                  f"    return {kind}\n")
        # This module's __name__ lets the host-time layer sampler, which
        # maps a frame by its globals' __name__, charge fan-outs to obs.
        namespace = {"__name__": __name__}
        exec(compile(source, "<probe fan-out>", "exec"), namespace)
        make = _FAN_OUTS[shape] = namespace["make"]
    return make(*(handler for handler, _ in readers))


def _reader(consumer, kind: str):
    """``consumer``'s handler for ``kind`` and the arguments it takes
    (an exact ``on_<kind>`` wins over ``on_firing``), or None."""
    if hasattr(consumer, "on_" + kind):
        return getattr(consumer, "on_" + kind), PROBE_KINDS[kind]
    if kind in FIRING_KINDS and hasattr(consumer, "on_firing"):
        return consumer.on_firing, FIRING_ARGS
    return None


def _ignore(*args) -> None:
    """A kind no consumer reads."""


class Probe:
    """The sim core's one instrumentation stream (see :data:`PROBE_KINDS`).

    Every instrumented site makes one call, ``probe.<kind>(...)``; a
    consumer reads a kind by defining ``on_<kind>``, or every firing
    kind by defining ``on_firing(cycle, stage)``.  Each kind is bound
    once, at attach time, to its one reader's method, a generated
    fan-out calling each reader's method directly with the arguments it
    takes, or a no-op.  A simulator holds ``probe = None`` when nothing
    observes, so an unobserved site costs one identity test.

    A fan-out holds its readers' methods in a closure, and a deep copy
    shares function objects rather than copying them, so a copied probe
    would feed the original consumers.  Copying (a checkpoint snapshot,
    a revive, a pickle) therefore rebuilds the probe from its copied
    consumers instead.
    """

    def __init__(self, consumers: list) -> None:
        self.consumers = consumers
        self.now = 0  # the cycle being executed, refreshed every step
        for kind, args in PROBE_KINDS.items():
            readers = [r for r in (_reader(c, kind) for c in consumers)
                       if r is not None]
            if not readers:
                setattr(self, kind, _ignore)
            elif len(readers) == 1 and readers[0][1] == args:
                setattr(self, kind, readers[0][0])
            else:
                setattr(self, kind, _fan_out(kind, readers))

    def __reduce__(self):
        return Probe, (self.consumers,), {"now": self.now}
