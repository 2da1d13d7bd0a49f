"""The sim core's probe and the trace-event taxonomy (docs/observability.md).

Every instrumented site in the simulator emits once, to its
:class:`Probe`, one of :data:`PROBE_KINDS`; the ring turns those into
:class:`TraceEventKind` records.  Stage stalls carry a :class:`StallReason`
so the profiler can attribute every stalled cycle to the resource the
stage was blocked on.  Trace events are plain timestamped records, never
mutated after they are emitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Any


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

    def __deepcopy__(self, memo):
        # Events are immutable once emitted; sharing them keeps checkpoint
        # snapshots of a large trace ring cheap.
        return self


# Every kind the sim core emits, with its arguments.  ``cycle`` comes
# first (``probe.now`` where a component has no clock); ``stage`` is a
# stage name, ``uid`` a token uid, ``retired`` the outcome when the token
# left the datapath in this firing (None otherwise).
PROBE_KINDS = (
    # Stage firings: the stage advanced a token this cycle.
    "born",     # (cycle, stage, uid, handle, task_set, occupancy)  popped
    "fire",     # (cycle, stage, uid, retired)  an in-order stage
    "alloc",    # (cycle, stage, uid, retired, engine, lanes)  rule lane
    "fork",     # (cycle, stage, uid, retired, parent_uid, last)  expand
    "release",  # (cycle, stage, uid, retired)  a load/call station
    "verdict",  # (cycle, stage, uid, retired, engine, instance, outcome)
    # Other stage activity.
    "issue",    # (cycle, stage, uid, req, fu_done)  load/expand/call
    "awaited",  # (cycle, stage, uid, engine)  a rendezvous admitted
    "stall",    # (cycle, stage, reason)
    "skip",     # (cycle, count, stalls)  the event engine skipped cycles
    # Tasks, memory, rule lanes, host feed and recovery.
    "activate",     # (cycle, handle, cause, cause_uid, task_set, occupancy)
    "load",         # (cycle, addr, nbytes, hit, done_at, req)
    "store",        # (cycle, nbytes)
    "stream",       # (cycle, nbytes, done_at, req)
    "mem_done",     # (cycle,)  a tracked request retired
    "lane_free",    # (cycle, engine, verdict, lanes)
    "host_issue",   # (cycle, req, nbytes)  a host batch DMA was issued
    "host_inject",  # (cycle, batch)  a host batch entered the queues
    "checkpoint",   # (cycle, count)
    "rollback",     # (cycle,)
)


def _fan_out(handlers: tuple, *args) -> None:
    for handler in handlers:
        handler(*args)


def _ignore(*args) -> None:
    """A kind no consumer reads."""


class Probe:
    """The sim core's one instrumentation stream (see :data:`PROBE_KINDS`).

    Every instrumented site makes one call, ``probe.<kind>(...)``; a
    consumer reads a kind by defining ``on_<kind>``.  Each kind is bound
    once, at attach time, to its one reader's method, a fan-out over
    several readers, or a no-op.  A simulator holds ``probe = None``
    when nothing observes, so an unobserved site costs one identity test.
    """

    def __init__(self, consumers: list) -> None:
        self.now = 0  # the cycle being executed, refreshed every step
        for kind in PROBE_KINDS:
            handlers = tuple(getattr(c, "on_" + kind) for c in consumers
                             if hasattr(c, "on_" + kind))
            setattr(self, kind, partial(_fan_out, handlers)
                    if len(handlers) > 1 else
                    handlers[0] if handlers else _ignore)
