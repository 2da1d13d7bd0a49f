"""Critical-path extraction and what-if projection over a TokenLedger.

The extractor walks the per-token provenance record backwards from the
last-retiring token: within a token it attributes every inter-event span
to a stall bucket; at causal edges it jumps — to the parent that
enqueued the task, to the Expand parent that forked it, to the token
whose event decided a binding rule rendezvous, or down the host batch
launch chain.  The result is one contiguous chain of segments covering
``[0, total_cycles]`` exactly: the measured critical path, decomposed
into the same vocabulary as the stall profiler —

==============  ============================================================
bucket          the path was bounded by
==============  ============================================================
compute         a stage or function unit doing one token's work per cycle
queue           workset occupancy: waiting for a pop grant or queue room
memory          a cache miss, an operand/row stream, or a full station
rule            a pending rendezvous promise, lane allocation, or verdict
                propagation over the event bus
backpressure    a decided/completed token blocked by a full downstream FIFO
host            the host-side launch chain (batch DMA + turnaround)
speculation     doomed work (later squashed or guard-dropped) holding the
                pipeline slots the path was waiting for
==============  ============================================================

``speculation`` is the bucket the stage profiler cannot see: a stage
does not know a token is doomed, but the ledger — holding every token's
eventual verdict — does.  Pop-port and FIFO waits with no single causal
owner are *folded* onto the waits concurrently in flight.  In that fold
a doomed token's residency counts as speculation only while the QPI
channel is unsaturated: wasted work binds the run when the resource it
wastes has headroom; on a saturated channel the same miss cycles are
memory-bound whether or not the load was doomed, so doomed tokens add no
extra weight and their waits fold to their resource.  This module is the
only home of the folding and of that waste gate: ``repro diagnose``
(:mod:`repro.obs.diagnose`) reads its findings off the buckets they
produce.

What-if projections re-weight the extracted path instead of re-running
the simulator: shrinking a bucket's edge weights can only shorten the
path (some *other* chain then becomes critical), so
``total / (total - saved)`` is an upper bound on the speedup the edit
can achieve — validated against actual re-simulation in the tests.
Projections are bounds, not predictions: they ignore second-order
contention shifts (a faster channel drains queues sooner, etc.).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any

from repro.sim.ledger import (
    BORN,
    FIRE,
    FORK,
    ISSUE,
    READY,
    RELEASE,
    RETIRE,
    TokenLedger,
)

BUCKETS = ("compute", "queue", "memory", "rule", "backpressure", "host",
           "speculation")

# Above this channel saturation, doomed tokens' resource waits fold to
# the resource rather than to speculation: waste only binds when the
# channel it burns is not the bottleneck.
_WASTE_BINDS_BELOW = 0.5

# Deterministic carve order for folded gap segments (and the remainder
# tie-break); the emitted chain must be byte-identical across engines.
_FOLD_ORDER = ("speculation", "memory", "rule", "compute")

# How long a token nominally spends reaching the next stage when nothing
# blocks it: one cycle (push at c, FIFO commit, pop at c+1).  The first
# cycle of a fire/issue span is pipeline-depth compute; any excess is a
# stall attributed by the stage's kind.
_NOMINAL_HOP = 1

_READY_BUCKETS = {
    "mem_hit": "memory",
    "mem_miss": "memory",
    "mem_stream": "memory",
    "fu": "compute",
    "clause": "rule",
    "requires": "rule",
    "otherwise": "rule",
}

_STALL_BUCKETS = {
    "alloc_rule": "rule",
    "rendezvous": "rule",
    "enqueue": "queue",
    "load": "memory",
    "expand": "memory",
    "call": "memory",
}


@dataclass(slots=True)
class Segment:
    """One span of the critical path."""

    start: int
    end: int
    bucket: str
    token: int
    detail: str

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start, "end": self.end, "cycles": self.cycles,
            "bucket": self.bucket, "token": self.token,
            "detail": self.detail,
        }


def _stage_kind(stage: str) -> str:
    return stage.rsplit(".", 1)[-1]


class _Cumulative:
    """Piecewise-linear cumulative weight over cycles.

    ``add(a, b, w)`` raises the slope by ``w`` on ``[a, b)``; after
    ``freeze`` the curve answers ``weight_over(a, b)`` — the
    multiplicity-weighted cycles the tracked intervals spend inside a
    window — in O(log n).  All integer arithmetic, so fold shares are
    exactly reproducible.
    """

    __slots__ = ("_deltas", "_xs", "_cum", "_slope")

    def __init__(self) -> None:
        self._deltas: dict[int, int] = {}

    def add(self, start: int, end: int, weight: int = 1) -> None:
        if end <= start:
            return
        self._deltas[start] = self._deltas.get(start, 0) + weight
        self._deltas[end] = self._deltas.get(end, 0) - weight

    def freeze(self) -> None:
        self._xs = sorted(self._deltas)
        self._cum: list[int] = []
        self._slope: list[int] = []
        cum = slope = 0
        previous = None
        for x in self._xs:
            if previous is not None:
                cum += slope * (x - previous)
            self._cum.append(cum)
            slope += self._deltas[x]
            self._slope.append(slope)
            previous = x

    def _at(self, x: int) -> int:
        index = bisect.bisect_right(self._xs, x) - 1
        if index < 0:
            return 0
        return self._cum[index] + self._slope[index] * (x - self._xs[index])

    def weight_over(self, start: int, end: int) -> int:
        return self._at(end) - self._at(start)


class _Walker:
    """Backward walk state: emits segments in reverse time order."""

    def __init__(self, ledger: TokenLedger, total_cycles: int,
                 saturation: float = 0.0) -> None:
        self.ledger = ledger
        self.total = total_cycles
        self.segments: list[Segment] = []
        self.visited: set[tuple[int, int]] = set()
        # Per-source birth order (chronological): token n's queue wait
        # ends when the pop port grants it, and what delayed the grant is
        # the in-flight history of the token granted just before it.
        self.births: dict[str, list[tuple[int, int]]] = {}
        for uid, events in ledger.tokens.items():
            first = events[0]
            if first[0] == BORN and len(first) > 5:
                self.births.setdefault(first[5], []).append((first[1], uid))
        for grants in self.births.values():
            grants.sort()
        # Concurrent-wait mix for root-cause folding (module docstring):
        # while the channel has headroom a doomed token's whole residency
        # weighs as speculation; on a saturated channel doomed tokens add
        # nothing extra and their waits weigh as their resource.
        waste_binds = saturation < _WASTE_BINDS_BELOW
        self.mix = {bucket: _Cumulative() for bucket in _FOLD_ORDER}
        for uid, events in ledger.tokens.items():
            last = events[-1]
            doomed = (waste_binds and last[0] == RETIRE
                      and last[2] in ("squash", "drop"))
            if doomed:
                # The presence span covers the waits too; skip them below.
                self.mix["speculation"].add(events[0][1], last[1])
            pending = None
            for event in events:
                if event[0] == ISSUE:
                    pending = event[1]
                elif event[0] == READY and pending is not None:
                    if not doomed:
                        bucket = _READY_BUCKETS.get(event[4], "memory")
                        self.mix[bucket].add(pending, event[1])
                    pending = None
        for curve in self.mix.values():
            curve.freeze()

    def emit(self, start: int, end: int, bucket: str, token: int,
             detail: str) -> None:
        if end > start:
            self.segments.append(Segment(start, end, bucket, token, detail))

    def _fold(self, start: int, end: int, token: int, detail: str) -> None:
        """Attribute an owner-less wait by the concurrent wait mix.

        Carves ``[start, end)`` into per-bucket chunks proportional to
        the weighted cycles each bucket's waits spent inside the window
        (largest-remainder rounding, so the chunks sum exactly).  With
        nothing in flight the window stays plain backpressure.
        """
        gap = end - start
        if gap <= 0:
            return
        weights = {
            bucket: max(0, curve.weight_over(start, end))
            for bucket, curve in self.mix.items()
        }
        total = sum(weights.values())
        if total == 0:
            self.emit(start, end, "backpressure", token, detail)
            return
        shares = {b: weights[b] * gap // total for b in _FOLD_ORDER}
        leftover = gap - sum(shares.values())
        for bucket in sorted(
            _FOLD_ORDER,
            key=lambda b: (-(weights[b] * gap % total),
                           _FOLD_ORDER.index(b)),
        ):
            if leftover <= 0:
                break
            shares[bucket] += 1
            leftover -= 1
        # Reverse time order: the walker emits later spans first.
        edge = end
        for bucket in reversed(_FOLD_ORDER):
            chunk = shares[bucket]
            if chunk:
                self.emit(edge - chunk, edge, bucket, token,
                          f"{detail}:folded")
                edge -= chunk

    def _jump(self, uid: int, at: int) -> tuple[int, int] | None:
        """Locate the latest event of ``uid`` at or before cycle ``at``.

        Returns (index, cycle), or None when the target is unusable (not
        in the ledger, already visited, or strictly later than ``at`` —
        which would make the walk go forward in time).
        """
        events = self.ledger.tokens.get(uid)
        if not events:
            return None
        index = len(events) - 1
        while index >= 0 and events[index][1] > at:
            index -= 1
        if index < 0 or (uid, index) in self.visited:
            return None
        return index, events[index][1]

    def _gap_bucket(self, uid: int, index: int, default: str) -> str:
        """Bucket for the gap left when jumping into a token mid-flight.

        The gap falls inside the span the token's *next* event would
        attribute (a load wait, a stalled hop, ...), so classify by that
        event rather than by the kind of jump.
        """
        events = self.ledger.tokens[uid]
        if index + 1 >= len(events):
            return default
        event = events[index + 1]
        kind = event[0]
        if kind == READY:
            return _READY_BUCKETS.get(event[4], "memory")
        if kind in (FIRE, ISSUE):
            # A gap ahead of a plain stage hop means the token was
            # streaming through the pipeline: throughput, i.e. compute.
            return _STALL_BUCKETS.get(_stage_kind(event[2]), "compute")
        return "backpressure"  # release / retire: blocked on the way out

    def _predecessor(
        self, source: str, act_cycle: int, born_cycle: int
    ) -> tuple[int, int, int] | None:
        """The token granted by ``source`` just before ``born_cycle``.

        Only grants made while this token was already queued count — an
        earlier grant finished before we arrived and explains nothing.
        Returns (uid, event_index, event_cycle) positioned at or before
        ``born_cycle``, or None.
        """
        grants = self.births.get(source)
        if not grants:
            return None
        position = bisect.bisect_left(grants, (born_cycle, -1)) - 1
        if position < 0:
            return None
        grant_cycle, pred_uid = grants[position]
        if grant_cycle < act_cycle:
            return None
        target = self._jump(pred_uid, born_cycle)
        if target is None:
            return None
        return pred_uid, target[0], target[1]

    def _host_chain(self, ordinal: int, t: int) -> None:
        """Walk the host launch chain backwards from batch ``ordinal``.

        Batch k's injection waits on its DMA completion and queue room;
        its DMA issue follows batch k-1's injection (the feed is
        sequential).  The chain bottoms out at batch 0, issued at t=0.
        """
        batches = self.ledger.host_batches
        k = ordinal
        while 0 <= k < len(batches):
            issue, done, _injected, _nbytes = batches[k]
            done = min(done, t)
            self.emit(done, t, "queue", -1, f"host-batch[{k}]:room")
            self.emit(issue, done, "host", -1, f"host-batch[{k}]:dma")
            t = issue
            if k == 0:
                break
            prev_injected = batches[k - 1][2]
            if 0 <= prev_injected <= t:
                self.emit(prev_injected, t, "host", -1,
                          f"host-batch[{k}]:turnaround")
                t = prev_injected
                # Continue from the moment batch k-1 entered the queues:
                # what bounded *that* is batch k-1's own DMA, so loop.
            k -= 1
        if t > 0:
            self.emit(0, t, "host", -1, "host-origin")

    def _fire_span(self, prev: int, c: int, stage: str, uid: int) -> None:
        """A fire/issue hop: one nominal compute cycle + attributed excess."""
        if c <= prev:
            return
        hop_end = min(prev + _NOMINAL_HOP, c)
        # Reverse time order: the walker emits later spans first.
        if c > hop_end:
            bucket = _STALL_BUCKETS.get(_stage_kind(stage))
            if bucket is not None:
                self.emit(hop_end, c, bucket, uid, f"{stage}:wait")
            else:
                # A plain stage took extra cycles to accept the token:
                # a FIFO wait with no single owner, so fold it.
                self._fold(hop_end, c, uid, f"{stage}:wait")
        self.emit(prev, hop_end, "compute", uid, stage)

    def walk(self) -> None:
        ledger = self.ledger
        if ledger.final is None:
            # Nothing ever retired: the whole run is host/launch time.
            self.emit(0, self.total, "host", -1, "no-retirement")
            return
        final_cycle, uid = ledger.final
        self.emit(final_cycle, self.total, "compute", uid, "drain")
        events = ledger.tokens[uid]
        index = len(events) - 1
        while True:
            self.visited.add((uid, index))
            event = events[index]
            kind, cycle = event[0], event[1]

            if kind == BORN:
                act_cycle, cause, cause_uid = event[2], event[3], event[4]
                source = event[5] if len(event) > 5 else ""
                # While this token sat queued, the pop port was granting
                # (or failing to grant) other tokens: the wait was bound
                # by the predecessor grant's in-flight work, so the path
                # continues through it rather than flattening the whole
                # backlog into "queue".
                predecessor = self._predecessor(source, act_cycle, cycle)
                if predecessor is not None:
                    pred_uid, pred_index, pred_cycle = predecessor
                    self._fold(pred_cycle, cycle, pred_uid,
                               f"{source}:pop-contention")
                    uid = pred_uid
                    events = ledger.tokens[uid]
                    index = pred_index
                    continue
                self.emit(act_cycle, cycle, "queue", uid, "queue-wait")
                if cause == "task":
                    target = self._jump(cause_uid, act_cycle)
                    if target is not None:
                        index, target_cycle = target
                        self.emit(
                            target_cycle, act_cycle,
                            self._gap_bucket(cause_uid, index, "queue"),
                            cause_uid, "activation",
                        )
                        uid = cause_uid
                        events = ledger.tokens[uid]
                        continue
                elif cause == "host":
                    self._host_chain(cause_uid, act_cycle)
                    return
                # Seed (or unresolvable parent): tasks activated before
                # the first cycle; anything left is launch time.
                self.emit(0, act_cycle, "host", uid, "origin")
                return

            if kind == FORK:
                parent_uid = event[2]
                target = self._jump(parent_uid, cycle)
                if target is not None:
                    index, target_cycle = target
                    self.emit(target_cycle, cycle, "compute", uid,
                              "fork-emission")
                    uid = parent_uid
                    events = ledger.tokens[uid]
                    continue
                self.emit(0, cycle, "compute", uid, "origin")
                return

            prev_cycle = events[index - 1][1]
            if kind == READY:
                stage, cause_uid, ready_kind = event[2], event[3], event[4]
                if (
                    ready_kind in ("clause", "requires")
                    and cause_uid >= 0
                    and cycle > prev_cycle
                ):
                    # A binding rendezvous wait: the promise resolved
                    # when another token's event arrived, so the path
                    # continues through the decider, not this token's
                    # earlier history.
                    target = self._jump(cause_uid, cycle)
                    if target is not None:
                        index, target_cycle = target
                        self.emit(target_cycle, cycle, "rule", uid,
                                  f"{stage}:verdict")
                        uid = cause_uid
                        events = ledger.tokens[uid]
                        continue
                bucket = _READY_BUCKETS.get(ready_kind, "memory")
                self.emit(prev_cycle, cycle, bucket, uid,
                          f"{stage}:{ready_kind}")
            elif kind in (FIRE, ISSUE):
                self._fire_span(prev_cycle, cycle, event[2], uid)
            elif kind == RELEASE:
                # Resource ready but the station exit was blocked by the
                # downstream FIFO: fold onto whoever was clogging it.
                self._fold(prev_cycle, cycle, uid, f"{event[2]}:release")
            else:  # retire
                self.emit(prev_cycle, cycle, "backpressure", uid, "retire")
            index -= 1


def extract_critical_path(
    ledger: TokenLedger,
    total_cycles: int,
    *,
    rule_lanes: int = 32,
    top_segments: int = 12,
    saturation: float = 0.0,
) -> dict[str, Any]:
    """Walk the ledger backwards; return the decomposed critical path.

    The returned dict's ``buckets`` sum exactly to ``total_cycles`` (a
    tested invariant) and ``segments`` carries the top spans by length.
    The full contiguous chain is under ``"chain"`` in time order, for the
    Chrome-trace flow export.  ``saturation`` is the run's sustained
    QPI-channel load (``bytes/cycle / capacity``); it gates whether
    doomed tokens' resource waits fold to ``speculation`` or to the
    resource (module docstring) and is engine-invariant, so passing the
    value from the run's :class:`SimResult` keeps the extraction
    byte-identical across engines.
    """
    walker = _Walker(ledger, total_cycles, saturation)
    walker.walk()
    chain = list(reversed(walker.segments))

    covered = sum(s.cycles for s in chain)
    if covered != total_cycles:
        raise AssertionError(
            f"critical path covers {covered} of {total_cycles} cycles"
        )
    for earlier, later in zip(chain, chain[1:]):
        if earlier.end != later.start:
            raise AssertionError(
                f"critical path discontinuity at cycle {earlier.end} "
                f"-> {later.start}"
            )

    buckets = {bucket: 0 for bucket in BUCKETS}
    for segment in chain:
        buckets[segment.bucket] += segment.cycles
    dominant = max(BUCKETS, key=lambda b: buckets[b])

    top = sorted(chain, key=lambda s: (-s.cycles, s.start))[:top_segments]

    def bound(saved: int) -> dict[str, Any]:
        saved = max(0, min(saved, total_cycles - 1))
        projected = total_cycles - saved
        return {
            "saved_cycles": saved,
            "projected_cycles": projected,
            "speedup_bound": round(total_cycles / projected, 4),
        }

    what_if = {
        # Halving the QPI round-trip latency can at most halve every
        # memory wait on the path (bandwidth queueing is untouched).
        "qpi_latency_x0.5": bound(buckets["memory"] // 2),
        # One extra lane can shave at most 1/(lanes+1) of the rule waits
        # (allocation and rendezvous both scale with lane pressure).
        "rule_lanes_plus1": bound(buckets["rule"] // (rule_lanes + 1)),
        # A zero-overhead host interface deletes the launch chain.
        "zero_launch_overhead": bound(buckets["host"]),
        # An oracle that never issues doomed work frees every pipeline
        # slot speculation held on the path.
        "perfect_speculation": bound(buckets["speculation"]),
    }

    return {
        "total_cycles": total_cycles,
        "buckets": buckets,
        "dominant": dominant,
        "path_tokens": len({s.token for s in chain if s.token >= 0}),
        "path_segments": len(chain),
        "segments": [s.to_dict() for s in top],
        "wasted_speculation": ledger.wasted_speculation(),
        "what_if": what_if,
        "chain": chain,
    }


def summary_block(critpath: dict[str, Any]) -> dict[str, Any]:
    """The JSON-able subset stored in a RunRecord (drops the raw chain)."""
    return {key: value for key, value in critpath.items() if key != "chain"}


def result_saturation(result, platform) -> float:
    """A run's sustained QPI load: ``bytes/cycle / channel capacity``.

    Engine-invariant (``SimResult.memory_bytes`` and ``cycles`` are
    identical across dense and event), so feeding it to
    :func:`extract_critical_path` keeps the chain byte-identical too.
    """
    capacity = getattr(platform, "qpi_bytes_per_cycle", 0.0)
    if not capacity or not result.cycles:
        return 0.0
    return result.memory_bytes / result.cycles / capacity


# -- rendering ----------------------------------------------------------------


def format_critpath(critpath: dict[str, Any], app: str = "") -> str:
    """Text table for the CLI."""
    total = critpath["total_cycles"]
    lines = []
    title = f"Critical path — {app}" if app else "Critical path"
    lines.append(f"{title}: {total} cycles, "
                 f"{critpath['path_tokens']} tokens, "
                 f"{critpath['path_segments']} segments "
                 f"(dominant: {critpath['dominant']})")
    lines.append("")
    lines.append(f"  {'bucket':<14}{'cycles':>10}{'share':>9}")
    for bucket in BUCKETS:
        cycles = critpath["buckets"][bucket]
        share = cycles / total if total else 0.0
        lines.append(f"  {bucket:<14}{cycles:>10}{share:>8.1%}")
    lines.append(f"  {'total':<14}{total:>10}{1:>8.0%}")
    waste = critpath["wasted_speculation"]
    lines.append("")
    lines.append(f"  wasted speculation: {waste['tokens']} tokens, "
                 f"{waste['cycles']} token-cycles off the path")
    lines.append("")
    lines.append("  Longest segments:")
    lines.append(f"  {'cycles':>8}  {'span':<17}{'bucket':<14}detail")
    for segment in critpath["segments"]:
        span = f"[{segment['start']}, {segment['end']})"
        lines.append(f"  {segment['cycles']:>8}  {span:<17}"
                     f"{segment['bucket']:<14}{segment['detail']}")
    lines.append("")
    lines.append("  What-if projections (upper bounds):")
    for name, proj in critpath["what_if"].items():
        lines.append(
            f"    {name:<22}saves <= {proj['saved_cycles']} cycles "
            f"-> >= {proj['projected_cycles']} cycles "
            f"(speedup <= {proj['speedup_bound']:.3f}x)"
        )
    return "\n".join(lines)


# Perfetto renders pid 6 below the existing tracks (pipelines=1 ..
# checkpoint-rollback=5 in obs/tracer.py).
_CRITPATH_PID = 6


def critpath_trace_events(critpath: dict[str, Any]) -> list[dict[str, Any]]:
    """Chrome trace_event rows: the path as slices chained by flow arrows.

    Appended to an EventTracer's ``chrome_trace()`` document, these draw
    the critical path as its own track with Perfetto arrows hopping
    segment-to-segment (and token-to-token).
    """
    chain = critpath.get("chain")
    if chain is None:
        raise ValueError("critpath dict lacks 'chain'; pass the "
                         "extract_critical_path result directly")
    rows: list[dict[str, Any]] = [
        {"ph": "M", "pid": _CRITPATH_PID, "name": "process_name",
         "args": {"name": "critical path"}},
        {"ph": "M", "pid": _CRITPATH_PID, "tid": 0, "name": "thread_name",
         "args": {"name": "measured chain"}},
    ]
    flow_id = 1
    previous = None
    for segment in chain:
        token = ("host" if segment.token < 0
                 else f"token {segment.token}")
        rows.append({
            "ph": "X", "pid": _CRITPATH_PID, "tid": 0,
            "ts": segment.start, "dur": max(segment.cycles, 1),
            "name": f"{segment.bucket}: {segment.detail}",
            "cat": segment.bucket,
            "args": {"token": token, "cycles": segment.cycles},
        })
        if previous is not None and previous.token != segment.token:
            # A causal hop between tokens: draw the arrow.
            rows.append({
                "ph": "s", "pid": _CRITPATH_PID, "tid": 0,
                "ts": max(previous.end - 1, previous.start),
                "id": flow_id, "name": "critical-path",
                "cat": "critpath-flow",
            })
            rows.append({
                "ph": "f", "pid": _CRITPATH_PID, "tid": 0,
                "ts": segment.start, "id": flow_id,
                "name": "critical-path", "cat": "critpath-flow",
                "bp": "e",
            })
            flow_id += 1
        previous = segment
    return rows
