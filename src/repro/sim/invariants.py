"""Runtime invariant checking (a sanitizer for the accelerator simulator).

The simulator's correctness rests on structural invariants that a real
dataflow runtime must *keep* checking, not merely assume: the minimum
waiting task can always make progress (liveness), every live-index
registration is balanced by exactly the references held in queues and
pipelines (conservation), admission credits never leak, no rule-engine
lane outlives the token that allocated it, and the broadcast minimum only
moves forward in the well-order (monotonicity).

:class:`InvariantChecker` verifies all of them every ``interval`` cycles
and again at drain, raising a cycle-stamped
:class:`~repro.errors.InvariantViolation` far earlier than the 200k-cycle
deadlock window would fire.  The walk touches every in-flight token, so
the default interval keeps the overhead well under 5% of wall clock.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import InvariantViolation
from repro.sim.events import NEVER
from repro.obs.events import StallReason
from repro.sim.pipeline import SourceStage
from repro.sim.stages import (
    HELD_WORK,
    AllocRuleStage,
    CallStage,
    EnqueueStage,
    ExpandStage,
    LoadStage,
    RendezvousStage,
    SwitchStage,
)
from repro.sim.token import SimToken

DEFAULT_CHECK_INTERVAL = 2048


@dataclass(frozen=True)
class Violation:
    """One failed invariant, for the diagnostic report."""

    invariant: str
    component: str
    detail: str

    def format(self) -> str:
        return f"[{self.invariant}] {self.component}: {self.detail}"


class InvariantChecker:
    """Periodic sanitizer over one :class:`AcceleratorSim` instance."""

    def __init__(self, sim, interval: int = DEFAULT_CHECK_INTERVAL) -> None:
        self.sim = sim
        self.interval = max(1, interval)
        self.checks = 0
        self._last_minimum: tuple | None = None

    # -- token walk -----------------------------------------------------------

    def walk_tokens(self):
        """Yield ``(token, live_refs_held)`` for every in-flight token.

        An Expand in-flight entry holds one live reference per not-yet
        emitted child (the parent registered ``len(items)`` references and
        each emitted child carries one away).
        """
        for pipeline in self.sim.pipelines:
            for stage in pipeline.stages:
                for token in stage.input.drain():
                    yield token, 1
                if isinstance(stage, LoadStage):
                    for token, _done, _element in stage.station:
                        yield token, 1
                elif isinstance(stage, RendezvousStage):
                    for token in stage.station:
                        yield token, 1
                elif isinstance(stage, CallStage):
                    for token, _done, _stream in stage.in_flight:
                        yield token, 1
                elif isinstance(stage, ExpandStage):
                    for token, items, emitted, _stream in stage._inflight:
                        yield token, len(items) - emitted

    # -- the check ------------------------------------------------------------

    def maybe_check(self) -> None:
        """Run the sanitizer when the check interval elapses."""
        if self.sim.cycle > 0 and self.sim.cycle % self.interval == 0:
            self.check()

    def next_check_cycle(self, now: int) -> int:
        """Next sanitizer boundary — an event-engine wake-up, so checks
        (and ``stats.invariant_checks``) match a dense run exactly."""
        return ((now // self.interval) + 1) * self.interval

    def check(self, at_drain: bool = False) -> None:
        """Verify every invariant; raise :class:`InvariantViolation`."""
        self.checks += 1
        self.sim.stats.invariant_checks += 1
        violations: list[Violation] = []
        tokens = list(self.walk_tokens())
        self._check_live_handles(tokens, violations)
        self._check_admission_credits(tokens, violations)
        self._check_rule_lanes(tokens, violations)
        self._check_queues(violations)
        self._check_kept_counters(tokens, violations)
        self._check_sleepers(violations)
        self._check_minimum_monotone(violations)
        if at_drain:
            self._check_drained(violations)
        else:
            self._check_liveness(violations)
        if violations:
            first = violations[0]
            report = "; ".join(v.format() for v in violations[:6])
            raise InvariantViolation(
                self.sim.cycle, first.invariant, first.component, report
            )

    # -- individual invariants -------------------------------------------------

    def _check_live_handles(
        self, tokens: list[tuple[SimToken, int]],
        violations: list[Violation],
    ) -> None:
        """Conservation: tracker refcounts == references actually held."""
        held: Counter = Counter()
        for token, refs in tokens:
            if token.live_handle >= 0 and refs:
                held[token.live_handle] += refs
        for queue in self.sim.queues.values():
            for _index, _fields, handle in queue.entries():
                held[handle] += 1
        tracked = self.sim.tracker.snapshot()
        for handle, (index, refs) in tracked.items():
            if held.get(handle, 0) != refs:
                violations.append(Violation(
                    "live-handle-conservation", "LiveIndexTracker",
                    f"handle {handle} (index {index.positions}) has "
                    f"{refs} registered refs but {held.get(handle, 0)} "
                    f"held by queues/pipelines",
                ))
        for handle, refs in held.items():
            if handle not in tracked:
                violations.append(Violation(
                    "live-handle-conservation", "LiveIndexTracker",
                    f"{refs} dangling reference(s) to released handle "
                    f"{handle}",
                ))

    def _check_admission_credits(
        self, tokens: list[tuple[SimToken, int]],
        violations: list[Violation],
    ) -> None:
        """Credits + in-flight root tokens == rule_lanes, per task set."""
        credits = self.sim.admission_credits
        if credits is None:
            return
        lanes = self.sim.config.rule_lanes
        roots: Counter = Counter()
        for token, _refs in tokens:
            if token.uid == token.task_uid:
                roots[token.task_set] += 1
        for task_set, value in credits.items():
            if not 0 <= value <= lanes:
                violations.append(Violation(
                    "credit-bounds", f"queue {task_set!r}",
                    f"admission credits {value} outside [0, {lanes}]",
                ))
                continue
            total = value + roots.get(task_set, 0)
            if total != lanes:
                violations.append(Violation(
                    "credit-conservation", f"queue {task_set!r}",
                    f"credits {value} + in-flight roots "
                    f"{roots.get(task_set, 0)} != rule_lanes {lanes}",
                ))

    def _check_rule_lanes(
        self, tokens: list[tuple[SimToken, int]],
        violations: list[Violation],
    ) -> None:
        """A lane is the rule instance its token holds: every lane an
        engine lists is held by some in-flight token, and the engine's
        kept orders hold exactly its tokens' lanes."""
        held: dict[str, list] = {name: [] for name in self.sim.engines}
        for token, _refs in tokens:
            for engine, instance in token.lanes:
                held[engine.name].append(instance)
        for name, engine in self.sim.engines.items():
            lanes = held[name]
            referenced = {id(instance) for instance in lanes}
            for _positions, _seq, instance in engine._order:
                if id(instance) not in referenced:
                    violations.append(Violation(
                        "lane-conservation", f"engine {name!r}",
                        f"lane for parent {instance.parent_index} "
                        f"(owner uid {instance.owner_uid}) is referenced "
                        f"by no in-flight token",
                    ))
            self._check_lane_order(name, engine, lanes, violations)

    def _check_queues(self, violations: list[Violation]) -> None:
        for queue in self.sim.queues.values():
            occupancy = queue.bank_occupancy()
            for slot, depth in enumerate(occupancy):
                if depth > queue.depth_per_bank:
                    violations.append(Violation(
                        "queue-occupancy", f"queue {queue.task_set!r}",
                        f"bank {slot} holds {depth} > depth "
                        f"{queue.depth_per_bank}",
                    ))
            if queue.pop_policy == "priority":
                heap_total = sum(len(h) for h in queue._heaps)
                if heap_total != sum(occupancy):
                    violations.append(Violation(
                        "queue-occupancy", f"queue {queue.task_set!r}",
                        f"priority heaps hold {heap_total} entries but "
                        f"banks mark {sum(occupancy)}",
                    ))

    def _check_kept_counters(
        self, tokens: list[tuple[SimToken, int]],
        violations: list[Violation],
    ) -> None:
        """Hot-path bookkeeping agrees with the state it summarizes.

        Queue sizes, the live-token count, FIFO free counts (firing
        sites push without a full check), load-station earliest
        completions and the memory system's outstanding count and
        horizon are updated where the state changes so the per-cycle
        code never scans; here each is recomputed by the scan it saves
        (the rule engines' lane orders are checked with the lanes).
        """
        sim = self.sim
        for fifo in sim._fifos:
            held = len(fifo._items) + len(fifo._staged)
            if held > fifo.capacity or fifo.free != fifo.capacity - held:
                violations.append(Violation(
                    "fifo-capacity", f"fifo {fifo.name!r}",
                    f"holds {held} of {fifo.capacity} entries with a "
                    f"kept free count of {fifo.free}",
                ))
        busy = any(pipeline.busy() for pipeline in sim.pipelines)
        if sim.live_tokens != len(tokens) or bool(tokens) != busy:
            violations.append(Violation(
                "live-token-count", "accelerator",
                f"kept count {sim.live_tokens} but {len(tokens)} tokens "
                f"are in the pipelines (busy={busy})",
            ))
        for queue in sim.queues.values():
            banked = sum(queue.bank_occupancy())
            if len(queue) != banked:
                violations.append(Violation(
                    "queue-count", f"queue {queue.task_set!r}",
                    f"kept size {len(queue)} but banks hold {banked}",
                ))
        memory = sim.memory
        for pipeline in sim.pipelines:
            for stage in pipeline.stages:
                if not isinstance(stage, LoadStage):
                    continue
                earliest = min(
                    (done for _token, done, _element in stage.station),
                    default=NEVER,
                )
                if stage.earliest != earliest:
                    violations.append(Violation(
                        "station-earliest", stage.name,
                        f"kept earliest completion {stage.earliest} but "
                        f"the station's is {earliest}",
                    ))
        completions = held_requests(sim)
        if memory.in_flight != len(completions):
            violations.append(Violation(
                "memory-outstanding", "MemorySystem",
                f"kept count {memory.in_flight} but the stations and the "
                f"host hold {len(completions)} requests",
            ))
        pending = any(done > sim.cycle for done in completions)
        if memory.pending(sim.cycle) != pending:
            violations.append(Violation(
                "memory-horizon", "MemorySystem",
                f"horizon {memory.horizon} says pending="
                f"{not pending} at cycle {sim.cycle}, held "
                f"requests say {pending}",
            ))

    def _check_sleepers(self, violations: list[Violation]) -> None:
        """A sleeping stage's tick would repeat the one it slept on:
        stall for the reasons its run records, or change nothing.  One
        whose wait ends on a completion holds an alarm no later than it:
        the event engine's jumps stop only at alarms.  One whose alarm is
        due is woken by the next step before it ticks, so its stalls are
        not held to (only a check between steps sees such a stage)."""
        now = self.sim.cycle
        alarms: dict[int, int] = {}
        for cycle, order in self.sim.alarms:
            alarms[order] = min(cycle, alarms.get(order, NEVER))
        for stage in self.sim._stages:
            if stage.wait != 1:
                continue
            completion = awaited_completion(stage)
            alarm = alarms.get(stage.order, NEVER)
            if alarm > completion:
                violations.append(Violation(
                    "stage-alarm", stage.name,
                    f"asleep until a completion at cycle {completion}, "
                    + ("but holds no alarm" if alarm == NEVER else
                       f"but its earliest alarm is at cycle {alarm}"),
                ))
            if alarm <= now:
                continue
            verdict = tick_verdict(stage)
            if verdict != stage.reasons:
                violations.append(Violation(
                    "sleeping-stage", stage.name,
                    f"asleep since cycle {stage.since} on stalls "
                    f"{[r.value for r in stage.reasons]}, but a tick would "
                    + ("act" if verdict is None else
                       f"stall on {[r.value for r in verdict]}"),
                ))

    @staticmethod
    def _check_lane_order(
        name: str, engine, lanes: list, violations: list[Violation],
    ) -> None:
        """A rule engine's kept orders hold exactly the lanes they stand
        for, sorted by key: every lane its tokens hold (``lanes``), and
        the awaited ones whose promise is still open."""
        scanned = min(
            (lane.parent_index.positions for lane in lanes), default=None,
        )
        kept = engine.min_allocated_index()
        kept = kept.positions if kept is not None else None
        if kept != scanned:
            violations.append(Violation(
                "lane-order", f"engine {name!r}",
                f"kept minimum {kept} but the lanes' is {scanned}",
            ))
        waiting = [
            lane for lane in lanes if lane.awaited and lane.value is None
        ]
        for label, entries, members in (
            ("allocated", engine._order, lanes),
            ("waiting", engine._waiting, waiting),
        ):
            held = [(*entry[:2], id(entry[2])) for entry in entries]
            expected = [
                (*lane.key, id(lane))
                for lane in sorted(members, key=attrgetter("key"))
            ]
            if held != expected:
                violations.append(Violation(
                    "lane-order", f"engine {name!r}",
                    f"kept {label} order holds {len(entries)} entries, "
                    f"not the {len(members)} {label} lanes in key order",
                ))

    def _check_minimum_monotone(self, violations: list[Violation]) -> None:
        """The global live minimum never moves backwards in the well-order.

        Every new task extends a live parent's index, so the minimum over
        live indices (with the host horizon held down) is non-decreasing;
        a decrease means an index escaped tracking.
        """
        minimum = self.sim.tracker.minimum()
        if minimum is None:
            return
        positions = tuple(minimum.positions)
        if self._last_minimum is not None and positions < self._last_minimum:
            violations.append(Violation(
                "minimum-monotonicity", "LiveIndexTracker",
                f"broadcast minimum moved backwards: {self._last_minimum} "
                f"-> {positions}",
            ))
        self._last_minimum = positions

    def _check_liveness(self, violations: list[Violation]) -> None:
        """The minimum waiting task can always make progress.

        If work remains but nothing was active for a whole check interval
        with no event, memory completion, or function-unit completion
        scheduled, the guarantee is broken — report it now instead of
        waiting out the deadlock window.
        """
        sim = self.sim
        if not sim._work_remaining():
            return
        idle = sim.cycle - sim._last_progress_cycle
        # The otherwise broadcast only fires every
        # minimum_broadcast_interval cycles, so short gaps with nothing
        # else pending are legitimate even at a tiny check interval.
        floor = 2 * sim.config.minimum_broadcast_interval + 8
        if idle < max(self.interval, floor):
            return
        if sim._event_heap or not sim.memory.quiescent(sim.cycle):
            return
        for pipeline in sim.pipelines:
            for stage in pipeline.stages:
                if isinstance(stage, CallStage):
                    for _token, done_at, _stream in stage.in_flight:
                        if done_at > sim.cycle:
                            return  # a function unit will complete later
        stuck = []
        for pipeline in sim.pipelines:
            stuck.extend(pipeline.stuck_report())
        violations.append(Violation(
            "liveness", "accelerator",
            f"no progress for {idle} cycles with work remaining; "
            + "; ".join(stuck[:4]),
        ))

    def _check_drained(self, violations: list[Violation]) -> None:
        """End-of-run conservation: everything handed out came back."""
        sim = self.sim
        for queue in sim.queues.values():
            if len(queue):
                violations.append(Violation(
                    "drain", f"queue {queue.task_set!r}",
                    f"{len(queue)} entries left after drain",
                ))
            if queue.pushes != queue.pops:
                violations.append(Violation(
                    "drain", f"queue {queue.task_set!r}",
                    f"pushes {queue.pushes} != pops {queue.pops}",
                ))
        for name, engine in sim.engines.items():
            if engine.occupancy:
                violations.append(Violation(
                    "drain", f"engine {name!r}",
                    f"{engine.occupancy} lane(s) still allocated",
                ))
        if sim.tracker.count:
            violations.append(Violation(
                "drain", "LiveIndexTracker",
                f"{sim.tracker.count} live handle(s) leaked",
            ))
        if sim.memory.in_flight:
            violations.append(Violation(
                "drain", "MemorySystem",
                f"{sim.memory.in_flight} request(s) never retired",
            ))
        credits = sim.admission_credits
        if credits is not None:
            lanes = sim.config.rule_lanes
            for task_set, value in credits.items():
                if value != lanes:
                    violations.append(Violation(
                        "drain", f"queue {task_set!r}",
                        f"admission credits drained at {value}, "
                        f"expected {lanes}",
                    ))


_BP, _MEMORY = StallReason.BACKPRESSURE, StallReason.MEMORY
_RULE, _QUEUE = StallReason.RULE, StallReason.QUEUE


def tick_verdict(stage) -> tuple[StallReason, ...] | None:
    """What one tick of ``stage`` would do now, from its state alone: the
    stalls it would record if that is all (``()`` if it would do
    nothing), or None if it would fire or change state."""
    ctx = stage.ctx
    visible = bool(stage.input._items)
    room = stage.output is None or stage.output.can_push()
    work = HELD_WORK.get(type(stage))
    if work is not None:
        held = getattr(stage, work)
        reasons = _release_verdict(stage, held, room, ctx.cycle)
        if reasons is None or visible and len(held) < stage.depth:
            return None
        if visible:
            reasons += (_RULE if isinstance(stage, RendezvousStage)
                        else _MEMORY,)
        return reasons
    if isinstance(stage, SourceStage):
        queue, faults = stage.queue, ctx.faults
        if not queue._size:
            return ()
        if not room:
            return (_BP,)
        credits = ctx.admission_credits
        if credits is not None and credits[stage.task_set] <= 0:
            return (_RULE,)
        poppable = any(
            bank and not (faults is not None
                          and faults.bank_stalled(queue.task_set, slot))
            for slot, bank in enumerate(queue.banks)
        )
        return None if poppable else (_QUEUE,)
    if not visible:
        return ()
    env = stage.input._items[0].env
    if isinstance(stage, SwitchStage) and not stage.op.pred(env):
        epilogue = stage.epilogue_entry
        return None if epilogue is None or epilogue.can_push() else (_BP,)
    if not room:
        return (_BP,)
    if isinstance(stage, AllocRuleStage):
        engine = ctx.engines[stage.op.resolve(env)]
        lanes = engine.max_lanes
        if engine.faults is not None:
            lanes = max(0, lanes - engine.faults.lanes_failed(engine.name))
        return (_RULE,) if engine.occupancy >= lanes else None
    if isinstance(stage, EnqueueStage):
        op = stage.op
        if (op.when is None or op.when(env)) and \
                not ctx.queues[op.task_set].can_push():
            return (_QUEUE,)
    return None


def held_requests(sim) -> list[int]:
    """The completion cycle of every outstanding memory request, read
    off its holder: a load station entry, a Call operand or Expand row
    stream, or the host's batch DMA."""
    done = []
    for stage in sim._stages:
        if isinstance(stage, LoadStage):
            done.extend(entry[1] for entry in stage.station)
        elif isinstance(stage, ExpandStage):
            done.extend(entry[3] for entry in stage._inflight
                        if entry[3] is not None)
        elif isinstance(stage, CallStage):
            done.extend(entry[2] for entry in stage.in_flight
                        if entry[2] is not None)
    if sim.host._transfer_done is not None:
        done.append(sim.host._transfer_done)
    return done


def awaited_completion(stage) -> int:
    """The completion a sleeping Load, Expand or Call waits for, which
    its alarm must not come after (NEVER when it waits on none)."""
    if isinstance(stage, ExpandStage):
        stream = stage._inflight[0][3] if stage._inflight else None
        return NEVER if stream is None else stream
    if stage.output is not None and not stage.output.can_push():
        return NEVER  # asleep on backpressure: a pop wakes it
    if isinstance(stage, LoadStage):
        held = stage.station[:1] if stage.in_order else stage.station
        return min((done_at for _token, done_at, _element in held),
                   default=NEVER)
    if isinstance(stage, CallStage):
        return min((done_at if stream is None else max(done_at, stream)
                    for _token, done_at, stream in stage.in_flight),
                   default=NEVER)
    return NEVER


def _release_verdict(stage, held, room: bool, cycle: int):
    """A station's first phase: None if it would release a token (or land
    its head's stream), else the stall it would record, if any."""
    if isinstance(stage, RendezvousStage):
        epilogue = stage.epilogue_entry
        exits = {True: room, False: epilogue is None or epilogue.can_push()}
        decided = {token.lanes[0][1].value for token in
                   (held[:1] if stage.in_order else held)} - {None}
        if any(exits[value] for value in decided):
            return None
        return (_BP,) if decided else ()
    if isinstance(stage, ExpandStage):
        if not held:
            return ()
        stream = held[0][3]
        if stream is not None:
            return None if stream <= cycle else ()
        return None if room else (_BP,)
    if held and not room:
        return (_BP,)
    if isinstance(stage, LoadStage):
        ready = (done_at <= cycle for _token, done_at, _element in
                 (held[:1] if stage.in_order else held))
    else:
        ready = (done_at <= cycle and (stream is None or stream <= cycle)
                 for _token, done_at, stream in held)
    return None if any(ready) else ()
