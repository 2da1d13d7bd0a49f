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
from repro.sim.stages import (
    CallStage,
    ExpandStage,
    LoadStage,
    RendezvousStage,
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
                    for token, _req, _done in stage.station:
                        yield token, 1
                elif isinstance(stage, RendezvousStage):
                    for token in stage.station:
                        yield token, 1
                elif isinstance(stage, CallStage):
                    for token, _done, _req in stage.in_flight:
                        yield token, 1
                elif isinstance(stage, ExpandStage):
                    for token, items, emitted, _req in stage._inflight:
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
        self._check_kept_counters(violations)
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
        """Every allocated lane is referenced by some in-flight token."""
        referenced: set[int] = set()
        for token, _refs in tokens:
            for _engine, instance in token.lanes:
                referenced.add(id(instance))
        for name, engine in self.sim.engines.items():
            for key, lane in engine.lanes.items():
                if key != id(lane.instance):
                    violations.append(Violation(
                        "lane-keying", f"engine {name!r}",
                        f"lane key {key} does not match its instance id "
                        f"{id(lane.instance)}",
                    ))
                elif key not in referenced:
                    violations.append(Violation(
                        "lane-conservation", f"engine {name!r}",
                        f"lane for parent {lane.instance.parent_index} "
                        f"(owner uid {lane.owner_uid}) is referenced by "
                        f"no in-flight token",
                    ))

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

    def _check_kept_counters(self, violations: list[Violation]) -> None:
        """Hot-path bookkeeping agrees with the state it summarizes.

        Queue sizes, load-station earliest completions, the memory
        horizon, the rule engines' lane orders and the rendezvous walk
        marks are updated where the state changes so the per-cycle code
        never scans; here each is recomputed by the scan it saves.
        """
        sim = self.sim
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
                    (memory.done_at(req) for _token, req, _ in stage.station),
                    default=NEVER,
                )
                if stage.earliest != earliest:
                    violations.append(Violation(
                        "station-earliest", stage.name,
                        f"kept earliest completion {stage.earliest} but "
                        f"the station's is {earliest}",
                    ))
        for name, engine in sim.engines.items():
            self._check_lane_order(name, engine, violations)
        for stage in sim._stages:
            if isinstance(stage, RendezvousStage):
                self._check_rendezvous_walk(stage, sim.decisions.value,
                                            violations)
        pending = any(
            done_at > sim.cycle for done_at in memory._outstanding.values()
        )
        if memory.pending(sim.cycle) != pending:
            violations.append(Violation(
                "memory-horizon", "MemorySystem",
                f"horizon {memory.horizon} says pending="
                f"{not pending} at cycle {sim.cycle}, outstanding "
                f"requests say {pending}",
            ))

    @staticmethod
    def _check_rendezvous_walk(
        stage: RendezvousStage, decisions: int, violations: list[Violation],
    ) -> None:
        """A station that skips its walk at this decision count holds
        decided tokens only at the exits its last walk found closed."""
        if stage.walked_at != decisions:
            return
        walked = stage.station[:1] if stage.in_order else stage.station
        found = {token.lanes[0][1].value for token in walked} - {None}
        held = {value for value, flag in (
            (True, stage.held_pass), (False, stage.held_squash),
        ) if flag}
        if found != held:
            violations.append(Violation(
                "rendezvous-walk", stage.name,
                f"marked walked at decision count {decisions} holding "
                f"verdicts {sorted(held)}, but its decided tokens hold "
                f"{sorted(found)}",
            ))

    @staticmethod
    def _check_lane_order(
        name: str, engine, violations: list[Violation],
    ) -> None:
        """A rule engine's kept orders hold exactly the lanes they stand
        for, sorted by key: every allocated lane, and the awaited lanes
        whose promise is still open."""
        lanes = list(engine.lanes.values())
        scanned = min(
            (lane.instance.parent_index.positions for lane in lanes),
            default=None,
        )
        kept = engine.min_allocated_index()
        kept = kept.positions if kept is not None else None
        if kept != scanned:
            violations.append(Violation(
                "lane-order", f"engine {name!r}",
                f"kept minimum {kept} but the lanes' is {scanned}",
            ))
        waiting = [
            lane for lane in lanes
            if lane.awaited and lane.instance.value is None
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
                    for _token, done_at, _req in stage.in_flight:
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
