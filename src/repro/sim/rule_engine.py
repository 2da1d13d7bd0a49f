"""Simulated rule engines (Figure 8).

One engine per rule type: a lane allocator (AllocRule stalls its pipeline
when no lane is free), lanes executing the compiled ECA clauses against
events broadcast on the event bus, a return buffer the rendezvous stages
poll, and the minimum-live-index broadcast that triggers otherwise clauses
for lanes whose parent is the (tied-)minimum waiting task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Mapping

from repro.core.events import Event
from repro.core.indexing import TaskIndex
from repro.core.rule import RuleInstance, RuleType, RuleVerdict


@dataclass
class RuleEngineStats:
    allocations: int = 0
    alloc_stalls: int = 0
    otherwise_fired: int = 0
    clause_fired: int = 0
    requires_fired: int = 0
    peak_occupancy: int = 0
    events_dropped: int = 0      # injected fault: delivery lost
    events_duplicated: int = 0   # injected fault: delivery repeated
    fault_alloc_stalls: int = 0  # stalls charged to failed lanes


@dataclass(slots=True)
class _Lane:
    instance: RuleInstance
    owner_uid: int
    awaited: bool = False


class RuleEngineSim:
    """One rule engine with a fixed number of lanes.

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`, or None) models
    transient lane failures and event-bus glitches; every hook is a
    single identity test when fault injection is disabled.
    """

    def __init__(self, name: str, rule_type: RuleType, lanes: int,
                 faults=None, probe=None) -> None:
        self.name = name
        self.rule_type = rule_type
        self.max_lanes = lanes
        self.faults = faults
        self.probe = probe  # the simulator's Probe (None = unobserved)
        self.lanes: dict[int, _Lane] = {}  # keyed by id(instance)
        self.stats = RuleEngineStats()
        # Event-independent broadcast state, hoisted out of deliver():
        # the clause list (patterns are static per rule type, so the
        # triggered subset is a function of the event alone) and the
        # requires-flag set every instance compares against.
        self._clauses = tuple(rule_type.clauses)
        self._requires = frozenset(rule_type.requires)

    # -- allocation ---------------------------------------------------------

    def try_alloc(
        self,
        parent_index: TaskIndex,
        args: Mapping[str, Any],
        owner_uid: int,
    ) -> RuleInstance | None:
        """Allocate a lane; None when the engine is full (pipeline stalls)."""
        available = self.max_lanes
        if self.faults is not None:
            failed = self.faults.lanes_failed(self.name)
            if failed:
                available = max(0, available - failed)
                if len(self.lanes) >= available:
                    self.stats.fault_alloc_stalls += 1
        if len(self.lanes) >= available:
            self.stats.alloc_stalls += 1
            return None
        instance = self.rule_type.instantiate(parent_index, args)
        self.lanes[id(instance)] = _Lane(instance, owner_uid)
        self.stats.allocations += 1
        self.stats.peak_occupancy = max(
            self.stats.peak_occupancy, len(self.lanes)
        )
        return instance

    def mark_awaited(self, instance: RuleInstance) -> None:
        """The parent token reached its rendezvous (otherwise now armed)."""
        lane = self.lanes.get(id(instance))
        if lane is not None:
            lane.awaited = True

    def release(self, instance: RuleInstance) -> None:
        """The rendezvous consumed the verdict; free the lane."""
        lane = self.lanes.pop(id(instance), None)
        if lane is None:
            return
        if instance.verdict is RuleVerdict.OTHERWISE:
            self.stats.otherwise_fired += 1
        elif instance.verdict is RuleVerdict.REQUIRES:
            self.stats.requires_fired += 1
        elif instance.verdict is RuleVerdict.CLAUSE:
            self.stats.clause_fired += 1
        if self.probe is not None:
            self.probe.lane_free(self.probe.now, self.name, instance.verdict,
                                 len(self.lanes))

    # -- event bus ------------------------------------------------------------

    def deliver(self, event: Event, source_uid: int) -> None:
        """Broadcast one event to every lane (skipping the source's own)."""
        if not self.lanes:
            return
        rounds = 1
        if self.faults is not None:
            action = self.faults.event_action(self.name)
            if action == "drop":
                self.stats.events_dropped += 1
                return
            if action == "dup":
                self.stats.events_duplicated += 1
                rounds = 2
        # Filter clauses once per broadcast, not once per lane: patterns
        # are static per rule type, so lanes only differ in conditions.
        # A rule with pending requires-flags can only complete on a
        # satisfy action, which needs a triggered clause — so an event
        # that triggers nothing is a no-op for every lane.
        triggered = [c for c in self._clauses if c.triggered_by(event)]
        if not triggered:
            return
        requires = self._requires
        probe = self.probe
        for _ in range(rounds):
            for lane in self.lanes.values():
                if lane.owner_uid == source_uid:
                    continue
                instance = lane.instance
                if instance.value is None:
                    if (
                        instance.observe_triggered(event, triggered, requires)
                        is not None and probe is not None
                    ):
                        # The promise just resolved: remember when and
                        # which token's event decided it.
                        instance.decided_cycle = probe.now
                        instance.decided_by = source_uid

    def min_allocated_index(self) -> TaskIndex | None:
        """Minimum parent index over this engine's allocated lanes.

        This is the "minimum task index at this rendezvous across all
        pipelines" broadcast of Figure 8(c)(4): lane-scoped, so a full
        engine always releases its earliest waiter (deadlock freedom).
        """
        indices = [lane.instance.parent_index for lane in self.lanes.values()]
        # Keyed on the positions tuple, not TaskIndex's generated __lt__
        # (a Python-level call per compare); equal positions are equal
        # indices, so the result is the same.
        if not indices:
            return None
        return min(indices, key=attrgetter("positions"))

    def broadcast_minimum(self, min_live: TaskIndex | None) -> int:
        """Fire otherwise for awaited lanes whose parent ties the minimum.

        Returns the number of lanes triggered (a trigger resolves the
        promise — progress the event engine must not skip over).
        """
        fired = 0
        probe = self.probe
        for lane in self.lanes.values():
            if not lane.awaited or lane.instance.returned:
                continue
            parent = lane.instance.parent_index
            if min_live is None or not min_live.earlier_than(parent):
                lane.instance.trigger_otherwise()
                if probe is not None:
                    # Otherwise is a liveness escape, not a causal answer:
                    # no deciding token, only the broadcast cycle.
                    lane.instance.decided_cycle = probe.now
                fired += 1
        return fired

    def would_fire_otherwise(self, min_live: TaskIndex | None) -> bool:
        """Pure predicate: would :meth:`broadcast_minimum` trigger a lane?

        Evaluated by the event scheduler on stationary state, so a
        minimum-broadcast boundary only counts as a wake-up when crossing
        it would actually change something.
        """
        for lane in self.lanes.values():
            if not lane.awaited or lane.instance.returned:
                continue
            parent = lane.instance.parent_index
            if min_live is None or not min_live.earlier_than(parent):
                return True
        return False

    # -- idle-skip crediting ---------------------------------------------------

    def credit_alloc_stalls(self, count: int) -> None:
        """Replay ``count`` skipped repeats of one failed allocation.

        Re-evaluates the same occupancy test :meth:`try_alloc` applied in
        the probe cycle — lane and fault state are frozen across a skip,
        so the branch outcome is identical.
        """
        self.stats.alloc_stalls += count
        if self.faults is not None:
            failed = self.faults.lanes_failed(self.name)
            if failed and len(self.lanes) >= max(0, self.max_lanes - failed):
                self.stats.fault_alloc_stalls += count

    @property
    def occupancy(self) -> int:
        return len(self.lanes)
