"""Simulated rule engines (Figure 8).

One engine per rule type: a lane allocator (AllocRule stalls its pipeline
when no lane is free), lanes executing the compiled ECA clauses against
events broadcast on the event bus, a return buffer the rendezvous stages
poll, and the minimum-live-index broadcast that triggers otherwise clauses
for lanes whose parent is the (tied-)minimum waiting task.

The broadcast reads kept state instead of scanning the lanes: the
allocated lanes and the awaited, still-undecided lanes, each a list sorted
by parent index and updated where a lane changes (allocation, arrival at
the rendezvous, a decision, release).  Neither ever holds more entries
than there are allocated lanes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from math import inf
from typing import Any, Mapping

from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.rule import RuleInstance, RuleType
from repro.sim.events import wake_all

ACTIVATE = EventKind.ACTIVATE  # bound once, as in sim/stages.py


@dataclass
class RuleEngineStats:
    events_dropped: int = 0      # injected fault: delivery lost
    events_duplicated: int = 0   # injected fault: delivery repeated


@dataclass(slots=True)
class _Lane:
    instance: RuleInstance
    owner_uid: int
    # Sort key in the kept orders: the parent's positions, then the
    # allocation sequence number (unique, and unlike id() it survives the
    # deep copy a checkpoint makes).  An entry is ``(*key, lane)``.
    key: tuple[tuple[int, ...], int]
    awaited: bool = False


class RuleEngineSim:
    """One rule engine with a fixed number of lanes.

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`, or None) models
    transient lane failures and event-bus glitches; every hook is a
    single identity test when fault injection is disabled.

    ``verdict_sleepers`` holds the rendezvous stations asleep until a
    verdict is set; a simulator shares it between its engines and
    stations.  ``sleepers`` holds the AllocRule stages asleep until a
    lane of this engine is freed.
    """

    def __init__(self, name: str, rule_type: RuleType, lanes: int,
                 faults=None, probe=None,
                 verdict_sleepers: list | None = None) -> None:
        self.name = name
        self.rule_type = rule_type
        self.max_lanes = lanes
        self.faults = faults
        self.probe = probe  # the simulator's Probe (None = unobserved)
        self.lanes: dict[int, _Lane] = {}  # keyed by id(instance)
        # The allocated lanes, and the awaited lanes whose promise is
        # still open, as ``(*lane.key, lane)`` entries in key order.
        self._order: list[tuple] = []
        self._waiting: list[tuple] = []
        self._seq = itertools.count()
        self.verdict_sleepers = (
            verdict_sleepers if verdict_sleepers is not None else []
        )
        self.sleepers: list = []
        self.stats = RuleEngineStats()
        # Event-independent broadcast state, hoisted out of deliver():
        # the triggered clauses per event shape (kind, task set, label),
        # all that static patterns read, and the requires-flag set.  The
        # memo key spells the kind as ``kind is ACTIVATE`` (there are two
        # kinds): hashing the enum member is a Python-level call.
        self._triggered: dict[tuple, tuple] = {}
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
            available = max(0, available - self.faults.lanes_failed(self.name))
        if len(self.lanes) >= available:
            return None
        instance = self.rule_type.instantiate(parent_index, args)
        lane = _Lane(instance, owner_uid,
                     (parent_index.positions, next(self._seq)))
        self.lanes[id(instance)] = lane
        insort(self._order, (*lane.key, lane))
        return instance

    def mark_awaited(self, instance: RuleInstance) -> None:
        """The parent token reached its rendezvous (otherwise now armed)."""
        lane = self.lanes.get(id(instance))
        if lane is not None and not lane.awaited:
            lane.awaited = True
            if instance.value is None:
                insort(self._waiting, (*lane.key, lane))

    def release(self, instance: RuleInstance) -> None:
        """The rendezvous consumed the verdict; free the lane."""
        lane = self.lanes.pop(id(instance), None)
        if lane is None:
            return
        order = self._order
        del order[bisect_left(order, lane.key)]
        if lane.awaited and instance.value is None:
            waiting = self._waiting
            del waiting[bisect_left(waiting, lane.key)]
        if self.sleepers:
            wake_all(self.sleepers)
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
            rounds = self._bus_fault()
            if not rounds:
                return
        # Filter clauses once per event shape, not per lane: lanes only
        # differ in conditions.  A rule with pending requires-flags can
        # only complete on a satisfy action, which needs a triggered
        # clause — so an event that triggers nothing is a no-op.
        key = (event.kind is ACTIVATE, event.task_set, event.label)
        triggered = self._triggered.get(key)
        if triggered is None:
            triggered = self._triggered[key] = tuple(
                c for c in self.rule_type.clauses if c.triggered_by(event)
            )
        if not triggered:
            return
        requires = self._requires
        probe = self.probe
        waiting = self._waiting
        decided = 0
        for _ in range(rounds):
            for lane in self.lanes.values():
                if lane.owner_uid == source_uid:
                    continue
                instance = lane.instance
                if instance.value is None and instance.observe_triggered(
                    event, triggered, requires
                ) is not None:
                    decided += 1
                    if lane.awaited:
                        del waiting[bisect_left(waiting, lane.key)]
                    if probe is not None:
                        # The promise just resolved: remember when and
                        # which token's event decided it.
                        instance.decided_cycle = probe.now
                        instance.decided_by = source_uid
        if decided and self.verdict_sleepers:
            wake_all(self.verdict_sleepers)

    def deliver_unheard(self) -> None:
        """An event of a shape no engine hears (the simulator sends no
        :class:`Event` for it): all that :meth:`deliver` would do is
        draw this engine's bus fault while it holds lanes."""
        if self.lanes and self.faults is not None:
            self._bus_fault()

    def _bus_fault(self) -> int:
        """Draw one delivery's injected bus fault and count it: the
        rounds the event is observed in (0 dropped, 2 duplicated)."""
        action = self.faults.event_action(self.name)
        if action == "drop":
            self.stats.events_dropped += 1
            return 0
        if action == "dup":
            self.stats.events_duplicated += 1
            return 2
        return 1

    def min_allocated_index(self) -> TaskIndex | None:
        """Minimum parent index over this engine's allocated lanes.

        This is the "minimum task index at this rendezvous across all
        pipelines" broadcast of Figure 8(c)(4): lane-scoped, so a full
        engine always releases its earliest waiter (deadlock freedom).
        It is the head of the kept allocation order, not a scan.
        """
        order = self._order
        return order[0][2].instance.parent_index if order else None

    def broadcast_minimum(self, min_live: TaskIndex | None) -> int:
        """Fire otherwise for awaited lanes whose parent ties the minimum.

        Those are the head of the waiting order, up to the last entry
        whose parent is not later than ``min_live`` (all of it when there
        is no minimum).  Returns the number of lanes triggered (a trigger
        resolves the promise — progress the event engine must not skip
        over).
        """
        waiting = self._waiting
        fired = len(waiting) if min_live is None else \
            bisect_right(waiting, (min_live.positions, inf))
        if not fired:
            return 0
        probe = self.probe
        for _positions, _seq, lane in waiting[:fired]:
            instance = lane.instance
            instance.trigger_otherwise()
            if probe is not None:
                # Otherwise is a liveness escape, not a causal answer:
                # no deciding token, only the broadcast cycle.
                instance.decided_cycle = probe.now
        del waiting[:fired]
        if self.verdict_sleepers:
            wake_all(self.verdict_sleepers)
        return fired

    def would_fire_otherwise(self, min_live: TaskIndex | None) -> bool:
        """Pure predicate: would :meth:`broadcast_minimum` trigger a lane?

        Evaluated by the event scheduler on stationary state, so a
        minimum-broadcast boundary only counts as a wake-up when crossing
        it would actually change something.
        """
        waiting = self._waiting
        return bool(waiting) and (
            min_live is None or waiting[0][0] <= min_live.positions
        )

    @property
    def occupancy(self) -> int:
        return len(self.lanes)
