"""Rules: promises evaluated against runtime state (Definition 4.4).

A *rule* is created by a parent task with bound parameters; it observes
events broadcast by the runtime (or the FPGA event bus) and eventually
returns a boolean to its creator, which blocks at a planned *rendezvous*
until the value arrives.  The obligatory ``otherwise`` clause fires when the
parent is the minimum task among all tasks waiting at the rendezvous — the
liveliness guarantee of Section 4.2.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.errors import SchedulingError


@dataclass(frozen=True, slots=True)
class EventPattern:
    """One event alternative an ON clause listens for."""

    kind: EventKind
    task_set: str
    label: str

    def matches(self, event: Event) -> bool:
        return event.matches(self.kind, self.task_set, self.label)


Condition = Callable[[Event, Mapping[str, Any]], Any]


@dataclass(frozen=True, slots=True)
class ClauseSpec:
    """A compiled ON/IF/DO clause."""

    patterns: tuple[EventPattern, ...]
    condition: Condition | None
    action: tuple[str, Any]  # ("return", bool) | ("satisfy", flag)

    def triggered_by(self, event: Event) -> bool:
        return any(p.matches(event) for p in self.patterns)

    def condition_holds(self, event: Event, params: Mapping[str, Any]) -> bool:
        if self.condition is None:
            return True
        return bool(self.condition(event, params))


@dataclass(frozen=True)
class RuleType:
    """A compiled rule: the static artifact shared by every instance.

    On FPGA one rule type becomes one rule engine; instances occupy lanes.
    """

    name: str
    params: tuple[str, ...]
    requires: tuple[str, ...]
    clauses: tuple[ClauseSpec, ...]
    otherwise: bool
    # Resolve the promise the moment the parent reaches the rendezvous
    # (optimistic speculation; see the ECA grammar's "otherwise immediately").
    immediate: bool = False
    # Original DSL text when compiled from source (diagnostics, CLI).
    source: str = ""

    def instantiate(
        self, parent_index: TaskIndex, arguments: Mapping[str, Any]
    ) -> "RuleInstance":
        """Bind parameters for a parent task (the AllocRule operation).

        The parameter named ``my_index`` is bound implicitly to the parent
        task's well-order index — every published implementation indexes
        the creator in the rule constructor (Section 4.2.1), so the
        framework provides it rather than making each kernel thread it
        through.
        """
        arguments = dict(arguments)
        if "my_index" in self.params and "my_index" not in arguments:
            arguments["my_index"] = parent_index
        if arguments.keys() != set(self.params):
            missing = set(self.params) - set(arguments)
            extra = set(arguments) - set(self.params)
            raise SchedulingError(
                f"rule {self.name!r} instantiated with wrong arguments: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        return RuleInstance(self, parent_index, arguments)

    def hears(self, kind: EventKind, task_set: str, label: str) -> bool:
        """Does any clause listen for events of this shape?  An event of
        a shape no clause hears triggers nothing, whatever its index and
        payload."""
        shape = Event(kind, task_set, label, None, {})
        return any(clause.triggered_by(shape) for clause in self.clauses)

    def event_subscriptions(self) -> set[EventPattern]:
        """All event patterns any clause listens to (sizes the event bus)."""
        return {p for clause in self.clauses for p in clause.patterns}


class RuleVerdict(enum.Enum):
    """How a rule instance produced its return value (for statistics)."""

    PENDING = "pending"
    CLAUSE = "clause"         # an ON clause's return-action fired
    REQUIRES = "requires"     # all requires-flags were satisfied
    OTHERWISE = "otherwise"   # the minimum-waiting-task escape fired


@dataclass(slots=True)
class RuleInstance:
    """A live rule occupying a lane: bound params plus accumulated state."""

    rule_type: RuleType
    parent_index: TaskIndex
    arguments: dict[str, Any]
    satisfied: set[str] = field(default_factory=set)
    value: bool | None = None
    verdict: RuleVerdict = RuleVerdict.PENDING
    # Decision provenance, stamped by the simulator only when a
    # TokenLedger is attached: the cycle the promise resolved and the uid
    # of the token whose event decided it (-1 for otherwise/immediate).
    decided_cycle: int = -1
    decided_by: int = -1

    @property
    def returned(self) -> bool:
        return self.value is not None

    def observe(self, event: Event) -> bool | None:
        """Feed one broadcast event; returns the rule's value if it fires.

        Clauses are evaluated in declaration order; the first return-action
        whose condition holds wins.  ``satisfy`` actions accumulate flags and
        the rule returns true once every declared flag is satisfied.
        """
        if self.returned:
            return self.value
        for clause in self.rule_type.clauses:
            if not clause.triggered_by(event):
                continue
            if not clause.condition_holds(event, self._env()):
                continue
            kind, payload = clause.action
            if kind == "return":
                self._finish(bool(payload), RuleVerdict.CLAUSE)
                return self.value
            self.satisfied.add(payload)
        if self.rule_type.requires and self.satisfied >= set(
            self.rule_type.requires
        ):
            self._finish(True, RuleVerdict.REQUIRES)
        return self.value

    def observe_triggered(
        self,
        event: Event,
        clauses: tuple[ClauseSpec, ...],
        requires: frozenset[str],
    ) -> bool | None:
        """:meth:`observe` with the event-independent work hoisted out.

        ``clauses`` must be the declaration-order subset of this rule
        type's clauses whose patterns match ``event`` and ``requires`` the
        precomputed flag set — the event bus computes both once per
        broadcast instead of once per lane.
        """
        if self.value is not None:
            return self.value
        arguments = self.arguments
        for clause in clauses:
            condition = clause.condition
            if condition is not None and not condition(event, arguments):
                continue
            kind, payload = clause.action
            if kind == "return":
                self._finish(bool(payload), RuleVerdict.CLAUSE)
                return self.value
            self.satisfied.add(payload)
        if requires and self.satisfied >= requires:
            self._finish(True, RuleVerdict.REQUIRES)
        return self.value

    def trigger_otherwise(self) -> bool:
        """Fire the otherwise clause (parent became the minimum waiter)."""
        if not self.returned:
            self._finish(self.rule_type.otherwise, RuleVerdict.OTHERWISE)
        assert self.value is not None
        return self.value

    def _finish(self, value: bool, verdict: RuleVerdict) -> None:
        self.value = value
        self.verdict = verdict

    def _env(self) -> Mapping[str, Any]:
        return self.arguments
