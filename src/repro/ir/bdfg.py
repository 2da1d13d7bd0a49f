"""Boolean Dataflow Graph structures.

A BDFG (Buck [10]) extends synchronous dataflow with boolean-controlled
switch/select actors, which is exactly what rendezvous steering needs: the
rule's return value is the control token and the task token is routed to
the commit or abort branch.  Actors here correspond one-to-one with the
hardware templates of Section 5.2.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import LoweringError


class ActorKind(enum.Enum):
    """Primitive actor kinds, each backed by a parameterized template."""

    SOURCE = "source"           # task-queue pop port
    CONST = "const"
    ALU = "alu"
    LOAD = "load"               # out-of-order load unit port
    STORE = "store"             # commit unit (optionally combining)
    SWITCH = "switch"           # boolean steering (guards, rendezvous)
    EXPAND = "expand"           # dynamic-rate token multiplication
    ALLOC_RULE = "alloc_rule"   # rule-engine lane allocation port
    RENDEZVOUS = "rendezvous"   # switch fed by the rule's return buffer
    ENQUEUE = "enqueue"         # task-queue push port
    CALL = "call"               # pipelined problem-specific function unit
    LABEL = "label"             # event-bus broadcast tap
    SINK = "sink"               # token retirement


# Actor kinds whose template contains out-of-order matching logic
# (Section 5.2 limits out-of-order execution to these to stay frugal).
OUT_OF_ORDER_KINDS = frozenset({ActorKind.LOAD, ActorKind.RENDEZVOUS})


@dataclass
class Actor:
    """One node of the BDFG.

    ``params`` carries template parameters (latency, widths, the original
    kernel op for semantics); ``outputs`` maps port names to channels.
    Every actor has the implicit input port ``in``.
    """

    name: str
    kind: ActorKind
    params: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Channel:
    """A FIFO edge between two actor ports."""

    src: Actor
    src_port: str
    dst: Actor
    dst_port: str = "in"
    capacity: int = 2


class Bdfg:
    """A dataflow graph for one application: actors plus channels.

    Kernels lower into per-task-set chains; the graph also contains the
    task-queue and rule-engine boundary actors those chains attach to.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.actors: dict[str, Actor] = {}
        self.channels: list[Channel] = []
        self._ids = itertools.count()

    # -- construction -----------------------------------------------------

    def add(self, kind: ActorKind, prefix: str, **params: Any) -> Actor:
        name = f"{prefix}.{kind.value}{next(self._ids)}"
        if name in self.actors:
            raise LoweringError(f"duplicate actor name {name}")
        actor = Actor(name, kind, params)
        self.actors[name] = actor
        return actor

    def connect(
        self,
        src: Actor,
        dst: Actor,
        src_port: str = "out",
        dst_port: str = "in",
        capacity: int = 2,
    ) -> Channel:
        if src.name not in self.actors or dst.name not in self.actors:
            raise LoweringError("cannot connect actors outside this graph")
        channel = Channel(src, src_port, dst, dst_port, capacity)
        self.channels.append(channel)
        return channel

    # -- queries ------------------------------------------------------------

    def outgoing(self, actor: Actor) -> list[Channel]:
        return [c for c in self.channels if c.src is actor]

    def successors(self, actor: Actor) -> list[Actor]:
        return [c.dst for c in self.outgoing(actor)]

    def by_kind(self, kind: ActorKind) -> list[Actor]:
        return [a for a in self.actors.values() if a.kind is kind]

    def sources(self) -> list[Actor]:
        return self.by_kind(ActorKind.SOURCE)

    def iter_reachable(self, start: Actor) -> Iterator[Actor]:
        seen = {start.name}
        frontier = [start]
        while frontier:
            actor = frontier.pop()
            yield actor
            for succ in self.successors(actor):
                if succ.name not in seen:
                    seen.add(succ.name)
                    frontier.append(succ)

    def stats(self) -> dict[str, int]:
        """Actor-kind histogram (feeds the resource model and tests)."""
        counts: dict[str, int] = {}
        for actor in self.actors.values():
            counts[actor.kind.value] = counts.get(actor.kind.value, 0) + 1
        return counts

    def out_of_order_actors(self) -> list[Actor]:
        return [
            a for a in self.actors.values() if a.kind in OUT_OF_ORDER_KINDS
        ]
