"""Seeded, deterministic fault injection for the accelerator simulator.

The paper's accelerator ran on real HARP silicon, where transient faults
are physical realities: QPI latency spikes under coherence-traffic
contention, bandwidth brownouts when the host competes for the channel,
rule-engine lanes knocked out by SEUs, and BRAM bank stalls.  A
:class:`FaultPlan` models those perturbations as a seeded schedule of
:class:`FaultEvent` windows so a fault campaign is exactly reproducible:
the same seed always yields the same plan, and the same plan applied to
the same application always perturbs the same cycles.

Components consult the plan through zero-cost-when-disabled hooks — each
keeps ``faults = None`` by default and tests that one reference on the
hot path.  The plan caches its per-cycle view (extra latency, bandwidth
factor, failed lanes, stalled banks) and only recomputes when the cycle
crosses a fault-window boundary.

Recovery semantics: faults are *transient*.  Once a fault has fired, the
resilient driver (:func:`repro.sim.accelerator.run_resilient`) calls
:meth:`FaultPlan.disarm_fired` after rolling back to a checkpoint, so a
recovered fault does not re-fire during the replayed cycles — the
simulated equivalent of a glitch that has passed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(str, enum.Enum):
    """The fault taxonomy (see docs/simulator.md)."""

    QPI_LATENCY = "qpi-latency"       # extra cycles on every channel transfer
    QPI_BROWNOUT = "qpi-brownout"     # channel bandwidth scaled down
    EVENT_DROP = "event-drop"         # an engine misses broadcast events
    EVENT_DUPLICATE = "event-dup"     # an engine sees events twice
    LANE_FAIL = "lane-fail"           # rule-engine lanes become unavailable
    BANK_STALL = "bank-stall"         # one task-queue bank refuses pops


@dataclass
class FaultEvent:
    """One scheduled perturbation, active over ``[start, start+duration)``.

    ``magnitude`` is kind-specific: extra latency cycles (QPI_LATENCY), a
    bandwidth multiplier in (0, 1] (QPI_BROWNOUT), a delivery count
    (EVENT_DROP / EVENT_DUPLICATE), or a failed-lane count (LANE_FAIL).
    ``target`` names the rule engine or task set ("" matches any);
    ``bank`` selects the stalled bank for BANK_STALL.
    """

    kind: FaultKind
    start: int
    duration: int = 1
    magnitude: float = 1.0
    target: str = ""
    bank: int = -1
    # Bookkeeping (mutated at runtime, never by the generator).
    fired_at: int = -1        # first cycle this fault perturbed the run
    consumed: bool = False    # disarmed after a recovery rollback
    remaining: int = field(default=-1, repr=False)  # drop/dup credits left

    @property
    def end(self) -> int:
        return self.start + self.duration

    def describe(self) -> str:
        where = f" @{self.target}" if self.target else ""
        if self.bank >= 0:
            where += f"[bank {self.bank}]"
        return (
            f"{self.kind.value}{where} cycles {self.start}..{self.end} "
            f"x{self.magnitude:g}"
        )


class FaultPlan:
    """A deterministic schedule of fault events plus its runtime view.

    The simulator calls :meth:`advance` once per cycle; components then
    read the cached per-cycle attributes (``latency_extra``,
    ``bandwidth_factor``) or call the targeted queries
    (:meth:`lanes_failed`, :meth:`bank_stalled`, :meth:`event_action`).
    ``advance`` also tolerates the clock moving *backwards* — a rollback
    to a checkpoint simply forces the per-cycle view to be recomputed.
    """

    def __init__(self, events: list[FaultEvent], seed: int | None = None
                 ) -> None:
        self.events = sorted(
            events, key=lambda e: (e.start, e.kind.value, e.target, e.bank)
        )
        for event in self.events:
            if event.remaining < 0:
                event.remaining = (
                    int(event.magnitude)
                    if event.kind in (FaultKind.EVENT_DROP,
                                      FaultKind.EVENT_DUPLICATE)
                    else 0
                )
        self.seed = seed
        self.log: list[str] = []
        self.cycle = -1
        # Cached per-cycle view.
        self.latency_extra = 0
        self.bandwidth_factor = 1.0
        self._lanes_failed: dict[str, int] = {}
        self._stalled: set[tuple[str, int]] = set()
        self._discrete: list[FaultEvent] = []
        self._next_boundary = 0

    # -- runtime clock --------------------------------------------------------

    def advance(self, cycle: int) -> bool:
        """Bring the cached per-cycle view up to ``cycle`` (cheap no-op
        between window boundaries); True when the view was recomputed."""
        recompute = cycle < self.cycle or cycle >= self._next_boundary
        if recompute:
            self._recompute(cycle)
        self.cycle = cycle
        return recompute

    def _recompute(self, cycle: int) -> None:
        self.latency_extra = 0
        self.bandwidth_factor = 1.0
        self._lanes_failed = {}
        self._stalled = set()
        self._discrete = []
        boundary = None
        for event in self.events:
            if event.consumed:
                continue
            if event.start > cycle:
                if boundary is None or event.start < boundary:
                    boundary = event.start
                continue
            if event.end <= cycle:
                continue
            if boundary is None or event.end < boundary:
                boundary = event.end
            kind = event.kind
            if kind in (FaultKind.EVENT_DROP, FaultKind.EVENT_DUPLICATE):
                if event.remaining > 0:
                    self._discrete.append(event)
                continue
            self._fire(event, cycle)
            if kind is FaultKind.QPI_LATENCY:
                self.latency_extra += int(event.magnitude)
            elif kind is FaultKind.QPI_BROWNOUT:
                self.bandwidth_factor *= max(0.01, min(1.0, event.magnitude))
            elif kind is FaultKind.LANE_FAIL:
                previous = self._lanes_failed.get(event.target, 0)
                self._lanes_failed[event.target] = (
                    previous + int(event.magnitude)
                )
            elif kind is FaultKind.BANK_STALL:
                self._stalled.add((event.target, event.bank))
        self._next_boundary = boundary if boundary is not None else 1 << 62

    def _fire(self, event: FaultEvent, cycle: int) -> None:
        if event.fired_at < 0:
            event.fired_at = cycle
            self.log.append(f"cycle {cycle}: {event.describe()}")

    def next_event_cycle(self, now: int) -> int:
        """Next fault-window boundary — an event-engine wake-up, so window
        activations (and their ``fired_at`` stamps) match a dense run."""
        return self._next_boundary if self._next_boundary > now else now + 1

    # -- component queries ----------------------------------------------------

    def lanes_failed(self, engine: str) -> int:
        """Unavailable lanes for ``engine`` this cycle."""
        if not self._lanes_failed:
            return 0
        return (
            self._lanes_failed.get(engine, 0) + self._lanes_failed.get("", 0)
        )

    def bank_stalled(self, task_set: str, bank: int) -> bool:
        """True when ``bank`` of ``task_set``'s queue refuses pops."""
        if not self._stalled:
            return False
        return (
            (task_set, bank) in self._stalled or ("", bank) in self._stalled
        )

    def event_action(self, engine: str) -> str | None:
        """Consume one drop/duplicate credit aimed at ``engine``, if any.

        Returns "drop", "dup", or None; called once per event delivery.
        """
        for event in self._discrete:
            if event.target and event.target != engine:
                continue
            if event.remaining <= 0 or event.consumed:
                continue
            event.remaining -= 1
            self._fire(event, self.cycle)
            if event.remaining <= 0:
                self._next_boundary = self.cycle  # force refresh next cycle
            return (
                "drop" if event.kind is FaultKind.EVENT_DROP else "dup"
            )
        return None

    # -- recovery -------------------------------------------------------------

    def disarm_fired(self) -> None:
        """Mark every fault that has fired as consumed (transient passed).

        Called by the resilient driver after a rollback so the replayed
        cycles do not re-experience the fault that was just recovered.
        """
        for event in self.events:
            if event.fired_at >= 0:
                event.consumed = True
        self.cycle = -1
        self._next_boundary = 0

    @property
    def fired_count(self) -> int:
        return sum(1 for event in self.events if event.fired_at >= 0)

    @property
    def pending_count(self) -> int:
        return sum(
            1 for event in self.events
            if event.fired_at < 0 and not event.consumed
        )

    def describe(self) -> str:
        lines = [f"fault plan (seed={self.seed}): {len(self.events)} events"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: int,
        *,
        engines: tuple[str, ...] | list[str] = (),
        task_sets: tuple[str, ...] | list[str] = (),
        banks: int = 4,
        rule_lanes: int = 32,
        intensity: float = 1.0,
    ) -> "FaultPlan":
        """A seeded mixed-mode plan over ``horizon`` cycles.

        ``intensity`` scales the number of injected events; the mixture
        covers every :class:`FaultKind`.  Windows land in the first 80%
        of the horizon so late faults still have cycles left to bite.
        """
        rng = random.Random(seed)
        horizon = max(horizon, 100)
        events: list[FaultEvent] = []

        def window(lo_frac: float = 0.02, hi_frac: float = 0.8) -> int:
            return rng.randint(
                max(1, int(horizon * lo_frac)), max(2, int(horizon * hi_frac))
            )

        def count(base: int) -> int:
            return max(0, round(base * intensity))

        for _ in range(count(2)):
            events.append(FaultEvent(
                FaultKind.QPI_LATENCY, window(),
                duration=rng.randint(horizon // 50 + 1, horizon // 8 + 2),
                magnitude=rng.randint(20, 200),
            ))
        for _ in range(count(2)):
            events.append(FaultEvent(
                FaultKind.QPI_BROWNOUT, window(),
                duration=rng.randint(horizon // 40 + 1, horizon // 6 + 2),
                magnitude=rng.uniform(0.2, 0.75),
            ))
        for _ in range(count(2)):
            events.append(FaultEvent(
                FaultKind.EVENT_DROP, window(),
                duration=max(2, horizon // 10),
                magnitude=rng.randint(1, 3),
                target=rng.choice(list(engines)) if engines else "",
            ))
        for _ in range(count(1)):
            events.append(FaultEvent(
                FaultKind.EVENT_DUPLICATE, window(),
                duration=max(2, horizon // 10),
                magnitude=rng.randint(1, 2),
                target=rng.choice(list(engines)) if engines else "",
            ))
        for _ in range(count(1)):
            events.append(FaultEvent(
                FaultKind.LANE_FAIL, window(),
                duration=rng.randint(horizon // 40 + 1, horizon // 8 + 2),
                magnitude=max(1, rng.randint(rule_lanes // 4,
                                             (3 * rule_lanes) // 4)),
                target=rng.choice(list(engines)) if engines else "",
            ))
        for _ in range(count(1)):
            events.append(FaultEvent(
                FaultKind.BANK_STALL, window(),
                duration=rng.randint(horizon // 40 + 1, horizon // 8 + 2),
                target=rng.choice(list(task_sets)) if task_sets else "",
                bank=rng.randrange(max(1, banks)),
            ))
        return cls(events, seed=seed)
