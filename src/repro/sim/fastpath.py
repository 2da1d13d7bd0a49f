"""Idle-cycle skipping for the cycle simulator: the event engine.

The dense core advances every stage, queue bank, rule lane, and memory
channel on every cycle, even when the whole accelerator is quiescent
waiting on a 200 ns QPI miss — exactly the irregular-latency pattern the
paper's memory subsystem (Figure 7, Choi et al. timing constants)
produces.  The event engine (``SimConfig.engine="event"``) skips those
idle cycles: components push their wake-ups onto one heap of cycles
(:mod:`repro.sim.events`) at the moment they schedule future work, and
when a whole cycle passes in which *nothing* made progress, the
scheduler jumps the clock straight to the earliest pending wake-up.

Wake-up contract (who arms what):

* The memory system arms every tracked transfer's completion cycle
  (pipeline loads, Expand/Call operand streams, host batch DMA) at
  issue.  Nothing is withdrawn on retire: a request retires only after
  its completion, by which time its entry is spent.
* :class:`~repro.sim.stages.CallStage` arms its latency timer's expiry
  at issue time — the one stage-private clock.
* Rule-engine deliveries need no separate arming: the simulator's
  ``_event_heap`` is already a ``(cycle, seq, event)`` priority queue,
  so the scheduler peeks its head.
* Fault-plan window boundaries, checkpoint captures, invariant-checker
  passes, and the minimum-broadcast boundary (only when a broadcast
  would actually fire an otherwise) are single scalars owned by their
  components, read at probe time.

Cycle-exactness argument (see docs/simulator.md for the full version):

* A cycle with no progress (no stage fired, no silent station/queue/host
  mutation, no event delivered, no otherwise triggered) leaves the
  machine state *stationary*: every stage's decision next cycle depends
  only on that unchanged state plus the clock.
* The only clock-driven state changes are the wake-up sources above.
* Therefore every skipped cycle would have been an exact repeat of the
  probe cycle just executed — so the accounting that something reads
  (per-stage stall cycles, the queue-full counter, the
  stall-attribution profiler's cells) is replayed in bulk, multiplied
  by the number of skipped cycles, and per-stage accounting still sums
  exactly to the total cycle count.

The scheduler and its heap live inside the simulator's checkpointed
object graph, so rollback restores the pending wake-ups and the jump
bookkeeping along with the machine, and replayed cycles re-arm their own
wake-ups without double-counting.
"""

from __future__ import annotations

from repro.sim.events import NEVER, next_after


class EventScheduler:
    """Wake-up discovery plus skip crediting for one simulator.

    Attached by :class:`~repro.sim.accelerator.AcceleratorSim` when
    ``SimConfig.engine == "event"``.  Attaching plants the wake heap on
    the simulator (``sim.wakes``) and the memory system
    (``memory.wakes``) so issue paths arm wake-ups from then on.
    ``cycle_stalls`` collects the ``(stage, reason)`` stall records of
    the cycle being executed; when that cycle turns out to be quiescent,
    those records describe exactly what every skipped cycle would have
    recorded.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.jumps = 0
        self.cycles_skipped = 0
        # Stall records of the current (probe) cycle: (stage, reason).
        self.cycle_stalls: list = []
        # Optional jump journal for tests: (from_cycle, to_cycle, wake).
        self.log: list[tuple[int, int, int]] | None = None
        self.wakes: list[int] = []
        sim.wakes = sim.memory.wakes = self.wakes

    # -- wake-up discovery -----------------------------------------------------

    def next_wakeup(self, now: int) -> int:
        """Earliest cycle > ``now`` at which any component could act.

        The wake heap answers for memory completions and function-unit
        timers; pending event deliveries are a peek at the event heap
        (itself a priority queue); the remaining scalar clocks are read
        directly.
        """
        sim = self.sim
        wake = next_after(self.wakes, now)
        heap = sim._event_heap
        if heap and heap[0][0] < wake:
            wake = heap[0][0]
        when = self._next_broadcast_cycle(now)
        if when < wake:
            wake = when
        if sim.faults is not None:
            when = sim.faults.next_event_cycle(now)
            if when < wake:
                wake = when
        if sim.checkpoints is not None:
            when = sim.checkpoints.next_event_cycle(now)
            if when < wake:
                wake = when
        if sim.checker is not None:
            when = sim.checker.next_check_cycle(now)
            if when < wake:
                wake = when
        return wake

    def _next_broadcast_cycle(self, now: int) -> int:
        """Next minimum-broadcast boundary, if broadcasting would matter.

        A broadcast only changes state when some awaited, undecided rule
        lane's parent ties the (stationary) minimum; when no lane would
        trigger, every boundary inside the skipped span is a no-op and
        needs no wake-up.
        """
        sim = self.sim
        if sim.spec.otherwise_scope == "global":
            minimum = sim.tracker.minimum()
            fire = any(
                engine.would_fire_otherwise(minimum)
                for engine in sim._engine_list
            )
        else:
            fire = any(
                engine.would_fire_otherwise(engine.min_allocated_index())
                for engine in sim._engine_list
            )
        if not fire:
            return NEVER
        interval = sim.config.minimum_broadcast_interval
        return ((now // interval) + 1) * interval

    # -- the jump --------------------------------------------------------------

    def jump_target(self) -> int:
        """Where to move the clock after a quiescent cycle.

        Every quiescent gap, even a single cycle, is jumped: a probe is
        a heap peek, so skipping never costs more than stepping.  The
        target is clamped so the run loop's limit checks (max_cycles,
        the deadlock window) fire at exactly the cycle they would in
        dense mode.
        """
        sim = self.sim
        wake = self.next_wakeup(sim.cycle - 1)
        cap = min(
            sim.config.max_cycles,
            sim._last_progress_cycle + sim.config.deadlock_window + 1,
        )
        target = min(max(wake, sim.cycle), cap)
        if target <= sim.cycle:
            return sim.cycle
        if self.log is not None:
            self.log.append((sim.cycle, target, wake))
        return target

    def skip_to(self, target: int) -> None:
        """Jump the clock forward to ``target``, crediting the skipped
        cycles.

        Every skipped cycle is an exact repeat of the probe cycle, so
        its stall records are replayed ``skipped`` times into what is
        read: per-stage stall counters and the queue-full counter.  One
        ``skip`` probe emission hands the same records to any consumer
        (the stall-attribution profiler keeps per-stage rows summing
        exactly to the total cycle count).
        """
        sim = self.sim
        skipped = target - sim.cycle
        for stage, reason in self.cycle_stalls:
            stage.credit_skipped_stalls(reason, skipped)
        if sim.probe is not None:
            sim.probe.skip(sim.cycle, skipped, self.cycle_stalls)
        # Dense mode refreshes the progress watermark on every cycle
        # with an outstanding memory completion still in the future.
        # While the horizon lies ahead, the request that set it is still
        # outstanding; once it has passed, horizon - 1 is at or below
        # _last_progress_cycle already, and this is a no-op.
        watermark = min(target - 1, sim.memory.horizon - 1)
        if watermark > sim._last_progress_cycle:
            sim._last_progress_cycle = watermark
        self.jumps += 1
        self.cycles_skipped += skipped
        sim.cycle = target
        sim.stats.cycles = target
