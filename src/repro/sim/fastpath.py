"""Idle-cycle skipping for the cycle simulator: the event engine.

The dense core advances every stage, queue bank, rule lane, and memory
channel on every cycle, even when the whole accelerator is quiescent
waiting on a 200 ns QPI miss — exactly the irregular-latency pattern the
paper's memory subsystem (Figure 7, Choi et al. timing constants)
produces.  The event engine (``SimConfig.engine="event"``) skips those
idle cycles: when a whole cycle passes in which *nothing* made progress,
the scheduler jumps the clock straight to the earliest pending wake-up.

Wake-up contract (what the jump reads):

* The head of the simulator's ``alarms`` heap.  A stage that waits on
  the clock (a Load's requests, an Expand head's row stream, a Call's
  timer and operand stream) sleeps with an alarm ``(cycle, order)`` at
  that completion; every other sleeper waits on a handshake, which
  only a firing or a silent mutation gives.
* The host's in-flight batch DMA, whose completion cycle the host
  keeps (``host._transfer_done``): the host never sleeps, so it is read
  at probe time.
* The head of ``_event_heap``, the pending rule-engine deliveries.
* Fault-plan window boundaries, checkpoint captures, invariant-checker
  passes, and the minimum-broadcast boundary (only when a broadcast
  would actually fire an otherwise): scalars read at probe time.

Cycle-exactness argument (see docs/simulator.md for the full version):

* A cycle with no progress (no stage fired, no silent station/queue/host
  mutation, no event delivered, no otherwise triggered) leaves the
  machine state *stationary*: every stage's decision next cycle depends
  only on that unchanged state plus the clock.
* After it, every stage whose tick guard holds is asleep, and each that
  waits on the clock holds an alarm no later than its completion (the
  sanitizer's ``stage-alarm``); the rest change only at the sources
  above.
* Therefore every skipped cycle would have been an exact repeat of the
  probe cycle just executed.  Every stage that stalled in that cycle
  changed nothing else, so it went to sleep and its stall run simply
  spans the skipped cycles: nothing is credited at the jump.

The scheduler and the alarms live inside the simulator's checkpointed
object graph, so rollback restores the pending wake-ups and the jump
bookkeeping along with the machine.
"""

from __future__ import annotations

from repro.sim.events import NEVER


class EventScheduler:
    """Wake-up discovery plus skip crediting for one simulator.

    Attached by :class:`~repro.sim.accelerator.AcceleratorSim` when
    ``SimConfig.engine == "event"``; a stage whose simulator has one
    (``sim.ff``) sleeps through its stalls.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.jumps = 0
        self.cycles_skipped = 0
        # Optional jump journal for tests: (from_cycle, to_cycle, wake).
        self.log: list[tuple[int, int, int]] | None = None

    # -- wake-up discovery -----------------------------------------------------

    def next_wakeup(self, now: int) -> int:
        """Earliest cycle > ``now`` at which any component could act.

        The alarm heap's head answers for every stage asleep on the
        clock; pending event deliveries are a peek at the event heap
        (itself a priority queue); the host's batch DMA and the
        remaining scalar clocks are read directly.
        """
        sim = self.sim
        alarms = sim.alarms
        wake = alarms[0][0] if alarms else NEVER
        transfer = sim.host._transfer_done
        if transfer is not None and transfer < wake:
            wake = transfer
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
        """Jump the clock forward to ``target``.

        Every skipped cycle is an exact repeat of the probe cycle, whose
        stalled stages all sleep: their open stall runs cover the
        skipped cycles and are credited when they end.
        """
        sim = self.sim
        skipped = target - sim.cycle
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
