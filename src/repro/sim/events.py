"""Shared wake-up helpers for the event engine.

A stage that sleeps (see :meth:`repro.sim.stages.Stage._sleep`) waits on
a handshake — a FIFO pop, a verdict, a returned credit, a queue change —
or, when it waits on the clock, on an alarm ``(cycle, order)`` on the
simulator's ``alarms`` heap.  The scheduler that reads those alarms and
skips idle cycles lives in :mod:`repro.sim.fastpath`; :func:`wake_all`
wakes the stages asleep on one of the lists components keep for them.
"""

from __future__ import annotations

__all__ = ["NEVER", "wake_all"]

# Sentinel for "no wake-up scheduled" — far beyond any max_cycles.
NEVER = 1 << 62


def wake_all(sleepers: list) -> None:
    """Wake every stage asleep on ``sleepers`` (a list of stages some
    component keeps), and empty it."""
    for stage in sleepers:
        stage.wake()
    sleepers.clear()
