"""The event engine's wake-up heap.

Components push the completion cycle of every future event they
schedule onto one min-heap of ints at the moment they schedule it, so
finding the next cycle at which anything can happen is a heap peek, not
a scan of the machine.  The scheduler that reads the heap and skips idle
cycles lives in :mod:`repro.sim.fastpath`.

An entry is one-shot and never withdrawn: a completion cycle is fixed
when it is scheduled, and nothing retires before its completion has
passed.  An entry at or before the current cycle is spent; spent entries
are dropped whenever a wake-up is armed and whenever the scheduler
probes, so the heap holds little more than the completions still in the
future.  Entries are bare cycles, so the order among equal cycles is
unobservable.  The heap lives inside the simulator's checkpointed
object graph, so rollback restores it along with the machine.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["NEVER", "arm", "next_after"]

# Sentinel for "no wake-up scheduled" — far beyond any max_cycles.
NEVER = 1 << 62


def arm(wakes: list[int], cycle: int, now: int) -> None:
    """Register a wake-up at ``cycle``, first dropping the entries
    spent by ``now``."""
    while wakes and wakes[0] <= now:
        heappop(wakes)
    heappush(wakes, cycle)


def next_after(wakes: list[int], now: int) -> int:
    """Earliest wake-up strictly after ``now`` (``NEVER`` when none).

    Entries at or before ``now`` are spent — the probe cycle that
    consumed them has already executed — and are dropped.
    """
    while wakes and wakes[0] <= now:
        heappop(wakes)
    return wakes[0] if wakes else NEVER
