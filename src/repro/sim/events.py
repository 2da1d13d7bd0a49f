"""The event engine's wake-up queue.

Components *register* their wake-ups here at the moment they schedule
future work, so finding the next cycle at which anything can happen is
a heap peek, not a scan of the machine.  The scheduler that reads the
queue and skips idle cycles lives in :mod:`repro.sim.fastpath`.

:class:`WakeQueue` is a heapq of ``(cycle, seq, key)`` entries with a
monotonically increasing ``seq`` as a stable FIFO tie-break, so
same-cycle wake-ups are always observed in registration order and the
engine is deterministic.  Keyed entries support O(1) ``cancel`` /
re-``arm`` via lazy deletion: a dead entry is discarded when it reaches
the heap top, or all at once when dead entries outnumber live ones (a
run with few idle probes would otherwise keep one per retired memory
request).  The queue lives inside the simulator's checkpointed object
graph, so rollback restores the pending heap along with the machine.
"""

from __future__ import annotations

import heapq

__all__ = ["WakeQueue", "NEVER"]

# Sentinel for "no wake-up scheduled" — far beyond any max_cycles.
NEVER = 1 << 62


class WakeQueue:
    """A deterministic wake-up heap with keyed cancel/re-arm.

    Entries are ``(cycle, seq, key)`` tuples ordered by cycle, then by
    registration (``seq``), so iteration order is a pure function of
    the arm() call sequence.  ``key=None`` entries are anonymous
    one-shots; keyed entries can be cancelled or re-armed, with stale
    heap entries discarded lazily when they surface.
    """

    __slots__ = ("_heap", "_seq", "_armed", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        # key -> seq of its only live entry; a heap entry whose seq no
        # longer matches was cancelled or superseded by a re-arm.
        self._armed: dict = {}
        # Heap entries cancelled or superseded and not yet discarded.
        self._dead = 0

    def arm(self, cycle: int, key=None) -> None:
        """Register a wake-up at ``cycle``; re-arming a key moves it."""
        seq = self._seq
        self._seq += 1
        if key is not None:
            if key in self._armed:
                self._dead += 1
            self._armed[key] = seq
        heapq.heappush(self._heap, (cycle, seq, key))
        self._maybe_compact()

    def cancel(self, key) -> None:
        """Drop a keyed wake-up (no-op when absent — retire races are
        legal: the entry may already have fired or been re-armed)."""
        if self._armed.pop(key, None) is not None:
            self._dead += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Discard every dead entry once they are the majority.

        ``(cycle, seq)`` orders entries totally, so the rebuilt heap
        pops in exactly the order the old one would have; each rebuild
        follows at least half a heap's worth of cancels, so it costs
        O(1) amortized per cancel.
        """
        if 2 * self._dead > len(self._heap):
            self._heap = [e for e in self._heap if self._live(e)]
            heapq.heapify(self._heap)
            self._dead = 0

    def _live(self, entry) -> bool:
        _cycle, seq, key = entry
        return key is None or self._armed.get(key) == seq

    def next_after(self, now: int) -> int:
        """Earliest live wake-up cycle strictly after ``now``.

        Entries at or before ``now`` are spent — the probe cycle that
        consumed them has already executed — and are popped along with
        dead (cancelled/superseded) entries.  Returns ``NEVER`` when
        nothing is pending.
        """
        heap = self._heap
        while heap:
            cycle, seq, key = heap[0]
            if key is not None and self._armed.get(key) != seq:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if cycle <= now:
                heapq.heappop(heap)
                if key is not None:
                    del self._armed[key]
                continue
            return cycle
        return NEVER

    # -- introspection (tests, checkpoint assertions) -------------------------

    def pop_due(self, now: int) -> list[tuple[int, object]]:
        """Pop and return all live wake-ups at or before ``now``, as
        ``(cycle, key)`` in delivery order (cycle, then registration)."""
        fired: list[tuple[int, object]] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            cycle, seq, key = heapq.heappop(heap)
            if key is not None:
                if self._armed.get(key) != seq:
                    self._dead -= 1
                    continue
                del self._armed[key]
            fired.append((cycle, key))
        return fired

    def pending(self) -> list[tuple[int, int, object]]:
        """The live entries, sorted in delivery order (non-destructive)."""
        return sorted(e for e in self._heap if self._live(e))

    def __len__(self) -> int:
        return sum(1 for e in self._heap if self._live(e))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeQueue({self.pending()!r})"
