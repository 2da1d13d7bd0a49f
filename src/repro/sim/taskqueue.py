"""Multi-bank task queues with a wavefront allocator (Section 5.2).

Each active task set gets one queue.  Entries are (index, fields) pairs;
tasks pop in FIFO order per bank, with a rotating wavefront matching banks
to push/pop ports each cycle for load balance — the hardware equivalent of
a software thread pool, "much more approachable on FPGAs".
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.core.indexing import TaskIndex
from repro.errors import SimulationError
from repro.sim.events import wake_all


class MultiBankTaskQueue:
    """Banked workset for one task set.

    ``pop_policy`` is "fifo" for unordered sets or "priority" for
    priority-indexed sets: the pop port then returns the minimum well-order
    index across the bank heads plus one comparator deep into each bank —
    the multi-bank double-ended queue the paper sketches for ordered
    worksets (the hardware analogue of Kulkarni et al.'s priority queues).
    """

    def __init__(
        self, task_set: str, banks: int = 4, depth_per_bank: int = 1024,
        pop_policy: str = "fifo", faults=None,
    ) -> None:
        if banks < 1 or depth_per_bank < 1:
            raise SimulationError("queue needs positive banks and depth")
        if pop_policy not in ("fifo", "priority"):
            raise SimulationError(f"unknown pop policy {pop_policy!r}")
        self.task_set = task_set
        self.faults = faults
        self.banks: list[deque] = [deque() for _ in range(banks)]
        self.depth_per_bank = depth_per_bank
        self.capacity = banks * depth_per_bank
        self.pop_policy = pop_policy
        self._heaps: list[list] = [[] for _ in range(banks)]
        self._serial = 0
        self._push_wave = 0
        self._pop_wave = 0
        # Occupancy kept where it changes (push/pop), so the pop port's
        # per-cycle emptiness test and can_push never sum over the banks.
        self._size = 0
        self.pushes = 0
        self.pops = 0
        # The pop ports (SourceStages) reading this queue, in pass order,
        # and the stages asleep until its occupancy changes: pushers on a
        # full queue, ports whose pops every bank refused.
        self.ports: list = []
        self.sleepers: list = []

    # -- capacity ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def can_push(self, count: int = 1) -> bool:
        return self.capacity - self._size >= count

    # -- wavefront ports -----------------------------------------------------

    def push(self, index: TaskIndex, fields: dict[str, Any],
             live_handle: int) -> None:
        """Push through the wavefront allocator (next bank with space)."""
        for offset in range(len(self.banks)):
            slot = (self._push_wave + offset) % len(self.banks)
            bank = self.banks[slot]
            if len(bank) < self.depth_per_bank:
                entry = (index, fields, live_handle)
                if self.pop_policy == "priority":
                    heapq.heappush(
                        self._heaps[slot],
                        (index.positions, self._serial, entry),
                    )
                    self._serial += 1
                    bank.append(None)  # occupancy marker
                else:
                    bank.append(entry)
                self._push_wave = (slot + 1) % len(self.banks)
                self.pushes += 1
                self._size += 1
                if self.sleepers:
                    wake_all(self.sleepers)
                return
        raise SimulationError(f"push into full task queue {self.task_set!r}")

    def pop(self) -> tuple[TaskIndex, dict[str, Any], int] | None:
        """Pop the next task.

        FIFO policy rotates the wavefront over non-empty banks; priority
        policy pops the minimum index across the per-bank heap heads.
        """
        faults = self.faults
        if self.pop_policy == "priority":
            best_slot = -1
            best_key = None
            for slot, heap in enumerate(self._heaps):
                if faults is not None and \
                        faults.bank_stalled(self.task_set, slot):
                    continue
                if heap and (best_key is None or heap[0][0] < best_key):
                    best_key = heap[0][0]
                    best_slot = slot
            if best_slot < 0:
                return None
            _, _, entry = heapq.heappop(self._heaps[best_slot])
            self.banks[best_slot].pop()
            self.pops += 1
            self._size -= 1
            if self.sleepers:
                wake_all(self.sleepers)
            return entry
        for offset in range(len(self.banks)):
            slot = (self._pop_wave + offset) % len(self.banks)
            if faults is not None and \
                    faults.bank_stalled(self.task_set, slot):
                continue
            bank = self.banks[slot]
            if bank:
                self._pop_wave = (slot + 1) % len(self.banks)
                self.pops += 1
                self._size -= 1
                if self.sleepers:
                    wake_all(self.sleepers)
                return bank.popleft()
        return None

    def entries(self):
        """Yield every queued ``(index, fields, live_handle)`` entry.

        Non-destructive; used by the invariant checker's conservation walk.
        """
        if self.pop_policy == "priority":
            for heap in self._heaps:
                for _key, _serial, entry in heap:
                    yield entry
        else:
            for bank in self.banks:
                yield from bank

    def bank_occupancy(self) -> list[int]:
        return [len(b) for b in self.banks]
