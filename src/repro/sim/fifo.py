"""Hardware FIFOs with registered (next-cycle-visible) pushes.

Pushes made during cycle t become poppable at cycle t+1, which models the
one-cycle channel register between pipeline stages and — more importantly —
makes the simulation independent of the order components tick in.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


class Fifo(Generic[T]):
    """Bounded FIFO with staged pushes."""

    __slots__ = ("capacity", "name", "_items", "_staged", "sleeper")

    def __init__(self, capacity: int = 2, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("fifo capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque[T] = deque()
        self._staged: list[T] = []
        # The producer, while it sleeps on this FIFO being full (every
        # FIFO has one producer); the next pop wakes it.
        self.sleeper = None

    def __len__(self) -> int:
        return len(self._items) + len(self._staged)

    @property
    def visible(self) -> int:
        """Entries poppable this cycle."""
        return len(self._items)

    def can_push(self) -> bool:
        return len(self._items) + len(self._staged) < self.capacity

    def push(self, item: T) -> None:
        if len(self._items) + len(self._staged) >= self.capacity:
            raise SimulationError(f"push into full fifo {self.name!r}")
        self._staged.append(item)

    def peek(self) -> T:
        return self._items[0]

    def pop(self) -> T:
        if self.sleeper is not None:
            self.sleeper.wake()
            self.sleeper = None
        return self._items.popleft()

    def commit(self) -> None:
        """End of cycle: staged pushes become visible."""
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()

    def drain(self) -> list[T]:
        """All entries (visible and staged) — for diagnostics only."""
        return list(self._items) + list(self._staged)
