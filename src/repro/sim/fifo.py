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
    """Bounded FIFO with staged pushes and a kept ``free`` slot count.

    Stage firing sites spell the handshake in place, the same way at
    each: room is ``free``; a pop is ``_items.popleft()``, ``free += 1``
    and a wake of the ``sleeper``, which it then clears; a push is ``_staged.append`` and
    ``free -= 1``, after the room test.  A push into a full FIFO drives
    ``free`` negative: the dense engine's :meth:`commit` raises on it,
    and the invariant checker's ``fifo-capacity`` check catches it under
    either engine.
    """

    __slots__ = ("capacity", "name", "_items", "_staged", "sleeper", "free")

    def __init__(self, capacity: int = 2, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("fifo capacity must be >= 1")
        self.capacity = capacity
        self.free = capacity
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
        return self.free > 0

    def commit(self) -> None:
        """End of cycle: staged pushes become visible.  The event engine
        commits through its generated pass instead, without this check."""
        if self._staged:
            if self.free < 0:
                raise SimulationError(f"push into full fifo {self.name!r}")
            self._items.extend(self._staged)
            self._staged.clear()

    def drain(self) -> list[T]:
        """All entries (visible and staged) — for diagnostics only."""
        return list(self._items) + list(self._staged)
