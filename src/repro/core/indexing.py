"""Well-order task indices (Section 4.1, Figure 5).

Given M (juxtaposed or nested) loops, each task carries an M-tuple index —
one natural number per loop, loops ordered left-to-right as they appear in
the program, left positions weighing more in the order.  ``for-each`` loops
index tasks by activation sequence (a per-loop counter); ``for-all`` loops
label every task 0 so all its tasks compare equal at that position.  Indices
of preceding loops are inherited by tasks activated from within them;
positions for loops that are not ancestors are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import SpecificationError


@dataclass(frozen=True, order=True)
class TaskIndex:
    """An M-tuple well-order index.

    Lexicographic tuple comparison implements the paper's weighting: the
    leftmost position (outermost / earliest loop) dominates.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.positions, default=0) < 0:
            raise SpecificationError(
                f"index positions must be non-negative, got {self.positions}"
            )

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def earlier_than(self, other: "TaskIndex") -> bool:
        """Strictly earlier in the well-order (plain tuple comparison)."""
        return self.positions < other.positions

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first ``length`` positions (what a child task inherits)."""
        return self.positions[:length]

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.positions) + "}"


class LoopNest:
    """Assigns M-tuple indices to tasks activated from a loop arrangement.

    The nest is declared once per application: ``loops`` maps each loop
    (task-set) name to its position 0..M-1 and its kind.  During execution,
    :meth:`index_for` mints the index of a newly activated task given the
    activating parent's index — implementing exactly the scheme of Figure 5:

    * positions of loops at or left of the child's loop that are *ancestors*
      (i.e. the parent's prefix) are inherited,
    * the child's own position gets ``counter++`` for a for-each loop and
      ``0`` for a for-all loop,
    * all positions right of the child's loop are 0.
    """

    def __init__(self, loops: list[tuple[str, str]]) -> None:
        """``loops``: ordered ``(name, kind)`` pairs, kind in {for-each, for-all}."""
        if not loops:
            raise SpecificationError("a loop nest needs at least one loop")
        names = [name for name, _ in loops]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate loop names in {names}")
        for name, kind in loops:
            if kind not in ("for-each", "for-all"):
                raise SpecificationError(
                    f"loop {name!r} kind must be for-each or for-all, got {kind!r}"
                )
        self._order: dict[str, int] = {name: i for i, (name, _) in enumerate(loops)}
        self._kind: dict[str, str] = dict(loops)
        self._counters: dict[str, int] = {name: 0 for name, _ in loops}

    @property
    def width(self) -> int:
        """M — the number of loops, hence tuple width."""
        return len(self._order)

    def kind_of(self, loop: str) -> str:
        try:
            return self._kind[loop]
        except KeyError:
            raise SpecificationError(f"unknown loop {loop!r}") from None

    def position_of(self, loop: str) -> int:
        try:
            return self._order[loop]
        except KeyError:
            raise SpecificationError(f"unknown loop {loop!r}") from None

    def reset(self) -> None:
        """Zero all for-each counters (start of a fresh execution)."""
        for name in self._counters:
            self._counters[name] = 0

    def root_index(self, loop: str) -> TaskIndex:
        """Index for an initial task seeded into ``loop`` before execution."""
        return self.index_for(loop, parent=None)

    def index_for(self, loop: str, parent: TaskIndex | None) -> TaskIndex:
        """Mint the index of a task activated into ``loop``.

        ``parent`` is the index of the activating task (None for initial
        seeding).  Positions left of ``loop`` are inherited from the parent,
        the ``loop`` position is the for-each counter (or 0 for for-all),
        and later positions are zero.
        """
        pos = self.position_of(loop)
        positions = [0] * self.width
        if parent is not None:
            inherited = parent.prefix(pos)
            positions[: len(inherited)] = inherited
        if self._kind[loop] == "for-each":
            positions[pos] = self._counters[loop]
            self._counters[loop] += 1
        return TaskIndex(tuple(positions))
