"""Application specifications: the complete MoC-level artifact.

An :class:`ApplicationSpec` bundles everything the paper's abstraction
captures about one irregular application:

* the loop nest (task sets, their kinds, their well-order),
* one kernel (task body) per task set,
* the compiled ECA rules,
* how to build the initial program state and seed the initial tasks,
* an optional host feed (DMR and COOR-LU stream tasks in from the host),
* a verification oracle establishing Definition 4.3's correctness criterion
  (equivalence with sequential execution).

The same spec is consumed by three interpreters: the sequential reference
runtime, the aggressive software (debug) runtime, and — after lowering to
BDFG and template mapping — the cycle-level accelerator simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.indexing import LoopNest, TaskIndex
from repro.core.kernel import Kernel
from repro.core.rule import RuleType
from repro.core.state import MemorySpace
from repro.core.task import LoopKind, TaskSetDecl
from repro.errors import SpecificationError

# A seeded task: (task_set_name, field dict)
SeedTask = tuple[str, dict[str, Any]]

# How IndexMinter builds a TaskIndex without the dataclass __init__ (the
# generated frozen __init__ assigns through object.__setattr__ too).
_new_object = object.__new__
_set_attribute = object.__setattr__


@dataclass(frozen=True)
class HostFeed:
    """Host-side incremental task injection (Section 6.1, DMR and LU).

    ``batches`` yields successive lists of seed tasks.  The accelerator
    simulator charges each batch's transfer to the QPI channel (host->FPGA
    direction), which is what makes these applications' speedup scale
    linearly with bandwidth in Figure 10.

    Every batch must follow from the initial state alone (SPEC-DMR's bad
    triangles of the starting mesh, COOR-LU's precomputed task list): the
    simulator draws them all at cycle 0, before any task runs, so a
    checkpoint keeps only its position in the drawn list.
    """

    batches: Callable[[MemorySpace], Iterator[list[SeedTask]]]
    bytes_per_task: int = 16


@dataclass
class ApplicationSpec:
    """A complete specification of one irregular application."""

    name: str
    mode: str  # "speculative" | "coordinative"
    task_sets: dict[str, TaskSetDecl]
    kernels: dict[str, Kernel]
    rules: dict[str, RuleType]
    make_state: Callable[[], MemorySpace]
    initial_tasks: Callable[[MemorySpace], list[SeedTask]]
    verify: Callable[[MemorySpace], None]
    host_feed: HostFeed | None = None
    priority_fields: dict[str, str] = field(default_factory=dict)
    description: str = ""
    # How the otherwise clause's "minimum waiting task" is scoped on FPGA:
    # "lanes" — minimum over the rule engine's own allocated lanes (the
    # paper's Figure 8 broadcast; deadlock-free, correct for applications
    # whose commits are monotone or revalidating);
    # "global" — minimum over every live task (required when commit order
    # itself is the correctness condition, e.g. Kruskal's weight order;
    # paired with ordered_admission so the minimum can always reach its
    # rendezvous).
    otherwise_scope: str = "lanes"
    # Credit-limit pipeline admission to the rule-lane count and pop the
    # queue minimum-first (a deterministic-reservation window in hardware).
    ordered_admission: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("speculative", "coordinative"):
            raise SpecificationError(
                f"mode must be speculative or coordinative, got {self.mode!r}"
            )
        if self.otherwise_scope not in ("lanes", "global"):
            raise SpecificationError(
                f"otherwise_scope must be lanes or global, "
                f"got {self.otherwise_scope!r}"
            )
        if set(self.kernels) != set(self.task_sets):
            raise SpecificationError(
                f"spec {self.name!r}: kernels {sorted(self.kernels)} do not "
                f"match task sets {sorted(self.task_sets)}"
            )
        for kernel in self.kernels.values():
            kernel.validate()
        for task_set, fieldname in self.priority_fields.items():
            decl = self.task_sets.get(task_set)
            if decl is None:
                raise SpecificationError(
                    f"priority field for unknown task set {task_set!r}"
                )
            if fieldname not in decl.fields:
                raise SpecificationError(
                    f"priority field {fieldname!r} not a field of {task_set!r}"
                )

    # -- well-order management ------------------------------------------------

    def make_loop_nest(self) -> "IndexMinter":
        """A fresh index minter for one execution of this application."""
        return IndexMinter(self)

    def rule_for_rendezvous(self, kernel: Kernel) -> dict[str, str]:
        """Map rendezvous labels to the rule allocated before them."""
        mapping: dict[str, str] = {}
        pending: list[str] = []
        from repro.core.kernel import AllocRule, Rendezvous

        for op in kernel.ops:
            if isinstance(op, AllocRule):
                pending.append(op.rule_name)
            elif isinstance(op, Rendezvous):
                if not pending:
                    raise SpecificationError(
                        f"kernel {kernel.task_set!r}: rendezvous "
                        f"{op.label!r} has no preceding AllocRule"
                    )
                mapping[op.label] = pending.pop(0)
        return mapping


class IndexMinter:
    """Mints well-order indices for one execution (the :class:`LoopNest`
    scheme, planned once per task set).

    Extends the paper's Figure 5 scheme with *priority-indexed* task sets:
    when a task set declares a priority field, the position value is taken
    from that data field instead of an activation counter, so tasks of equal
    priority tie in the well-order (this is how COOR-BFS's "all Visits with
    minimum level execute simultaneously" is expressed — the implicit outer
    loop over levels is the for-each, the Visits within a level the for-all).
    A for-each set's counter still advances when a priority overrides it.

    Each task set's plan — its loop position, the zero positions right of
    it, whether it counts (for-each) and its priority field — is fixed by
    the spec, so :meth:`mint` only joins the parent's prefix, the set's
    value and the zero tail.  Every position it joins is non-negative but
    a priority, which it checks itself, so it builds the
    :class:`TaskIndex` without the dataclass ``__init__``.  ``parent``
    must be an index of this execution (``width`` positions).
    """

    def __init__(self, spec: ApplicationSpec) -> None:
        nest = LoopNest([
            (name, decl.kind.value) for name, decl in spec.task_sets.items()
        ])
        self.width = nest.width
        # Per task set: (position, root head, zero tail, for-each,
        # priority field); the root head is a seeded task's prefix.
        self._plans: dict[str, tuple] = {}
        for name, decl in spec.task_sets.items():
            pos = nest.position_of(name)
            self._plans[name] = (
                pos, (0,) * pos, (0,) * (nest.width - pos - 1),
                decl.kind is LoopKind.FOR_EACH,
                spec.priority_fields.get(name),
            )
        self._counters: dict[str, int] = dict.fromkeys(spec.task_sets, 0)

    @property
    def counters(self) -> dict[str, int]:
        """Each for-each set's next counter value (a copy)."""
        return dict(self._counters)

    def mint(
        self,
        task_set: str,
        fields: Mapping[str, Any],
        parent: TaskIndex | None,
    ) -> TaskIndex:
        try:
            pos, head, tail, for_each, priority_field = \
                self._plans[task_set]
        except KeyError:
            raise SpecificationError(f"unknown loop {task_set!r}") from None
        value = 0
        if for_each:
            counters = self._counters
            value = counters[task_set]
            counters[task_set] = value + 1
        if parent is not None:
            head = parent.positions[:pos]
        if priority_field is not None:
            value = int(fields[priority_field])
            if value < 0:
                raise SpecificationError(
                    "index positions must be non-negative, got "
                    f"{head + (value,) + tail}"
                )
        index = _new_object(TaskIndex)
        _set_attribute(index, "positions", head + (value,) + tail)
        return index

    def reset(self) -> None:
        """Zero all for-each counters (start of a fresh execution)."""
        for name in self._counters:
            self._counters[name] = 0


def make_task_sets(
    decls: Sequence[tuple[str, str, tuple[str, ...]]]
) -> dict[str, TaskSetDecl]:
    """Convenience builder: ``(name, kind, fields)`` triples, in loop order."""
    result: dict[str, TaskSetDecl] = {}
    for name, kind, fields in decls:
        result[name] = TaskSetDecl(name, LoopKind.parse(kind), tuple(fields))
    return result
