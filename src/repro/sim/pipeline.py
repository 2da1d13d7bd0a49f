"""Task pipelines: stage chains instantiated from a StageProgram."""

from __future__ import annotations

import re
from operator import attrgetter
from types import CodeType

from repro.errors import SimulationError
from repro.sim.stages import (
    BACKPRESSURE,
    QUEUE,
    RULE,
    RendezvousStage,
    Stage,
    SwitchStage,
    make_stage,
)
from repro.sim.token import SimToken
from repro.synthesis.datapath import StageProgram, StageSpec

# A {dotted.path} operand of a stage's tick_guard.
_GUARD_OPERAND = re.compile(r"\{([\w.]+)\}")

# Generated stage-pass source -> its code object.  The source depends only
# on the stages' kinds and order, so simulators of one shape (sweep jobs,
# checkpoint revives, repeated runs) compile it once.  Code objects are
# immutable: sharing one shares no state between simulators.
_PASS_CODE: dict[str, CodeType] = {}


class SourceStage(Stage):
    """Queue pop port: turns workset entries into pipeline tokens."""

    __slots__ = ("task_set", "queue")

    def __init__(self, ctx, task_set: str, name: str) -> None:
        super().__init__(ctx, None, name)
        self.task_set = task_set
        self.queue = ctx.queues[task_set]
        self.queue.ports.append(self)

    # The queue's kept size: tick() returns first while it is zero.
    tick_guard = "{queue}._size"

    def tick(self) -> None:
        queue = self.queue
        if not queue._size:
            # Every branch below is side-effect-free on an empty queue
            # (a refused pop leaves the wavefront where it was).
            return
        out = self.output  # a source always feeds a stage
        if not out.free:
            self._stall(BACKPRESSURE, out)
            return
        ctx = self.ctx
        credits = ctx.admission_credits
        if credits is not None and credits[self.task_set] <= 0:
            # Admission credits are bounded by the rule-lane count.
            self._stall(RULE, waiters=ctx.credit_sleepers[self.task_set])
            return
        popped = queue.pop()
        if popped is None:
            # Work is queued but every bank refused the pop (faults).
            self._stall(QUEUE, waiters=queue.sleepers)
            return
        if credits is not None:
            credits[self.task_set] -= 1
        if not queue._size:
            # The guard of every sibling port on this queue turns false
            # here: a sibling asleep on a stall would stall this cycle
            # only if it ticks before this port.
            for port in queue.ports:
                if port.wait:
                    port.credit_run(ctx.cycle + (port.order < self.order))
                    port.wait = 0
        index, fields, live_handle = popped
        uid = next(ctx._token_uids)
        token = SimToken(dict(fields), index, self.task_set, uid, uid,
                         live_handle)
        ctx.live_tokens += 1
        out._staged.append(token)
        out.free -= 1
        if ctx.probe is not None:
            ctx.probe.born(ctx.cycle, self.name, token.uid,
                           live_handle, self.task_set, queue._size)
        self.active_cycles += 1
        ctx.active_stages_this_cycle += 1

    def busy(self) -> bool:
        return False  # the queue itself tracks pending work


def compile_stage_pass(stages: list[Stage]):
    """The per-cycle stage pass over ``stages`` as generated code.

    Returns ``(stage_ticks, fifo_commits)``: straight-line functions that
    tick every stage in list order behind its kind's ``tick_guard``, then
    commit every stage's input FIFO in the same order.  A sleeping stage
    is skipped, and a woken one closes its stall run (``credit_run``)
    and ticks; a commit into an empty input wakes a stage whose kind
    ``wakes_on_input``.
    Every object they touch is bound here, once, so a cycle runs no list
    loop and no attribute chasing.  They hold these very stages: a deep
    copy of the simulator must bind its own pass.  The code object is
    shared by every pass of the same source; only the bound objects are
    per call.
    """
    bound: dict[str, object] = {"ctx": stages[0].ctx if stages else None}
    ticks, commits = [], []
    for n, stage in enumerate(stages):
        guard = stage.tick_guard
        paths = dict.fromkeys(_GUARD_OPERAND.findall(guard))
        for k, path in enumerate(paths):
            bound[f"a{n}_{k}"] = attrgetter(path)(stage)
            guard = guard.replace("{" + path + "}", f"a{n}_{k}")
        bound[f"s{n}"] = stage
        bound[f"t{n}"] = stage.tick
        ticks += [f"    if {guard}:",
                  f"        if not s{n}.wait: t{n}()",
                  f"        elif s{n}.wait == 2:",
                  f"            s{n}.wait = 0",
                  f"            if ctx.cycle > s{n}.since:",
                  f"                s{n}.credit_run(ctx.cycle)",
                  f"            t{n}()"]
        bound[f"v{n}"] = stage.input._items
        bound[f"g{n}"] = stage.input._staged
        if stage.wakes_on_input:
            # A station asleep with input visible is full, and more
            # input changes nothing; one with none wakes on the first.
            commits += [f"    if g{n}:",
                        f"        if not v{n}: s{n}.wake()",
                        f"        v{n}.extend(g{n}); g{n}.clear()"]
        else:
            commits.append(f"    if g{n}: v{n}.extend(g{n}); g{n}.clear()")
    source = "\n".join([
        "def stage_ticks():", *(ticks or ["    pass"]),
        "def fifo_commits():", *(commits or ["    pass"]),
    ])
    # The bound objects are the functions' globals.  This module's
    # __name__ among them lets the host-time layer sampler, which maps a
    # frame by its globals' __name__, charge the pass to sim.stages.
    # The functions are taken out, so the namespace holds no cycle.
    code = _PASS_CODE.get(source)
    if code is None:
        code = _PASS_CODE[source] = compile(source, "<stage pass>", "exec")
    namespace = {"__name__": __name__, **bound}
    exec(code, namespace)
    return namespace.pop("stage_ticks"), namespace.pop("fifo_commits")


class PipelineInstance:
    """One replica of a task set's pipeline."""

    def __init__(self, ctx, program: StageProgram, replica: int) -> None:
        self.ctx = ctx
        self.task_set = program.task_set
        self.name = f"{program.task_set}[{replica}]"
        self.stages: list[Stage] = []
        source = SourceStage(ctx, program.task_set, f"{self.name}.source")
        self.stages.append(source)
        first = self._build_chain(program.stages, terminal_outcome="commit")
        if first is None:
            raise SimulationError(
                f"pipeline {self.name} has no stages after the source"
            )
        source.output = first.input

    def _build_chain(
        self, specs: list[StageSpec], terminal_outcome: str
    ) -> Stage | None:
        """Build a chain of stages; returns the head stage (or None)."""
        head: Stage | None = None
        previous: Stage | None = None
        for position, spec in enumerate(specs):
            stage = make_stage(
                self.ctx, spec.op, f"{self.name}.{position}.{spec.kind.value}"
            )
            if spec.epilogue:
                epilogue_head = self._build_chain(
                    spec.epilogue, terminal_outcome="end"
                )
                if isinstance(stage, (SwitchStage, RendezvousStage)):
                    stage.epilogue_entry = epilogue_head.input
                else:
                    raise SimulationError(
                        f"{stage.name}: epilogue on a non-steering stage"
                    )
            self.stages.append(stage)
            if previous is not None:
                previous.output = stage.input
            else:
                head = stage
            previous = stage
        if previous is not None:
            previous.output = None
            previous.on_retire = terminal_outcome
        return head

    def busy(self) -> bool:
        return any(stage.busy() for stage in self.stages)

    def stage_count(self) -> int:
        return len(self.stages)

    def stuck_report(self) -> list[str]:
        """Diagnostics for deadlock errors."""
        report = []
        for stage in self.stages:
            tokens = stage.drain_tokens()
            extra = getattr(stage, "station", None) or \
                getattr(stage, "in_flight", None)
            if tokens or extra:
                report.append(
                    f"{stage.name}: queued={len(tokens)} "
                    f"internal={len(extra) if extra else 0}"
                )
        return report
