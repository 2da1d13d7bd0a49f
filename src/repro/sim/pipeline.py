"""Task pipelines: stage chains instantiated from a StageProgram."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.obs.events import StallReason
from repro.sim.stages import (
    RendezvousStage,
    Stage,
    SwitchStage,
    make_stage,
)
from repro.sim.token import SimToken
from repro.synthesis.datapath import StageProgram, StageSpec


class SourceStage(Stage):
    """Queue pop port: turns workset entries into pipeline tokens."""

    __slots__ = ("task_set", "queue")

    def __init__(self, ctx, task_set: str, name: str) -> None:
        super().__init__(ctx, None, name)
        self.task_set = task_set
        self.queue = ctx.queues[task_set]

    def tick(self) -> None:
        queue = self.queue
        if not len(queue):
            # Every branch below is side-effect-free on an empty queue
            # (a refused pop leaves the wavefront where it was).
            return
        if not self.can_send():
            self._stall(StallReason.BACKPRESSURE)
            return
        credits = self.ctx.admission_credits
        if credits is not None and credits[self.task_set] <= 0:
            # Admission credits are bounded by the rule-lane count.
            self._stall(StallReason.RULE)
            return
        popped = queue.pop()
        if popped is None:
            # Work is queued but every bank refused the pop (faults).
            self._stall(StallReason.QUEUE)
            return
        if credits is not None:
            credits[self.task_set] -= 1
        index, fields, live_handle = popped
        token = SimToken(
            env=dict(fields),
            index=index,
            task_set=self.task_set,
            uid=self.ctx.next_token_uid(),
            live_handle=live_handle,
        )
        token.task_uid = token.uid
        self.send(token)
        if self.ctx.probe is not None:
            self.ctx.probe.born(self.ctx.cycle, self.name, token.uid,
                                live_handle, self.task_set, len(queue))
        self.mark_active()

    def busy(self) -> bool:
        return False  # the queue itself tracks pending work


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

    def tick(self) -> None:
        for stage in self.stages:
            stage.tick()

    def commit_fifos(self) -> None:
        for stage in self.stages:
            stage.input.commit()

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
