"""Software runtimes: the reference interpreters for specifications.

Three drivers over the same :class:`~repro.core.spec.ApplicationSpec`, all
stepping task bodies through one :class:`TaskExecution`, the micro-thread
that applies a task body's primitive ops functionally to the MemorySpace:

* :class:`SequentialRuntime` — Definition 4.3: repeatedly apply the minimum
  active task.  Rules trivially resolve through their otherwise clause (the
  running task is always the minimum), so sequential semantics need no rule
  machinery — exactly why the paper calls rules pure parallelization
  artifacts.
* :class:`AggressiveRuntime` — the "pure software runtime ... to help
  programmers debug applications" of Section 4.4: W abstract workers
  advance in-flight tasks one primitive op per step, events are broadcast
  to live rules, and rendezvous block until rules return.  This exposes
  the interleavings the FPGA pipelines create, without timing.
* :class:`~repro.core.futures_runtime.FuturesRuntime` — Section 4.4's
  threads-and-futures implementation: the aggressive runtime's workers
  become OS threads, and a parent blocks on a future at its rendezvous.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.kernel import (
    AllocRule,
    Alu,
    Call,
    Const,
    Enqueue,
    Expand,
    Guard,
    Kernel,
    Label,
    Load,
    Op,
    Rendezvous,
    Store,
)
from repro.core.rule import RuleInstance
from repro.core.spec import ApplicationSpec, IndexMinter, SeedTask
from repro.core.state import MemorySpace
from repro.core.task import TaskInstance
from repro.errors import SchedulingError, SimulationError


@dataclass
class RuntimeStats:
    """Execution statistics shared by all software runtimes."""

    tasks_executed: int = 0
    tasks_committed: int = 0
    tasks_squashed: int = 0
    tasks_guard_dropped: int = 0
    events_broadcast: int = 0
    rules_allocated: int = 0
    otherwise_fired: int = 0
    clause_fired: int = 0
    steps: int = 0

    @property
    def squash_fraction(self) -> float:
        total = self.tasks_committed + self.tasks_squashed
        return self.tasks_squashed / total if total else 0.0


class _Status:
    RUNNING = "running"
    WAITING = "waiting"   # blocked at a rendezvous
    DONE = "done"


class TaskExecution:
    """A micro-thread stepping one task's kernel ops.

    Control state is (current op list, pc, current env); Expand pushes
    sibling envs that re-enter at the op after the expand; Guard/Rendezvous
    false-paths run a short epilogue before the env dies.
    """

    def __init__(self, runtime: "_BaseRuntime", task: TaskInstance) -> None:
        self.runtime = runtime
        self.task = task
        self.kernel: Kernel = runtime.spec.kernels[task.task_set]
        self.env: dict[str, Any] = dict(task.data)
        self.pc = 0
        self.ops: list[Op] = list(self.kernel.ops)
        self.pending_envs: list[tuple[dict[str, Any], int]] = []
        self.pending_rules: list[RuleInstance] = []
        self.status = _Status.RUNNING
        self.waiting_label = ""
        self.committed = True  # flips false if any env squashes
        self.order_released = False  # a completes_task Call has executed
        self._epilogue: list[Op] | None = None
        self._epilogue_pc = 0

    # -- queries --------------------------------------------------------------

    @property
    def index(self) -> TaskIndex:
        return self.task.index

    @property
    def done(self) -> bool:
        return self.status == _Status.DONE

    @property
    def waiting(self) -> bool:
        return self.status == _Status.WAITING

    # -- stepping ---------------------------------------------------------------

    def step(self) -> None:
        """Advance by (at least the attempt of) one primitive op."""
        if self.status == _Status.DONE:
            return
        if self._epilogue is not None:
            self._step_epilogue()
            return
        if self.pc >= len(self.ops):
            self._finish_env()
            return
        op = self.ops[self.pc]
        if isinstance(op, Rendezvous):
            self._step_rendezvous(op)
            return
        self.pc += 1
        self._execute_straight(op)

    def _step_epilogue(self) -> None:
        assert self._epilogue is not None
        if self._epilogue_pc >= len(self._epilogue):
            self._epilogue = None
            self._finish_env()
            return
        op = self._epilogue[self._epilogue_pc]
        self._epilogue_pc += 1
        self._execute_straight(op)

    def _step_rendezvous(self, op: Rendezvous) -> None:
        if not self.pending_rules:
            raise SchedulingError(
                f"task {self.task} reached rendezvous {op.label!r} "
                "with no allocated rule"
            )
        rule = self.pending_rules[0]
        if not rule.returned and rule.rule_type.immediate:
            rule.trigger_otherwise()
        if not rule.returned:
            self.status = _Status.WAITING
            self.waiting_label = op.label
            return
        self.pending_rules.pop(0)
        self.status = _Status.RUNNING
        self.waiting_label = ""
        self.runtime.release_rule(rule)
        self.pc += 1
        if rule.value:
            return  # commit path: continue with following ops
        self.committed = False
        self.runtime.stats.tasks_squashed += 1
        self._enter_epilogue(list(op.abort_ops))

    def _enter_epilogue(self, ops: list[Op]) -> None:
        self._epilogue = ops
        self._epilogue_pc = 0
        if not ops:
            self._epilogue = None
            self._finish_env()

    def _finish_env(self) -> None:
        """Current env is finished; resume a sibling env or complete."""
        # Squash any rules the dead env allocated but never met.
        for rule in self.pending_rules:
            self.runtime.release_rule(rule)
        self.pending_rules.clear()
        if self.pending_envs:
            self.env, self.pc = self.pending_envs.pop(0)
            self.status = _Status.RUNNING
            return
        self.status = _Status.DONE
        if self.committed:
            self.runtime.stats.tasks_committed += 1

    # -- straight-line op semantics ---------------------------------------------

    def _execute_straight(self, op: Op) -> None:
        runtime = self.runtime
        state = runtime.state
        env = self.env
        if isinstance(op, Const):
            env[op.dst] = op.value
        elif isinstance(op, Alu):
            env[op.dst] = op.fn(env)
        elif isinstance(op, Load):
            env[op.dst] = state.load(op.region, op.addr(env))
        elif isinstance(op, Store):
            addr = op.addr(env)
            value = op.value(env)
            if op.combine is not None or op.dst:
                old = state.load(op.region, addr)
                if op.dst:
                    env[op.dst] = old
                if op.combine is not None:
                    value = op.combine(old, value)
            state.store(op.region, addr, value)
            payload = {"addr": state.address(op.region, addr), "value": value}
            for name in op.extra_payload:
                payload[name] = env[name]
            runtime.broadcast(
                Event(EventKind.REACH, self.task.task_set,
                      op.label or op.region, self.index, payload),
                source=self,
            )
        elif isinstance(op, Guard):
            if not op.pred(env):
                runtime.stats.tasks_guard_dropped += 1
                self._enter_epilogue(list(op.else_ops))
        elif isinstance(op, Expand):
            items = list(op.items(env, state))
            resume_pc = self.pc
            if not items:
                self._finish_env()
                return
            first, *rest = items
            for extra in reversed(rest):
                child = dict(env)
                child.update(extra)
                self.pending_envs.insert(0, (child, resume_pc))
            env.update(first)
        elif isinstance(op, AllocRule):
            rule_type = runtime.spec.rules[op.resolve(env)]
            instance = rule_type.instantiate(self.index, dict(op.args(env)))
            runtime.register_rule(instance, owner=self)
            self.pending_rules.append(instance)
        elif isinstance(op, Enqueue):
            if op.when is None or op.when(env):
                runtime.activate(op.task_set, dict(op.fields(env)),
                                 parent=self.index, source=self)
        elif isinstance(op, Call):
            updates = op.fn(env, state)
            if updates:
                env.update(updates)
            if op.completes_task:
                self.order_released = True
            if op.label:
                runtime.broadcast(
                    Event(EventKind.REACH, self.task.task_set, op.label,
                          self.index, dict(env)),
                    source=self,
                )
        elif isinstance(op, Label):
            payload = {name: env[name] for name in op.payload} if op.payload \
                else dict(env)
            runtime.broadcast(
                Event(EventKind.REACH, self.task.task_set, op.label,
                      self.index, payload),
                source=self,
            )
        else:
            raise SimulationError(f"unknown op {op!r}")


class _BaseRuntime:
    """State shared by the sequential and aggressive interpreters."""

    def __init__(self, spec: ApplicationSpec) -> None:
        self.spec = spec
        self.state: MemorySpace = spec.make_state()
        self.minter: IndexMinter = spec.make_loop_nest()
        self.stats = RuntimeStats()
        self._heap: list[tuple[tuple, int, TaskInstance]] = []
        self._counter = itertools.count()
        # Live rules keyed by id(rule): a rule is released once, by a
        # holder of it, so its id names no other rule while it is here.
        self._live_rules: dict[int, tuple[RuleInstance, TaskExecution]] = {}
        self._host_batches: Iterator[list[SeedTask]] | None = None
        if spec.host_feed is not None:
            self._host_batches = spec.host_feed.batches(self.state)

    # -- task activation --------------------------------------------------------

    def seed(self) -> None:
        for task_set, fields in self.spec.initial_tasks(self.state):
            self.activate(task_set, fields, parent=None, source=None)

    def activate(
        self,
        task_set: str,
        fields: dict[str, Any],
        parent: TaskIndex | None,
        source: TaskExecution | None,
    ) -> TaskInstance:
        index = self.minter.mint(task_set, fields, parent)
        task = TaskInstance(task_set, index, fields)
        heapq.heappush(self._heap, (task.sort_key(), next(self._counter), task))
        self.broadcast(
            Event(EventKind.ACTIVATE, task_set, "", index, dict(fields)),
            source=source,
        )
        return task

    def pop_min_active(self) -> TaskInstance | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def min_active_index(self) -> TaskIndex | None:
        return self._heap[0][2].index if self._heap else None

    @property
    def active_count(self) -> int:
        return len(self._heap)

    def feed_host_batch(self) -> bool:
        """Inject the next host batch; returns False when exhausted."""
        if self._host_batches is None:
            return False
        batch = next(self._host_batches, None)
        if batch is None:
            self._host_batches = None
            return False
        for task_set, fields in batch:
            self.activate(task_set, fields, parent=None, source=None)
        return True

    # -- rules and events ---------------------------------------------------------

    def register_rule(self, rule: RuleInstance, owner: TaskExecution) -> None:
        self._live_rules[id(rule)] = (rule, owner)
        self.stats.rules_allocated += 1

    def release_rule(self, rule: RuleInstance) -> None:
        from repro.core.rule import RuleVerdict

        if rule.verdict is RuleVerdict.OTHERWISE:
            self.stats.otherwise_fired += 1
        elif rule.returned:
            self.stats.clause_fired += 1
        del self._live_rules[id(rule)]

    def broadcast(self, event: Event, source: TaskExecution | None) -> None:
        self.stats.events_broadcast += 1
        source_uid = source.task.uid if source is not None else None
        for rule, owner in list(self._live_rules.values()):
            if source_uid is not None and owner.task.uid == source_uid:
                continue  # a task's events never trigger its own rules
            rule.observe(event)

    def trigger_otherwise_for_minimum(self, min_live: TaskIndex | None) -> None:
        """Fire otherwise clauses whose waiting parent is (tied-)minimum.

        ``min_live`` is the minimum index over every live task — active in
        queues, executing, or waiting.  Firing only at the global minimum is
        the conservative policy that keeps speculation safe: the minimum
        task can never be invalidated by an earlier one.
        """
        for rule, owner in list(self._live_rules.values()):
            if not owner.waiting or rule.returned:
                continue
            if min_live is None or not min_live.earlier_than(rule.parent_index):
                rule.trigger_otherwise()


class SequentialRuntime(_BaseRuntime):
    """Definition 4.3: iteratively apply the minimum active task."""

    def run(self, max_tasks: int = 10_000_000) -> RuntimeStats:
        self.seed()
        executed = 0
        while True:
            task = self.pop_min_active()
            if task is None:
                if not self.feed_host_batch():
                    break
                continue
            execution = TaskExecution(self, task)
            while not execution.done:
                if execution.waiting:
                    # The sole running task is by construction the minimum,
                    # so the otherwise escape fires immediately.
                    execution.pending_rules[0].trigger_otherwise()
                    execution.status = _Status.RUNNING
                execution.step()
                self.stats.steps += 1
            executed += 1
            self.stats.tasks_executed += 1
            if executed >= max_tasks:
                raise SimulationError(
                    f"sequential run exceeded {max_tasks} tasks; "
                    "likely non-terminating specification"
                )
        self.spec.verify(self.state)
        return self.stats


class AggressiveRuntime(_BaseRuntime):
    """The multi-worker debug runtime of Section 4.4.

    ``workers`` abstract execution slots advance round-robin, one primitive
    op per step.  Dispatch pops the minimum active task (hardware pops FIFO
    per queue; for for-each sets activation order equals index order, so the
    two agree).
    """

    def __init__(self, spec: ApplicationSpec, workers: int = 8) -> None:
        super().__init__(spec)
        if workers < 1:
            raise SchedulingError("need at least one worker")
        self.workers = workers
        self.in_flight: list[TaskExecution] = []

    def min_live_index(self) -> TaskIndex | None:
        candidates = [
            e.index for e in self.in_flight
            if not e.done and not e.order_released
        ]
        active = self.min_active_index()
        if active is not None:
            candidates.append(active)
        return min(candidates) if candidates else None

    def run(self, max_steps: int = 50_000_000) -> RuntimeStats:
        self.seed()
        steps = 0
        while True:
            # Fill free workers with the earliest active tasks.
            while len(self.in_flight) < self.workers:
                task = self.pop_min_active()
                if task is None:
                    break
                self.in_flight.append(TaskExecution(self, task))
                self.stats.tasks_executed += 1

            if not self.in_flight:
                if self.active_count == 0 and not self.feed_host_batch():
                    break
                continue

            progressed = False
            for execution in self.in_flight:
                if not execution.waiting and not execution.done:
                    execution.step()
                    progressed = True
            self.stats.steps += 1
            steps += 1

            self.trigger_otherwise_for_minimum(self.min_live_index())
            # Wake rendezvous whose rules have now returned.
            for execution in self.in_flight:
                if execution.waiting and execution.pending_rules and \
                        execution.pending_rules[0].returned:
                    execution.status = _Status.RUNNING
                    progressed = True

            self.in_flight = [e for e in self.in_flight if not e.done]

            if not progressed and self.in_flight:
                # Everyone is waiting and no rule can return: deadlock
                # (cannot happen with well-formed otherwise clauses).
                raise SchedulingError(
                    "software runtime deadlock: all workers waiting — "
                    "check the rules' otherwise clauses"
                )
            if steps >= max_steps:
                raise SimulationError(
                    f"aggressive run exceeded {max_steps} steps"
                )
        self.spec.verify(self.state)
        return self.stats
