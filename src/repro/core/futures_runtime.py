"""A threaded runtime built on futures and promises (Section 4.4).

The paper lists the possible software implementations of the abstraction:
"A C++ implementation based on std::thread, std::async and std::future is
provided for debugging ... any language supporting asynchronous programming
paradigms with futures and promises might be used."  This is that
implementation in Python: worker threads execute tasks concurrently, and a
parent task blocks on a :class:`concurrent.futures.Future` for its rule's
return value at the rendezvous.

Only the scheduling is about threads.  Each worker pops the minimum active
task and steps its :class:`~repro.core.runtime.TaskExecution` one op per
hold of the scheduler lock; the op semantics, activation, the event bus,
the minimum-live bookkeeping that drives the otherwise clauses and the
host feed are the step-based
:class:`~repro.core.runtime.AggressiveRuntime`'s.  The interleavings come
from the OS scheduler rather than a deterministic round-robin, so races
that survive both schedulers are very likely protocol bugs, not luck.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Any

from repro.core.indexing import TaskIndex
from repro.core.rule import RuleInstance
from repro.core.runtime import AggressiveRuntime, RuntimeStats, TaskExecution
from repro.core.spec import ApplicationSpec
from repro.core.task import TaskInstance
from repro.errors import SchedulingError


class FuturesRuntime(AggressiveRuntime):
    """Thread-pool execution of a specification with future-based rules."""

    def __init__(self, spec: ApplicationSpec, threads: int = 4,
                 timeout_s: float = 120.0) -> None:
        super().__init__(spec, workers=threads)
        self.timeout_s = timeout_s
        # Guards all runtime state; idle workers wait on it for work.
        self._lock = threading.Condition()
        # The rule each blocked parent waits on, with its future.
        self._blocked: list[tuple[RuleInstance, Future]] = []
        self._stop = False
        self._error: Exception | None = None

    def activate(self, task_set: str, fields: dict[str, Any],
                 parent: TaskIndex | None,
                 source: TaskExecution | None) -> TaskInstance:
        task = super().activate(task_set, fields, parent, source)
        self._lock.notify()
        return task

    # -- the worker loop (scheduling under self._lock) ----------------------

    def _take_task(self) -> TaskExecution | None:
        """The minimum active task, once there is one; None at the end."""
        while not self._stop:
            task = self.pop_min_active()
            if task is not None:
                execution = TaskExecution(self, task)
                self.in_flight.append(execution)
                self.stats.tasks_executed += 1
                return execution
            if self.in_flight:
                self._lock.wait()
            elif not self.feed_host_batch():
                self._stop = True
                self._lock.notify_all()
        return None

    def _step(self, execution: TaskExecution) -> Future | None:
        """One op of ``execution``, then the otherwise clauses the minimum
        allows; returns the future to block on at a waiting rendezvous."""
        execution.step()
        self.stats.steps += 1
        self.trigger_otherwise_for_minimum(self.min_live_index())
        blocked = []
        for rule, future in self._blocked:
            if rule.returned:
                future.set_result(rule.value)
            else:
                blocked.append((rule, future))
        self._blocked = blocked
        if execution.done:
            self.in_flight.remove(execution)
            self._lock.notify_all()
            return None
        if not execution.waiting or execution.pending_rules[0].returned:
            return None
        future: Future = Future()
        self._blocked.append((execution.pending_rules[0], future))
        return future

    def _worker(self) -> None:
        try:
            while True:
                with self._lock:
                    execution = self._take_task()
                if execution is None:
                    return
                while not execution.done:
                    with self._lock:
                        if self._stop:
                            return
                        future = self._step(execution)
                    if future is None:
                        continue
                    try:
                        # Outside the lock: a waiting rendezvous retries
                        # once the rule has returned.
                        future.result(timeout=self.timeout_s)
                    except FutureTimeout:  # not the builtin before 3.11
                        raise SchedulingError(
                            "rendezvous timed out — liveliness violation"
                        ) from None
        except Exception as error:  # propagate to run()
            with self._lock:
                if self._error is None:
                    self._error = error
                self._stop = True
                for _rule, future in self._blocked:
                    future.cancel()
                self._lock.notify_all()

    # -- entry point --------------------------------------------------------------

    def run(self) -> RuntimeStats:
        with self._lock:
            self.seed()
        workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-worker-{i}")
            for i in range(self.workers)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=self.timeout_s)
            if worker.is_alive():
                raise SchedulingError("worker thread hung")
        if self._error is not None:
            raise self._error
        self.spec.verify(self.state)
        return self.stats
