"""Host-side task injection.

For DMR and COOR-LU the host processor streams the initial task list into
the accelerator's queues incrementally (Section 6.1).  Each batch crosses
the QPI channel as a DMA transfer before it can be enqueued, so the feed
rate — and with it these applications' end-to-end speedup — scales with the
channel bandwidth, which is exactly the linear correlation Figure 10 shows
for SPEC-DMR and COOR-LU.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.core.indexing import TaskIndex
from repro.core.spec import ApplicationSpec, SeedTask
from repro.errors import SpecificationError


class HostAdapter:
    """Feeds seed tasks and host batches into the simulated accelerator."""

    def __init__(self, ctx, spec: ApplicationSpec) -> None:
        self.ctx = ctx
        self.spec = spec
        self._batches: Iterator[list[SeedTask]] | None = None
        self._pending: list[SeedTask] | None = None
        # Completion cycle of the in-flight batch DMA (None when none).
        self._transfer_done: int | None = None
        self._exhausted = spec.host_feed is None
        self.batches_sent = 0
        # Checkpoint replay: the generator cannot be deep-copied, so when
        # checkpointing is enabled every batch pulled from it is logged
        # (``_batch_log`` is shared across clones by identity) and a
        # restored run replays the log past its own ``_batch_cursor``
        # before pulling the live generator again.
        self._batch_log: list[list[SeedTask] | None] | None = None
        self._batch_cursor = 0
        if spec.host_feed is not None:
            self._batches = spec.host_feed.batches(ctx.state)

    def enable_replay(self) -> None:
        """Start logging pulled batches (required before checkpointing)."""
        if self._batch_log is None:
            self._batch_log = []

    def _next_batch(self) -> list[SeedTask] | None:
        if self._batch_log is None:
            if self._batches is None:
                return None
            return next(self._batches, None)
        if self._batch_cursor < len(self._batch_log):
            batch = self._batch_log[self._batch_cursor]
        else:
            batch = (
                next(self._batches, None)
                if self._batches is not None else None
            )
            self._batch_log.append(batch)
        self._batch_cursor += 1
        return batch

    def start(self) -> None:
        """Seed the initial tasks (free: they are enqueued before t=0).

        Raises :class:`SpecificationError` when a task set has more seed
        tasks than its queue holds: no run of that configuration starts.
        """
        seeds = list(self.spec.initial_tasks(self.ctx.state))
        for task_set, count in Counter(name for name, _ in seeds).items():
            capacity = self.ctx.queues[task_set].capacity
            if count > capacity:
                raise SpecificationError(
                    f"{self.spec.name}: {count} initial {task_set!r} tasks "
                    f"overflow its task queue, which holds {capacity}")
        for task_set, fields in seeds:
            self.ctx.activate(task_set, dict(fields), parent=None)
        self._advance_batch()

    def _advance_batch(self) -> None:
        if self.spec.host_feed is None:
            self._update_horizon()
            return
        self._pending = self._next_batch()
        if self._pending is None:
            self._exhausted = True
            self._update_horizon()
            return
        # tick() injects a batch whole, once every target queue has room
        # for its share: a share beyond a queue's capacity never fits.
        shares = Counter(task_set for task_set, _ in self._pending)
        for task_set, count in shares.items():
            capacity = self.ctx.queues[task_set].capacity
            if count > capacity:
                raise SpecificationError(
                    f"{self.spec.name}: host batch {self.batches_sent} "
                    f"holds {count} {task_set!r} tasks, more than its task "
                    f"queue holds ({capacity})")
        nbytes = len(self._pending) * self.spec.host_feed.bytes_per_task
        self._transfer_done = self.ctx.memory.issue_stream(
            self.ctx.cycle, nbytes
        )
        if self.ctx.probe is not None:
            self.ctx.probe.host_issue(self.ctx.cycle, self._transfer_done,
                                      nbytes)
        self._update_horizon()

    def _update_horizon(self) -> None:
        """Hold the live minimum down at the next un-injected task's index.

        Only computable for priority-indexed single-loop task sets (COOR-LU's
        seq field); counter-indexed feeds always mint indices larger than
        anything already live, so no horizon is needed there.
        """
        tracker = self.ctx.tracker
        if not self._pending:
            tracker.horizon = None
            return
        task_set, fields = self._pending[0]
        priority_field = self.spec.priority_fields.get(task_set)
        if priority_field is not None and self.ctx.minter.width == 1:
            tracker.horizon = TaskIndex((int(fields[priority_field]),))
        else:
            tracker.horizon = None

    def tick(self) -> None:
        if self._pending is None:
            return
        ctx = self.ctx
        if self._transfer_done is not None:
            if self._transfer_done > ctx.cycle:
                return
            ctx.quiet = False  # silent mutation: batch transfer landed
            ctx.memory.retire()
            self._transfer_done = None
        # Inject when every target queue has room for its share.
        needed: dict[str, int] = {}
        for task_set, _fields in self._pending:
            needed[task_set] = needed.get(task_set, 0) + 1
        for task_set, count in needed.items():
            if not ctx.queues[task_set].can_push(count):
                return
        if ctx.probe is not None:
            ctx.probe.host_inject(ctx.cycle, self.batches_sent)
        for task_set, fields in self._pending:
            ctx.activate(
                task_set, dict(fields), parent=None,
                cause="host", cause_uid=self.batches_sent,
            )
        self.batches_sent += 1
        self._pending = None
        self._advance_batch()

    @property
    def exhausted(self) -> bool:
        return self._exhausted and self._pending is None

    def busy(self) -> bool:
        return self._pending is not None
