"""Stall-attribution profiling: fold the event stream into cycle accounting.

The profiler is an online tracer sink, so it sees every stage event even
after the ring buffer wraps.  For each stage it classifies every cycle
as exactly one of *active*, one of the four :class:`StallReason` buckets,
or *idle* — a fire beats a stall recorded in the same cycle, the first
stall reason wins among stalls — so the per-stage rows sum **exactly** to
the total simulated cycle count.  The accounting state is part of the
simulator's checkpointed object graph: a rollback restores it along with
the rest of the machine, so replayed cycles are never double-counted.
"""

from __future__ import annotations

from repro.obs.events import StallReason, TraceEvent, TraceEventKind

# Column order of one accounting row; "active" must sort before every
# stall reason (classification precedence is the column index).
COLUMNS = (
    "active",
    StallReason.QUEUE.value,
    StallReason.MEMORY.value,
    StallReason.RULE.value,
    StallReason.BACKPRESSURE.value,
)
_REASON_INDEX = {
    StallReason.QUEUE: 1,
    StallReason.MEMORY: 2,
    StallReason.RULE: 3,
    StallReason.BACKPRESSURE: 4,
}


class StallProfiler:
    """Per-stage cycle accounting, folded online from the event stream."""

    def __init__(self) -> None:
        # stage -> [active, queue, memory, rule, backpressure]
        self._committed: dict[str, list[int]] = {}
        # stage -> (cycle, column) for the cycle still being observed.
        self._open: dict[str, tuple[int, int]] = {}

    # -- sink -----------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind is TraceEventKind.STAGE_FIRE:
            column = 0
        elif kind is TraceEventKind.STAGE_STALL:
            column = _REASON_INDEX[event.reason]
        else:
            return
        stage = event.name
        open_cell = self._open.get(stage)
        if open_cell is not None:
            cycle, held = open_cell
            if cycle == event.cycle:
                # Same cycle observed twice: a fire beats any stall; among
                # stalls, the first recorded reason wins.
                if column == 0 and held != 0:
                    self._open[stage] = (cycle, 0)
                return
            self._commit(stage, held)
        self._open[stage] = (event.cycle, column)

    def _commit(self, stage: str, column: int) -> None:
        row = self._committed.get(stage)
        if row is None:
            row = self._committed[stage] = [0] * len(COLUMNS)
        row[column] += 1

    # -- idle-skip crediting ---------------------------------------------------

    def credit(self, stage: str, reason: StallReason, count: int) -> None:
        """Account ``count`` skipped cycles that repeat the open stall.

        The event engine skips cycles only when the machine is
        stationary, so each skipped cycle would have re-recorded the
        probe cycle's (already open) stall cell.  Dense equivalent:
        ``count`` repeats commit the open cell plus ``count - 1`` copies
        and leave the last repeat open — i.e. the committed row grows by
        ``count`` and the open cell slides forward by ``count`` cycles.
        """
        if count <= 0:
            return
        row = self._committed.get(stage)
        if row is None:
            row = self._committed[stage] = [0] * len(COLUMNS)
        row[_REASON_INDEX[reason]] += count
        open_cell = self._open.get(stage)
        if open_cell is not None:
            self._open[stage] = (open_cell[0] + count, open_cell[1])

    # -- reporting ------------------------------------------------------------

    def accounting(
        self, stage_names: list[str], total_cycles: int
    ) -> dict[str, dict[str, int]]:
        """Non-destructive per-stage rows; each sums to ``total_cycles``.

        ``idle`` absorbs the cycles a stage neither fired nor stalled —
        including out-of-order stations waiting on completions with spare
        capacity (see docs/observability.md for the exact semantics).
        """
        report: dict[str, dict[str, int]] = {}
        for stage in stage_names:
            row = list(self._committed.get(stage, [0] * len(COLUMNS)))
            open_cell = self._open.get(stage)
            if open_cell is not None and open_cell[0] < total_cycles:
                row[open_cell[1]] += 1
            cells = dict(zip(COLUMNS, row))
            cells["idle"] = total_cycles - sum(row)
            cells["total"] = total_cycles
            report[stage] = cells
        return report


class UtilizationTimeline:
    """Bounded-memory pipeline-activity timeline, folded from the stream.

    Counts ``STAGE_FIRE`` events into fixed-width cycle buckets; when a
    run outgrows ``max_buckets`` the resolution halves (adjacent buckets
    merge, the width doubles), so any run folds into at most
    ``max_buckets`` points — the series the dashboard's utilization
    timeline plots.  Like the profiler it is an online tracer sink, so
    the timeline is complete even after the ring buffer wraps, and it is
    plain data, so checkpoints copy it and rollbacks restore it.
    """

    def __init__(self, max_buckets: int = 256) -> None:
        if max_buckets < 2:
            raise ValueError("timeline needs at least 2 buckets")
        self.max_buckets = max_buckets
        self.bucket_cycles = 1
        self.counts: list[int] = []

    def on_event(self, event: TraceEvent) -> None:
        if event.kind is not TraceEventKind.STAGE_FIRE:
            return
        index = event.cycle // self.bucket_cycles
        while index >= self.max_buckets:
            counts = self.counts
            self.counts = [
                counts[i] + (counts[i + 1] if i + 1 < len(counts) else 0)
                for i in range(0, len(counts), 2)
            ]
            self.bucket_cycles *= 2
            index = event.cycle // self.bucket_cycles
        counts = self.counts
        if index >= len(counts):
            counts.extend([0] * (index + 1 - len(counts)))
        counts[index] += 1

    def series(self, total_stages: int) -> list[float]:
        """Per-bucket utilization: active stage-cycles over capacity."""
        capacity = max(1, total_stages) * self.bucket_cycles
        return [round(count / capacity, 6) for count in self.counts]

    def to_dict(self, total_stages: int) -> dict:
        """The JSON form stored in a run record."""
        return {
            "bucket_cycles": self.bucket_cycles,
            "utilization": self.series(total_stages),
        }


def format_stall_report(
    accounting: dict[str, dict[str, int]],
    total_cycles: int,
    top: int | None = None,
) -> str:
    """Render the accounting as the ``repro profile`` table.

    Stages are ordered by stalled cycles (most-stalled first); ``top``
    truncates the table, with a note counting the elided stages.
    """
    headers = ("stage",) + COLUMNS + ("idle", "total")
    stall_cols = COLUMNS[1:]

    def stalled(cells: dict[str, int]) -> int:
        return sum(cells[c] for c in stall_cols)

    ordered = sorted(
        accounting.items(),
        key=lambda item: (-stalled(item[1]), -item[1]["active"], item[0]),
    )
    elided = 0
    if top is not None and len(ordered) > top:
        elided = len(ordered) - top
        ordered = ordered[:top]
    name_width = max([len(headers[0])] + [len(name) for name, _ in ordered])
    col_width = max(
        max(len(h) for h in headers[1:]) + 2,
        len(str(total_cycles)) + 2,
    )
    lines = [
        f"stall attribution over {total_cycles} cycles "
        "(each row sums to total)",
        f"{headers[0]:<{name_width}}"
        + "".join(f"{h:>{col_width}}" for h in headers[1:]),
    ]
    for name, cells in ordered:
        lines.append(
            f"{name:<{name_width}}"
            + "".join(f"{cells[h]:>{col_width}}" for h in headers[1:])
        )
    if elided:
        lines.append(f"... ({elided} fully accounted stages elided)")
    return "\n".join(lines)
