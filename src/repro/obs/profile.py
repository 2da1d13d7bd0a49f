"""Stall-attribution profiling: fold the probe stream into cycle accounting.

The profiler reads the simulator's probe directly (its ``on_firing``
and ``on_stall`` handlers), so it sees every stage firing and stall,
with or without a trace ring.  For each stage it classifies every cycle
as exactly one of *active*, one of the four :class:`StallReason` buckets,
or *idle* — a fire beats a stall recorded in the same cycle, the first
stall reason wins among stalls — so the per-stage rows sum **exactly** to
the total simulated cycle count.  The accounting state is part of the
simulator's checkpointed object graph: a rollback restores it along with
the rest of the machine, so replayed cycles are never double-counted.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.events import StallReason

# Column order of one accounting row; "active" must sort before every
# stall reason (classification precedence is the column index).
COLUMNS = (
    "active",
    StallReason.QUEUE.value,
    StallReason.MEMORY.value,
    StallReason.RULE.value,
    StallReason.BACKPRESSURE.value,
)
# The row slots after the columns: the cycle still being observed, the
# column it holds so far, and a scratch slot a new row "holds" so that
# its first event commits nothing.
_CYCLE = len(COLUMNS)
_HELD = _CYCLE + 1
_SCRATCH = _HELD + 1


def _new_row() -> list[int]:
    return [0] * _CYCLE + [-1, _SCRATCH, 0]


class StallProfiler:
    """Per-stage cycle accounting, folded online from the probe stream."""

    def __init__(self) -> None:
        # stage -> [active, queue, memory, rule, backpressure, cycle,
        # held, scratch]: committed cycles per column, then the open
        # cell, so a handler reads and updates a stage with one lookup.
        self._rows: defaultdict[str, list[int]] = defaultdict(_new_row)

    # -- probe consumer ---------------------------------------------------------

    def on_firing(self, cycle, stage):
        """Any stage firing: a fire beats a stall recorded in the same
        cycle."""
        row = self._rows[stage]
        if row[_CYCLE] != cycle:
            row[row[_HELD]] += 1
            row[_CYCLE] = cycle
        row[_HELD] = 0

    def on_stall(self, cycle, stage, reason, count):
        """``count`` cycles from ``cycle`` on stalled for ``reason``.  A
        stage's emissions arrive in cycle order, so a run starting at or
        before the open cycle is a second reason for cycles already
        held, and changes nothing: a fire beats a stall, and among
        stalls the first recorded reason wins."""
        row = self._rows[stage]
        if row[_CYCLE] < cycle:
            column = reason.column
            row[row[_HELD]] += 1
            row[column] += count - 1
            row[_CYCLE] = cycle + count - 1
            row[_HELD] = column

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
            held = self._rows.get(stage)
            row = held[:_CYCLE] if held else [0] * _CYCLE
            if held and held[_CYCLE] < total_cycles:
                row[held[_HELD]] += 1
            cells = dict(zip(COLUMNS, row))
            cells["idle"] = total_cycles - sum(row)
            cells["total"] = total_cycles
            report[stage] = cells
        return report


class UtilizationTimeline:
    """Bounded-memory pipeline-activity timeline, folded from the stream.

    Counts stage firings into fixed-width cycle buckets; when a
    run outgrows ``max_buckets`` the resolution halves (adjacent buckets
    merge, the width doubles), so any run folds into at most
    ``max_buckets`` points — the series the dashboard's utilization
    timeline plots.  Like the profiler it reads the probe directly, so
    the timeline is complete with or without a trace ring, and it is
    plain data, so checkpoints copy it and rollbacks restore it.
    """

    def __init__(self, max_buckets: int = 256) -> None:
        if max_buckets < 2:
            raise ValueError("timeline needs at least 2 buckets")
        self.max_buckets = max_buckets
        self.bucket_cycles = 1
        self.counts: list[int] = []

    def on_firing(self, cycle, stage):
        """Any stage firing; one past the last bucket takes the slow
        path."""
        index = cycle // self.bucket_cycles
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self._extend(cycle)

    def _extend(self, cycle: int) -> None:
        """Count a firing past the last bucket, halving the resolution
        while the run outgrows ``max_buckets``."""
        index = cycle // self.bucket_cycles
        while index >= self.max_buckets:
            counts = self.counts
            self.counts = [
                counts[i] + (counts[i + 1] if i + 1 < len(counts) else 0)
                for i in range(0, len(counts), 2)
            ]
            self.bucket_cycles *= 2
            index = cycle // self.bucket_cycles
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
