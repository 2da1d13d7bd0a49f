"""Stall-attribution profiling: fold the probe stream into cycle accounting.

The profiler reads the simulator's probe directly (its ``on_<kind>``
handlers), so it sees every stage firing and stall even after the trace
ring wraps.  For each stage it classifies every cycle
as exactly one of *active*, one of the four :class:`StallReason` buckets,
or *idle* — a fire beats a stall recorded in the same cycle, the first
stall reason wins among stalls — so the per-stage rows sum **exactly** to
the total simulated cycle count.  The accounting state is part of the
simulator's checkpointed object graph: a rollback restores it along with
the rest of the machine, so replayed cycles are never double-counted.
"""

from __future__ import annotations

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
_REASON_INDEX = {
    StallReason.QUEUE: 1,
    StallReason.MEMORY: 2,
    StallReason.RULE: 3,
    StallReason.BACKPRESSURE: 4,
}


class StallProfiler:
    """Per-stage cycle accounting, folded online from the probe stream."""

    def __init__(self) -> None:
        # stage -> [active, queue, memory, rule, backpressure]
        self._committed: dict[str, list[int]] = {}
        # stage -> (cycle, column) for the cycle still being observed.
        self._open: dict[str, tuple[int, int]] = {}

    # -- probe consumer ---------------------------------------------------------

    def on_fire(self, cycle: int, stage: str, *_) -> None:
        self._observe(cycle, stage, 0)

    on_born = on_alloc = on_fork = on_release = on_verdict = on_fire

    def on_stall(self, cycle: int, stage: str, reason: StallReason) -> None:
        self._observe(cycle, stage, _REASON_INDEX[reason])

    def _observe(self, cycle: int, stage: str, column: int) -> None:
        open_cell = self._open.get(stage)
        if open_cell is not None:
            held_cycle, held = open_cell
            if held_cycle == cycle:
                # Same cycle observed twice: a fire beats any stall; among
                # stalls, the first recorded reason wins.
                if column == 0 and held != 0:
                    self._open[stage] = (cycle, 0)
                return
            self._commit(stage, held)
        self._open[stage] = (cycle, column)

    def _commit(self, stage: str, column: int) -> None:
        row = self._committed.get(stage)
        if row is None:
            row = self._committed[stage] = [0] * len(COLUMNS)
        row[column] += 1

    # -- idle-skip crediting ---------------------------------------------------

    def on_skip(self, cycle: int, count: int, stalls) -> None:
        """Account ``count`` skipped repeats of a stationary cycle whose
        ``(stage, reason)`` stall records are ``stalls``: as ``count``
        dense repeats would, each stage's committed row grows by
        ``count`` in its open (first-recorded) reason, and the open cell
        slides forward by ``count`` cycles."""
        credited: set[str] = set()
        for stage, reason in stalls:
            name = stage.name
            if name in credited:
                continue
            credited.add(name)
            row = self._committed.get(name)
            if row is None:
                row = self._committed[name] = [0] * len(COLUMNS)
            row[_REASON_INDEX[reason]] += count
            open_cell = self._open.get(name)
            if open_cell is not None:
                self._open[name] = (open_cell[0] + count, open_cell[1])

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
    timeline plots.  Like the profiler it reads the probe directly, so
    the timeline is complete even after the ring buffer wraps, and it is
    plain data, so checkpoints copy it and rollbacks restore it.
    """

    def __init__(self, max_buckets: int = 256) -> None:
        if max_buckets < 2:
            raise ValueError("timeline needs at least 2 buckets")
        self.max_buckets = max_buckets
        self.bucket_cycles = 1
        self.counts: list[int] = []

    def on_fire(self, cycle: int, *_) -> None:
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

    on_born = on_alloc = on_fork = on_release = on_verdict = on_fire

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
