"""Cycle-by-cycle schedule tracing.

An optional tracer records which stages were active each cycle, producing
the schedule diagrams of Figures 1(c) and 2(b) from actual simulations: a
text timeline with one row per pipeline stage and one column per cycle.
Attached through ``AcceleratorSim(tracer=...)`` it reads the simulator's
probe (every stage firing kind), and like every probe consumer it is part
of the checkpointed object graph, so a rollback restores it too.
Used by ``examples/schedule_comparison.py`` and by tests that assert
overlap (dataflow) versus phase separation (barriers).
"""

from __future__ import annotations

from collections import defaultdict


class ScheduleTracer:
    """Records (cycle, stage) activity pairs up to a cycle limit."""

    def __init__(self, max_cycles: int = 2000) -> None:
        self.max_cycles = max_cycles
        self.activity: dict[str, set[int]] = defaultdict(set)
        self.last_cycle = 0

    def record(self, cycle: int, stage_name: str, *_) -> None:
        """One active (cycle, stage) pair; as the handler of every probe
        firing kind it ignores the firing's other arguments."""
        if cycle >= self.max_cycles:
            return
        self.activity[stage_name].add(cycle)
        self.last_cycle = max(self.last_cycle, cycle)

    on_born = on_fire = on_alloc = on_fork = on_release = on_verdict = record

    # -- analysis ------------------------------------------------------------

    def active_window(self, stage_name: str) -> tuple[int, int] | None:
        """First and last active cycle of a stage (None if never active)."""
        cycles = self.activity.get(stage_name)
        if not cycles:
            return None
        return min(cycles), max(cycles)

    def overlap_cycles(self, stage_a: str, stage_b: str) -> int:
        """Cycles in which the two stages' active windows overlap."""
        a = self.active_window(stage_a)
        b = self.active_window(stage_b)
        if a is None or b is None:
            return 0
        lo = max(a[0], b[0])
        hi = min(a[1], b[1])
        return max(0, hi - lo + 1)

    def concurrency(self, cycle: int) -> int:
        """Number of stages active in one cycle."""
        return sum(1 for cycles in self.activity.values() if cycle in cycles)

    def peak_concurrency(self) -> int:
        return max(
            (self.concurrency(c) for c in range(self.last_cycle + 1)),
            default=0,
        )

    # -- rendering -------------------------------------------------------------

    def timeline(self, width: int = 72, stages: list[str] | None = None
                 ) -> str:
        """ASCII schedule diagram: rows = stages, columns = time buckets."""
        names = stages or sorted(self.activity)
        # Emptiness must be judged by recorded activity, not last_cycle:
        # a run whose only activity lands on cycle 0 still has a schedule.
        if not names or not any(self.activity.get(n) for n in names):
            return "(no activity recorded)"
        span = self.last_cycle + 1
        bucket = max(1, -(-span // width))
        label_width = max(len(n) for n in names)
        lines = [
            f"{'cycle':>{label_width}}  0 .. {self.last_cycle} "
            f"({bucket} cycles per column)"
        ]
        for name in names:
            cycles = self.activity.get(name, set())
            row = []
            for start in range(0, span, bucket):
                window = range(start, min(start + bucket, span))
                row.append("#" if any(c in cycles for c in window) else ".")
            lines.append(f"{name:>{label_width}}  {''.join(row)}")
        return "\n".join(lines)
