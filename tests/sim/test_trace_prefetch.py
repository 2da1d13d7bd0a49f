"""Tests for the schedule tracer and the next-line prefetcher."""

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP, HARP, HarpPlatform
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.memory import MemorySystem
from repro.sim.trace import ScheduleTracer
from repro.substrates.graphs import random_graph

GRAPH = random_graph(60, 180, seed=31)


class TestScheduleTracer:
    def test_records_activity(self):
        tracer = ScheduleTracer()
        tracer.record(0, "a")
        tracer.record(5, "a")
        tracer.record(3, "b")
        assert tracer.active_window("a") == (0, 5)
        assert tracer.active_window("b") == (3, 3)
        assert tracer.active_window("ghost") is None

    def test_limit_respected(self):
        tracer = ScheduleTracer(max_cycles=10)
        tracer.record(50, "a")
        assert tracer.active_window("a") is None

    def test_overlap(self):
        tracer = ScheduleTracer()
        for c in range(0, 10):
            tracer.record(c, "a")
        for c in range(5, 15):
            tracer.record(c, "b")
        assert tracer.overlap_cycles("a", "b") == 5
        assert tracer.overlap_cycles("a", "ghost") == 0

    def test_concurrency(self):
        tracer = ScheduleTracer()
        tracer.record(2, "a")
        tracer.record(2, "b")
        tracer.record(3, "a")
        assert tracer.concurrency(2) == 2
        assert tracer.peak_concurrency() == 2

    def test_timeline_render(self):
        tracer = ScheduleTracer()
        for c in range(20):
            tracer.record(c, "stage")
        text = tracer.timeline(width=10)
        assert "stage" in text
        assert "#" in text

    def test_empty_timeline(self):
        assert "no activity" in ScheduleTracer().timeline()

    def test_simulation_produces_dataflow_overlap(self):
        """Figure 2(b): stages of the BFS pipeline overlap in time."""
        tracer = ScheduleTracer(max_cycles=100_000)
        spec = build_app("SPEC-BFS", GRAPH, 0)
        sim = AcceleratorSim(spec, platform=HARP, config=SimConfig(),
                             tracer=tracer)
        sim.run()
        visit_expand = next(
            name for name in tracer.activity if "expand" in name
        )
        update_store = next(
            name for name in tracer.activity if "store" in name
        )
        assert tracer.overlap_cycles(visit_expand, update_store) > 0
        assert tracer.peak_concurrency() >= 4


class TestPrefetcher:
    def test_prefetch_counts(self):
        memory = MemorySystem(HarpPlatform(), prefetch=True)
        memory.issue_load(0, 0)        # miss -> prefetches line 1
        assert memory.stats.prefetches == 1
        memory.issue_load(0, 64)  # prefetched line: hit
        assert memory.stats.load_hits == 1

    def test_prefetch_off_by_default(self):
        memory = MemorySystem(HarpPlatform())
        memory.issue_load(0, 0)
        memory.issue_load(0, 64)
        assert memory.stats.prefetches == 0
        assert memory.stats.load_hits == 0

    def test_prefetch_consumes_bandwidth(self):
        plain = MemorySystem(HarpPlatform())
        pref = MemorySystem(HarpPlatform(), prefetch=True)
        plain.issue_load(0, 0)
        pref.issue_load(0, 0)
        assert pref.stats.bytes_transferred > plain.stats.bytes_transferred

    def test_prefetch_helps_sequential_workload(self):
        """BFS levels are laid out sequentially; prefetch raises hit rate."""
        def run(prefetch: bool) -> float:
            spec = build_app("SPEC-BFS", GRAPH, 0)
            sim = AcceleratorSim(
                spec, platform=EVAL_HARP,
                config=SimConfig(prefetch=prefetch),
            )
            sim.run()
            stats = sim.memory.stats
            return stats.load_hits / stats.loads

        assert run(True) > run(False)
