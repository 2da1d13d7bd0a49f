"""Tests for the observability subsystem: metrics, stats, profiling.

The centrepiece is the cycle-accounting conservation property: for every
stage, active + stalled-by-reason + idle sums *exactly* to the simulated
cycle count — with observability on, under injected faults, and across
checkpoint/rollback recovery (no replayed cycle may be double-counted).
"""

import pytest

from repro.apps.registry import build_app
from repro.errors import SimulationError
from repro.eval.platforms import HARP
from repro.obs import Observability, TraceEventKind
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import COLUMNS, format_stall_report
from repro.sim.accelerator import AcceleratorSim, SimConfig, run_resilient
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.stats import SimStats
from repro.sim.trace import ScheduleTracer
from repro.substrates.graphs import random_graph

GRAPH = random_graph(200, 600, seed=7)


def _spec(app="SPEC-BFS"):
    return build_app(app, GRAPH, 0) if app == "SPEC-BFS" \
        else build_app(app, GRAPH)


def _stage_names(sim):
    return [s.name for p in sim.pipelines for s in p.stages]


def assert_conserved(obs, stage_names, cycles):
    """Every stage's row sums exactly to the total cycle count."""
    accounting = obs.profiler.accounting(stage_names, cycles)
    assert set(accounting) == set(stage_names)
    for name, row in accounting.items():
        parts = [row[column] for column in COLUMNS] + [row["idle"]]
        assert min(parts) >= 0, f"{name}: negative bucket {row}"
        assert sum(parts) == cycles == row["total"], f"{name}: {row}"
    return accounting


# -- metrics registry ---------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert registry.counter_value("a.b") == 5
        assert registry.counter_value("missing", default=-1) == -1
        assert registry.counter("a.b") is counter  # get-or-create
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.set(3)
        assert registry.gauges["g"].value == 3

    def test_histogram_log2_buckets(self):
        hist = Histogram("h")
        for value in (0, 1, 2, 3, 5, 100):
            hist.record(value)
        buckets = dict(zip(hist.bucket_labels(), hist.buckets))
        assert buckets["0"] == 1        # the zero
        assert buckets["<2"] == 1       # 1
        assert buckets["<4"] == 2       # 2, 3
        assert buckets["<8"] == 1       # 5
        assert buckets["<128"] == 1     # 100
        assert hist.count == 6
        assert hist.mean == pytest.approx(111 / 6)

    def test_percentiles_interpolate_within_buckets(self):
        hist = Histogram("h")
        for _ in range(100):
            hist.record(2)  # all land in bucket [2, 3]
        assert hist.percentile(0.50) == pytest.approx(2.5)
        assert 2.0 <= hist.percentile(0.99) <= 3.0

    def test_percentiles_exact_for_zero_and_one(self):
        hist = Histogram("h")
        for _ in range(10):
            hist.record(0)
        assert hist.percentile(0.5) == 0.0
        hist = Histogram("h")
        for _ in range(10):
            hist.record(1)
        assert hist.percentile(0.99) == 1.0

    def test_percentiles_split_bimodal_tail(self):
        hist = Histogram("h")
        for _ in range(90):
            hist.record(1)
        for _ in range(10):
            hist.record(1024)
        assert hist.percentile(0.50) == 1.0
        assert 1024 <= hist.percentile(0.99) <= 2047
        summary = hist.percentiles()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_percentile_edge_cases(self):
        hist = Histogram("h")
        assert hist.percentile(0.5) == 0.0  # empty
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_snapshot_surfaces_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("mem.load_latency")
        for value in (4, 8, 16, 32, 64):
            hist.record(value)
        snap = registry.snapshot()["histograms"]["mem.load_latency"]
        assert {"p50", "p95", "p99"} <= set(snap)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= 127

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(SimulationError):
            registry.histogram("x")

    def test_snapshot_is_deterministic_and_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc()
        registry.histogram("h").record(3)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]  # sorted
        assert json.loads(json.dumps(snap)) == snap
        assert snap["histograms"]["h"]["count"] == 1


# -- SimStats ----------------------------------------------------------------


class TestSimStats:
    def test_sync_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("sim.commits").inc(9)
        registry.counter("sim.tasks_activated").inc(4)
        stats = SimStats().sync_from(registry)
        assert stats.commits == 9
        assert stats.tasks_activated == 4
        assert stats.squashes == 0  # unregistered counters default to 0

    def test_merge(self):
        a = SimStats(cycles=10, commits=3, total_stages=8,
                     per_stage_active={"s": 2}, per_stage_stalls={"s": 1})
        b = SimStats(cycles=5, commits=2, total_stages=6,
                     per_stage_active={"s": 1, "t": 4},
                     per_stage_stalls={"t": 2})
        merged = a.merge(b)
        assert merged.cycles == 15
        assert merged.commits == 5
        assert merged.total_stages == 8  # max, not sum
        assert merged.per_stage_active == {"s": 3, "t": 4}
        assert merged.per_stage_stalls == {"s": 1, "t": 2}
        # Inputs untouched.
        assert a.commits == 3 and b.per_stage_active == {"s": 1, "t": 4}


# -- schedule tracer satellites ----------------------------------------------


class TestScheduleTracer:
    def test_timeline_cycle_zero_activity_renders(self):
        tracer = ScheduleTracer()
        tracer.record(0, "stage")
        rendered = tracer.timeline()
        assert rendered != "(no activity recorded)"
        assert "stage" in rendered

    def test_timeline_empty_still_reports_no_activity(self):
        assert ScheduleTracer().timeline() == "(no activity recorded)"

    def test_tracer_sees_exactly_the_ring_stage_fires(self):
        # Both read the same probe emissions: the schedule tracer's
        # activity is the ring's STAGE_FIRE events, cycle for cycle.
        obs = Observability(trace_capacity=1 << 20)
        tracer = ScheduleTracer(max_cycles=1 << 30)
        sim = AcceleratorSim(_spec(), platform=HARP, tracer=tracer, obs=obs)
        sim.run()
        fires: dict[str, set[int]] = {}
        for event in obs.tracer.events():
            if event.kind is TraceEventKind.STAGE_FIRE:
                fires.setdefault(event.name, set()).add(event.cycle)
        assert obs.tracer.evicted == 0
        assert dict(tracer.activity) == fires
        assert tracer.last_cycle == max(max(c) for c in fires.values())


# -- per-stage stats consistency ----------------------------------------------


class TestPerStageStats:
    def test_active_and_stall_maps_cover_every_stage(self):
        sim = AcceleratorSim(_spec(), platform=HARP)
        result = sim.run()
        names = set(_stage_names(sim))
        assert set(result.stats.per_stage_active) == names
        assert set(result.stats.per_stage_stalls) == names
        assert sum(result.stats.per_stage_active.values()) == \
            result.stats.active_stage_cycles

    def test_profiler_agrees_with_stage_counters(self):
        obs = Observability()
        sim = AcceleratorSim(_spec(), platform=HARP, obs=obs)
        result = sim.run()
        accounting = assert_conserved(obs, _stage_names(sim), result.cycles)
        for name, active in result.stats.per_stage_active.items():
            assert accounting[name]["active"] == active


# -- conservation property ----------------------------------------------------


class TestConservation:
    @pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
    def test_fault_free(self, app):
        obs = Observability()
        sim = AcceleratorSim(_spec(app), platform=HARP, obs=obs)
        result = sim.run()
        assert_conserved(obs, _stage_names(sim), result.cycles)

    def test_under_timing_faults(self):
        # Timing-only perturbations (latency spike + bank stall) change
        # the stall mix without tripping recovery.
        plan = FaultPlan([
            FaultEvent(FaultKind.QPI_LATENCY, 100, duration=800,
                       magnitude=40),
            FaultEvent(FaultKind.BANK_STALL, 300, duration=500, bank=0),
        ])
        obs = Observability()
        sim = AcceleratorSim(_spec(), platform=HARP, faults=plan, obs=obs)
        result = sim.run()
        assert_conserved(obs, _stage_names(sim), result.cycles)

    def test_ring_eviction_does_not_break_accounting(self):
        # The profiler is an online sink: accounting stays exact even
        # when the ring buffer keeps only a small tail of the events.
        obs = Observability(trace_capacity=128)
        sim = AcceleratorSim(_spec(), platform=HARP, obs=obs)
        result = sim.run()
        assert obs.tracer.evicted > 0
        assert len(obs.tracer.ring) <= 128
        assert_conserved(obs, _stage_names(sim), result.cycles)

    def test_rollback_does_not_double_count(self):
        # A total lane outage forces invariant-triggered rollbacks; the
        # observability bundle is checkpointed with the simulator, so
        # replayed cycles appear exactly once in the accounting.
        config = SimConfig()
        plan = FaultPlan([FaultEvent(
            FaultKind.LANE_FAIL, 400, duration=1 << 30,
            magnitude=config.rule_lanes,
        )])
        obs = Observability()
        res = run_resilient(
            _spec(), platform=HARP, config=config, faults=plan,
            check_interval=256, checkpoint_interval=1000, obs=obs,
        )
        assert res.rollbacks >= 1
        final = res.result.obs
        assert final is not None
        names = list(res.result.stats.per_stage_active)
        assert_conserved(final, names, res.result.cycles)
        snap = final.registry.snapshot()
        assert snap["counters"].get("recovery.rollbacks", 0) >= 1
        assert snap["counters"].get("recovery.checkpoints", 0) >= 1


# -- report rendering ---------------------------------------------------------


class TestStallReport:
    def test_rows_and_elision(self):
        obs = Observability()
        sim = AcceleratorSim(_spec(), platform=HARP, obs=obs)
        result = sim.run()
        names = _stage_names(sim)
        accounting = obs.profiler.accounting(names, result.cycles)
        report = format_stall_report(accounting, result.cycles, top=3)
        lines = report.splitlines()
        assert f"over {result.cycles} cycles" in lines[0]
        assert lines[1].split()[0] == "stage"
        assert "elided" in lines[-1]
        # 3 rows + header + title + elision note.
        assert len(lines) == 6
        for line in lines[2:5]:
            cells = line.split()
            assert int(cells[-1]) == result.cycles
            assert sum(int(c) for c in cells[1:-1]) == result.cycles
