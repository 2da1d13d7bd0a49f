"""Tests for the simulator's error paths: deadlock detection, cycle
budget exhaustion, configuration validation, and memory-model misuse."""

import pytest

from repro.apps.registry import build_app
from repro.errors import DeadlockError, SimulationError, SpecificationError
from repro.eval.platforms import EVAL_HARP, HARP, HarpPlatform
from repro.sim.accelerator import (
    AcceleratorSim,
    SimConfig,
    run_resilient,
    simulate_app,
)
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.memory import MemorySystem
from repro.substrates.graphs import random_graph

GRAPH = random_graph(40, 90, seed=111)


class TestDeadlockDetection:
    def test_wedged_engine_deadlocks_with_stuck_report(self):
        # Without the invariant checker, a permanent full-lane outage
        # must still be caught by the deadlock window.
        config = SimConfig(deadlock_window=2000)
        plan = FaultPlan([FaultEvent(
            FaultKind.LANE_FAIL, 64, duration=1 << 30,
            magnitude=config.rule_lanes,
        )])
        sim = AcceleratorSim(build_app("SPEC-BFS", GRAPH, 0),
                             platform=HARP, config=config, faults=plan)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        # Progress stops shortly after the fault window opens at 64.
        assert excinfo.value.cycle <= 64 + 2 * 2000
        assert "deadlocked at cycle" in str(excinfo.value)
        # The stuck report names the blocked stages.
        assert "queued=" in str(excinfo.value)

    def test_max_cycles_budget(self):
        config = SimConfig(max_cycles=100)
        sim = AcceleratorSim(build_app("SPEC-BFS", GRAPH, 0),
                             platform=HARP, config=config)
        with pytest.raises(SimulationError, match="exceeded 100"):
            sim.run()


class TestConfigValidation:
    @pytest.mark.parametrize("name", [
        "station_depth", "fifo_depth", "queue_banks",
        "queue_depth_per_bank", "rule_lanes",
        "minimum_broadcast_interval", "max_cycles", "deadlock_window",
    ])
    def test_non_positive_rejected(self, name):
        with pytest.raises(SpecificationError, match=name):
            SimConfig(**{name: 0})
        with pytest.raises(SpecificationError, match=name):
            SimConfig(**{name: -4})

    def test_non_integer_rejected(self):
        with pytest.raises(SpecificationError, match="rule_lanes"):
            SimConfig(rule_lanes=2.5)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecificationError,
                           match="'dense' or 'event'") as excinfo:
            SimConfig(engine="fast")
        assert "'fast'" in str(excinfo.value)

    def test_defaults_valid(self):
        SimConfig()  # must not raise


class TestSeedOverflow:
    """More seed tasks than a task queue holds is a configuration error,
    raised before cycle 0 by both entry points."""

    SPEC = build_app("SPEC-MST", random_graph(40, 120, seed=2))
    CONFIG = SimConfig(queue_banks=1, queue_depth_per_bank=8)
    MESSAGE = "120 initial 'mstedge' tasks overflow its task queue, " \
              "which holds 8"

    def test_run_raises_before_cycle_zero(self):
        sim = AcceleratorSim(self.SPEC, platform=HARP, config=self.CONFIG)
        with pytest.raises(SpecificationError, match=self.MESSAGE):
            sim.run()
        assert sim.cycle == 0

    def test_run_resilient_raises_it_once(self, monkeypatch):
        runs = []
        run = AcceleratorSim.run

        def counted(sim, **kwargs):
            runs.append(sim)
            return run(sim, **kwargs)

        monkeypatch.setattr(AcceleratorSim, "run", counted)
        with pytest.raises(SpecificationError, match=self.MESSAGE):
            run_resilient(self.SPEC, platform=HARP, config=self.CONFIG)
        assert len(runs) == 1


class TestHostBatchOverflow:
    """A host batch with more tasks for one task set than that queue
    holds can never be injected whole: a configuration error, raised
    when the batch is pulled, not a deadlock after the window."""

    CONFIG = SimConfig(queue_banks=1, queue_depth_per_bank=4,
                       deadlock_window=2000)
    CASES = {
        "SPEC-DMR": "SPEC-DMR: host batch 0 holds 16 'refine' tasks, "
                    r"more than its task queue holds \(4\)",
        "COOR-LU": "COOR-LU: host batch 0 holds 24 'lutask' tasks, "
                   r"more than its task queue holds \(4\)",
    }

    @pytest.fixture(params=sorted(CASES))
    def app(self, request):
        # The CLI's inputs for the two host-fed apps.
        from repro.eval.workloads import default_workloads

        spec = default_workloads(scale=0.5)[request.param].build_spec()
        return spec, self.CASES[request.param]

    def test_simulate_app_raises_it(self, app):
        spec, message = app
        with pytest.raises(SpecificationError, match=message):
            simulate_app(spec, EVAL_HARP, self.CONFIG)

    def test_run_resilient_raises_it_once(self, app, monkeypatch):
        spec, message = app
        runs = []
        run = AcceleratorSim.run

        def counted(sim, **kwargs):
            runs.append(sim)
            return run(sim, **kwargs)

        monkeypatch.setattr(AcceleratorSim, "run", counted)
        with pytest.raises(SpecificationError, match=message):
            run_resilient(spec, platform=EVAL_HARP, config=self.CONFIG)
        assert len(runs) == 1


class TestMemoryMisuse:
    def test_bad_cache_geometry(self):
        with pytest.raises(SimulationError):
            MemorySystem(HarpPlatform(cache_bytes=1000))

    def test_retire_unknown_request(self):
        memory = MemorySystem(HARP)
        with pytest.raises(SimulationError,
                           match="no memory request outstanding"):
            memory.retire()

    def test_double_retire_rejected(self):
        memory = MemorySystem(HARP)
        memory.issue_load(0, 0)
        memory.retire()
        with pytest.raises(SimulationError,
                           match="no memory request outstanding"):
            memory.retire()
        assert memory.in_flight == 0
