"""Tests for the simulator's error paths: deadlock detection, cycle
budget exhaustion, configuration validation, and memory-model misuse."""

import pytest

from repro.apps.registry import build_app
from repro.errors import DeadlockError, SimulationError, SpecificationError
from repro.eval.platforms import HARP, HarpPlatform
from repro.sim.accelerator import AcceleratorSim, SimConfig
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


class TestMemoryMisuse:
    def test_bad_cache_geometry(self):
        with pytest.raises(SimulationError):
            MemorySystem(HarpPlatform(cache_bytes=1000))

    def test_done_at_unknown_request(self):
        memory = MemorySystem(HARP)
        with pytest.raises(SimulationError, match="unknown memory request"):
            memory.done_at(12345)

    def test_retire_unknown_request(self):
        memory = MemorySystem(HARP)
        with pytest.raises(SimulationError,
                           match="retire of unknown memory request"):
            memory.retire(12345)

    def test_double_retire_rejected(self):
        memory = MemorySystem(HARP)
        req = memory.issue_load(0, 0)
        memory.retire(req)
        with pytest.raises(SimulationError, match=str(req)):
            memory.retire(req)
