"""Tests for pipeline construction internals and stage wiring."""

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.pipeline import PipelineInstance, SourceStage
from repro.sim.stages import ExpandStage, RendezvousStage, SwitchStage
from repro.substrates.graphs import random_graph

GRAPH = random_graph(40, 90, seed=111)


@pytest.fixture()
def bfs_sim():
    spec = build_app("SPEC-BFS", GRAPH, 0)
    return AcceleratorSim(spec, platform=HARP, config=SimConfig(),
                          replicas={"visit": 2, "update": 3})


class TestConstruction:
    def test_replica_counts(self, bfs_sim):
        names = [p.name for p in bfs_sim.pipelines]
        assert names.count("visit[0]") == 1
        assert sum(1 for n in names if n.startswith("visit")) == 2
        assert sum(1 for n in names if n.startswith("update")) == 3

    def test_first_stage_is_source(self, bfs_sim):
        for pipeline in bfs_sim.pipelines:
            assert isinstance(pipeline.stages[0], SourceStage)

    def test_chain_wiring(self, bfs_sim):
        """Every non-terminal main-chain stage feeds the next one's fifo."""
        pipeline = bfs_sim.pipelines[0]
        source = pipeline.stages[0]
        assert source.output is pipeline.stages[1].input

    def test_terminal_stage_retires(self, bfs_sim):
        for pipeline in bfs_sim.pipelines:
            terminals = [s for s in pipeline.stages if s.output is None]
            assert terminals, pipeline.name
            assert any(s.on_retire in ("commit", "end") for s in terminals)

    def test_stage_count_matches_program(self, bfs_sim):
        for pipeline in bfs_sim.pipelines:
            assert pipeline.stage_count() == len(pipeline.stages)

    def test_total_stages_statistic(self, bfs_sim):
        assert bfs_sim.stats.total_stages == sum(
            p.stage_count() for p in bfs_sim.pipelines
        )

    def test_mst_abort_epilogue_wired(self):
        spec = build_app("SPEC-MST", GRAPH)
        sim = AcceleratorSim(spec, platform=HARP, config=SimConfig())
        rendezvous = [
            s for p in sim.pipelines for s in p.stages
            if isinstance(s, RendezvousStage)
        ]
        assert rendezvous
        assert all(s.epilogue_entry is not None for s in rendezvous)

    def test_guard_without_epilogue_has_no_entry(self, bfs_sim):
        switches = [
            s for p in bfs_sim.pipelines for s in p.stages
            if isinstance(s, SwitchStage)
        ]
        assert switches
        # SPEC-BFS's guard drops tokens outright (no else ops).
        assert all(s.epilogue_entry is None for s in switches)


class TestDiagnostics:
    def test_stuck_report_empty_before_run(self, bfs_sim):
        for pipeline in bfs_sim.pipelines:
            assert pipeline.stuck_report() == []

    def test_stuck_report_lists_held_expansions(self, bfs_sim):
        """An Expand stage's held expansions count as its internal work,
        as a station's requests do."""
        bfs_sim.host.start()
        bfs_sim._started = True
        expands = [s for s in bfs_sim._stages if isinstance(s, ExpandStage)]
        for _ in range(50):
            bfs_sim.step()
            holding = [s for s in expands if s._inflight]
            if holding:
                break
        assert holding
        report = [line for p in bfs_sim.pipelines
                  for line in p.stuck_report()]
        for stage in holding:
            assert any(line.startswith(f"{stage.name}: ")
                       and line.endswith(f"internal={len(stage._inflight)}")
                       for line in report), report

    def test_busy_false_when_idle(self, bfs_sim):
        for pipeline in bfs_sim.pipelines:
            assert not pipeline.busy()

    def test_run_drains_everything(self, bfs_sim):
        bfs_sim.run()
        for pipeline in bfs_sim.pipelines:
            assert not pipeline.busy()
            assert pipeline.stuck_report() == []
        assert all(len(q) == 0 for q in bfs_sim.queues.values())
        assert bfs_sim.tracker.count == 0
