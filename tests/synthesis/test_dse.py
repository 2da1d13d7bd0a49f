"""Tests for the design-space exploration module."""

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP
from repro.exec import CallableSource
from repro.substrates.graphs import random_graph
from repro.synthesis.dse import (
    DesignPoint,
    DseResult,
    explore,
    format_frontier,
)

GRAPH = random_graph(50, 150, seed=41)


def _point(cycles, registers, label=1):
    return DesignPoint(
        replicas_per_set=label, rule_lanes=16, station_depth=8,
        cycles=cycles, registers=registers, alms=0, utilization=0.1,
    )


class TestPareto:
    def test_dominates(self):
        assert _point(100, 100).dominates(_point(200, 200))
        assert _point(100, 200).dominates(_point(100, 300))
        assert not _point(100, 300).dominates(_point(200, 200))
        assert not _point(100, 100).dominates(_point(100, 100))

    def test_frontier_excludes_dominated(self):
        result = DseResult(points=[
            _point(100, 300), _point(200, 200), _point(300, 100),
            _point(250, 250),  # dominated by (200, 200)
        ])
        frontier = result.frontier
        assert len(frontier) == 3
        assert all(p.cycles != 250 for p in frontier)

    def test_best_and_smallest(self):
        result = DseResult(points=[_point(100, 300), _point(300, 100)])
        assert result.best_performance().cycles == 100
        assert result.smallest().registers == 100


@pytest.fixture(scope="module")
def dse_result():
    return explore(
        CallableSource(lambda: build_app("SPEC-SSSP", GRAPH, 0)),
        replica_options=(1, 2),
        lane_options=(16, 64),
        station_options=(8,),
        platform=EVAL_HARP,
    )


class TestExplore:
    def test_all_fitting_points_evaluated(self, dse_result):
        assert len(dse_result.points) + dse_result.skipped_overflow == 4

    def test_every_point_verified_and_measured(self, dse_result):
        for point in dse_result.points:
            assert point.cycles > 0
            assert point.registers > 0
            assert 0.0 <= point.utilization <= 1.0

    def test_more_resources_not_slower(self, dse_result):
        by_config = {
            (p.replicas_per_set, p.rule_lanes): p.cycles
            for p in dse_result.points
        }
        assert by_config[(2, 64)] <= by_config[(1, 16)]

    def test_frontier_non_empty(self, dse_result):
        assert dse_result.frontier
        # The fastest point is always on the frontier.
        assert dse_result.best_performance() in dse_result.frontier

    def test_format_frontier(self, dse_result):
        text = format_frontier(dse_result)
        assert "Pareto" in text
        assert "*" in text


def test_one_probe_build_serves_every_resource_estimate():
    builds = []

    def builder():
        builds.append(None)
        return build_app("SPEC-SSSP", GRAPH, 0)

    result = explore(
        CallableSource(builder),
        replica_options=(1, 2),
        lane_options=(16, 64),
        station_options=(8,),
        platform=EVAL_HARP,
    )
    # One probe for the grid's estimates, one fresh spec per simulation.
    assert len(builds) == 1 + len(result.points)
