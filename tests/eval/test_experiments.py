"""Tests for the experiment harness at tiny scale (full runs live in
benchmarks/)."""

import pytest

from repro.eval.experiments import (
    run_figure9,
    run_figure10,
    run_resources,
    run_table1,
)
from repro.eval.platforms import EVAL_HARP, HARP
from repro.eval.reporting import (
    format_figure9,
    format_figure10,
    format_resources,
    format_table1,
)
from repro.eval.workloads import (
    APP_NAMES,
    default_workloads,
    road_workloads,
)


@pytest.fixture(scope="module")
def tiny_workloads():
    return default_workloads(scale=0.3)


class TestWorkloads:
    def test_all_apps_present(self, tiny_workloads):
        assert set(tiny_workloads) == set(APP_NAMES)

    def test_profiles_attached(self, tiny_workloads):
        for workload in tiny_workloads.values():
            assert workload.profile.instructions > 0

    def test_specs_buildable(self, tiny_workloads):
        for workload in tiny_workloads.values():
            spec = workload.build_spec()
            assert spec.name == workload.app

    def test_road_variants(self):
        roads = road_workloads(scale=0.3)
        assert set(roads) == {"SPEC-BFS", "COOR-BFS", "SPEC-SSSP"}


class TestPlatforms:
    def test_bandwidth_scaling(self):
        assert HARP.scaled(2.0).qpi_bytes_per_cycle == pytest.approx(
            2.0 * HARP.qpi_bytes_per_cycle
        )

    def test_eval_platform_smaller_cache(self):
        assert EVAL_HARP.cache_bytes < HARP.cache_bytes

    def test_cycle_seconds(self):
        assert HARP.cycle_seconds == pytest.approx(5e-9)


class TestExperimentsTiny:
    def test_table1_small(self):
        result = run_table1(width=16, height=4, seed=1)
        assert result.opencl_seconds > result.spec_bfs_seconds
        text = format_table1(result)
        assert "OpenCL" in text and "SPEC-BFS" in text
        # The measured column keeps three significant digits, however
        # small the accelerator times are.
        cells = {line.split()[0]: float(line.split()[1])
                 for line in text.splitlines()[3:6]}
        for name, seconds in (("OpenCL", result.opencl_seconds),
                              ("SPEC-BFS", result.spec_bfs_seconds),
                              ("COOR-BFS", result.coor_bfs_seconds)):
            assert seconds > 0
            assert cells[name] == float(f"{seconds:.3g}")

    def test_figure9_single_app(self, tiny_workloads):
        result = run_figure9(apps=("SPEC-MST",), workloads=tiny_workloads)
        row = result.rows["SPEC-MST"]
        assert row.speedup_vs_1core > 0
        assert row.speedup_vs_10core > 0
        assert "SPEC-MST" in format_figure9(result)

    def test_figure9_speedup_dicts(self, tiny_workloads):
        result = run_figure9(apps=("COOR-LU",), workloads=tiny_workloads)
        assert set(result.speedups_1core()) == {"COOR-LU"}
        assert set(result.speedups_10core()) == {"COOR-LU"}

    def test_figure10_two_points(self, tiny_workloads):
        result = run_figure10(
            apps=("COOR-LU",), bandwidth_scales=(1.0, 4.0),
            workloads=tiny_workloads,
        )
        series = result["COOR-LU"]
        assert series.points[0].speedup_over_baseline == 1.0
        assert series.points[1].speedup_over_baseline > 1.5
        assert "COOR-LU" in format_figure10(result)

    def test_resources_tiny(self, tiny_workloads):
        rows = run_resources(apps=("SPEC-BFS",), workloads=tiny_workloads)
        row = rows["SPEC-BFS"]
        assert 0.0 < row.rule_engine_register_share < 0.2
        assert "SPEC-BFS" in format_resources(rows)
