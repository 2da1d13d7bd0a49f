"""Experiment harness: regenerates every table and figure (Section 6).

====================  =====================================================
``run_table1``        Table 1 — AOCL BFS vs SPEC-BFS vs COOR-BFS seconds
``run_figure9``       Figure 9 — accelerator speedup over 1-core and
                      10-core Xeon software for all six benchmarks
``run_figure10``      Figure 10 — speedup over the 1x-QPI baseline and
                      pipeline utilization as bandwidth scales
``run_resources``     Section 6.2 — rule-engine share of registers after
                      heuristic tuning
====================  =====================================================

Each returns plain dataclasses so benchmarks, tests and examples can format
or assert on them; ``repro.eval.reporting`` renders them the way the paper
prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cpu.timing import parallel_seconds, sequential_seconds
from repro.eval.platforms import EVAL_HARP, EVAL_XEON, HarpPlatform
from repro.eval.workloads import APP_NAMES, Workload, default_workloads
from repro.exec import CallableSource, SimJob, SweepRunner
from repro.hls_baseline.opencl_model import OpenClBfsModel
from repro.sim.accelerator import SimConfig, simulate_app
from repro.substrates.graphs.generators import road_network
from repro.synthesis.resources import estimate_datapath
from repro.synthesis.tuning import build_tuned_datapath


def _sweep_job(
    workload: Workload,
    platform: HarpPlatform,
    config: SimConfig | None,
    tag: str,
    engine: str | None = None,
) -> SimJob:
    """One figure-sweep point as a runner job.

    Workloads that predate the declarative sources (``source=None``) fall
    back to wrapping their builder — still correct, but uncacheable and
    executed in-process by the runner.  ``engine`` overrides the
    simulation engine while keeping the workload's other knobs (it is
    digest-relevant, so each engine caches separately).
    """
    config = config or workload.config
    if engine is not None:
        config = replace(config, engine=engine)
    return SimJob(
        source=workload.source or CallableSource(workload.build_spec),
        platform=platform,
        config=config,
        replicas=workload.replicas,
        tag=tag,
    )


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    opencl_seconds: float
    spec_bfs_seconds: float
    coor_bfs_seconds: float
    levels: int
    graph: str

    @property
    def opencl_vs_spec(self) -> float:
        return self.opencl_seconds / self.spec_bfs_seconds

    @property
    def opencl_vs_coor(self) -> float:
        return self.opencl_seconds / self.coor_bfs_seconds


def run_table1(
    width: int = 48, height: int = 6, seed: int = 13,
    config: SimConfig | None = None,
    engine: str | None = None,
) -> Table1Result:
    """Reproduce Table 1 on a high-diameter road network.

    The paper uses the full USA road graph (diameter in the thousands);
    our scaled graph keeps the property that drives the result — level
    count far exceeding what host-coordinated kernel relaunches can
    tolerate.
    """
    from repro.apps.registry import build_app

    graph = road_network(width, height, seed=seed)
    model = OpenClBfsModel()
    config = config or SimConfig()
    if engine is not None:
        config = replace(config, engine=engine)
    spec_result = simulate_app(
        build_app("SPEC-BFS", graph, 0), platform=EVAL_HARP, config=config
    )
    coor_result = simulate_app(
        build_app("COOR-BFS", graph, 0), platform=EVAL_HARP, config=config
    )
    return Table1Result(
        opencl_seconds=model.seconds(graph, 0),
        spec_bfs_seconds=spec_result.seconds,
        coor_bfs_seconds=coor_result.seconds,
        levels=model.level_count(graph, 0),
        graph=f"road {width}x{height}",
    )


# ---------------------------------------------------------------------------
# Figure 9
# ---------------------------------------------------------------------------

@dataclass
class Figure9Row:
    app: str
    accel_seconds: float
    sequential_seconds: float
    parallel_seconds: float
    utilization: float

    @property
    def speedup_vs_1core(self) -> float:
        return self.sequential_seconds / self.accel_seconds

    @property
    def speedup_vs_10core(self) -> float:
        return self.parallel_seconds / self.accel_seconds


@dataclass
class Figure9Result:
    rows: dict[str, Figure9Row] = field(default_factory=dict)

    def speedups_1core(self) -> dict[str, float]:
        return {k: r.speedup_vs_1core for k, r in self.rows.items()}

    def speedups_10core(self) -> dict[str, float]:
        return {k: r.speedup_vs_10core for k, r in self.rows.items()}


def run_figure9(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_NAMES,
    config: SimConfig | None = None,
    workloads: dict[str, Workload] | None = None,
    runner: SweepRunner | None = None,
    engine: str | None = None,
) -> Figure9Result:
    """Reproduce Figure 9: accelerator vs Xeon software counterparts."""
    workloads = workloads or default_workloads(scale)
    runner = runner or SweepRunner()
    jobs = [
        _sweep_job(workloads[app], EVAL_HARP, config, tag=f"fig9:{app}",
                   engine=engine)
        for app in apps
    ]
    outcomes = runner.run(jobs)
    result = Figure9Result()
    for app, outcome in zip(apps, outcomes):
        workload = workloads[app]
        result.rows[app] = Figure9Row(
            app=app,
            accel_seconds=outcome.seconds,
            sequential_seconds=sequential_seconds(workload.profile,
                                                  EVAL_XEON),
            parallel_seconds=parallel_seconds(workload.profile, EVAL_XEON),
            utilization=outcome.utilization,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 10
# ---------------------------------------------------------------------------

@dataclass
class Figure10Point:
    bandwidth_scale: float
    seconds: float
    speedup_over_baseline: float
    utilization: float
    squash_fraction: float


@dataclass
class Figure10Series:
    app: str
    points: list[Figure10Point] = field(default_factory=list)

    def speedups(self) -> list[float]:
        return [p.speedup_over_baseline for p in self.points]

    def utilizations(self) -> list[float]:
        return [p.utilization for p in self.points]


def run_figure10(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_NAMES,
    bandwidth_scales: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    config: SimConfig | None = None,
    workloads: dict[str, Workload] | None = None,
    runner: SweepRunner | None = None,
    engine: str | None = None,
) -> dict[str, Figure10Series]:
    """Reproduce Figure 10: the QPI-bandwidth-scaling emulator sweep.

    The full app x bandwidth grid is submitted as one batch so a parallel
    runner can overlap every point; results come back in input order, so
    the series (and the baseline-relative speedups) are identical to the
    serial loop this replaced.
    """
    workloads = workloads or default_workloads(scale)
    runner = runner or SweepRunner()
    grid = [(app, factor) for app in apps for factor in bandwidth_scales]
    jobs = [
        _sweep_job(workloads[app], EVAL_HARP.scaled(factor), config,
                   tag=f"fig10:{app}@{factor:g}x", engine=engine)
        for app, factor in grid
    ]
    outcomes = runner.run(jobs)
    results: dict[str, Figure10Series] = {}
    for (app, factor), outcome in zip(grid, outcomes):
        series = results.setdefault(app, Figure10Series(app))
        baseline_seconds = (
            series.points[0].seconds if series.points else outcome.seconds
        )
        series.points.append(Figure10Point(
            bandwidth_scale=factor,
            seconds=outcome.seconds,
            speedup_over_baseline=baseline_seconds / outcome.seconds,
            utilization=outcome.utilization,
            squash_fraction=outcome.squash_fraction,
        ))
    return results


# ---------------------------------------------------------------------------
# Section 6.2 — structure / resources
# ---------------------------------------------------------------------------

@dataclass
class ResourceRow:
    app: str
    pipelines: int
    rule_lanes: int
    rule_engine_register_share: float
    register_utilization: float
    alm_utilization: float
    bram_utilization: float


def run_resources(
    scale: float = 0.5,
    apps: tuple[str, ...] = APP_NAMES,
    workloads: dict[str, Workload] | None = None,
) -> dict[str, ResourceRow]:
    """Reproduce the Section 6.2 structural comparison."""
    workloads = workloads or default_workloads(scale)
    rows: dict[str, ResourceRow] = {}
    for app in apps:
        spec = workloads[app].build_spec()
        datapath = build_tuned_datapath(spec)
        estimate = estimate_datapath(datapath)
        usage = estimate.utilization()
        engine = next(iter(datapath.rule_engines.values()))
        rows[app] = ResourceRow(
            app=app,
            pipelines=datapath.total_pipelines,
            rule_lanes=engine.lanes,
            rule_engine_register_share=estimate.rule_engine_register_share,
            register_utilization=usage["registers"],
            alm_utilization=usage["alms"],
            bram_utilization=usage["m20k"],
        )
    return rows


# ---------------------------------------------------------------------------
# Paper reference numbers (for EXPERIMENTS.md comparisons)
# ---------------------------------------------------------------------------

PAPER_TABLE1 = {"OpenCL": 124.1, "SPEC-BFS": 0.47, "COOR-BFS": 0.64}
PAPER_FIGURE9_BANDS = {"vs_1core": (2.3, 5.9), "vs_10core": (0.5, 1.9)}
PAPER_RULE_ENGINE_SHARE = (0.048, 0.10)
