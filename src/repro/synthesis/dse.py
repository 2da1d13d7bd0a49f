"""Automatic design-space exploration for template parameters.

Section 8 leaves this as future work: "Another question for future work is
how to automatically choose parameters for templated components when
generating structures on FPGA.  With proper abstractions and automatic
design space explorations, developing hardware accelerator for irregular
applications will be open to software developers."

This module closes that loop within the reproduction: it sweeps the
architectural knobs (pipeline replicas, rule lanes, station depth) over a
candidate grid, prunes configurations that do not fit the device, runs the
cycle-level simulator for the survivors, and returns the Pareto frontier of
(cycles, registers).  Because the simulator computes real answers, every
explored point is also functionally verified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.eval.platforms import STRATIX_V, HarpPlatform, HARP, StratixV
from repro.exec import SimJob, SweepRunner
from repro.sim.accelerator import SimConfig
from repro.synthesis.datapath import build_datapath
from repro.synthesis.resources import estimate_datapath


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration and its measurements."""

    replicas_per_set: int
    rule_lanes: int
    station_depth: int
    cycles: int
    registers: int
    alms: int
    utilization: float

    @property
    def label(self) -> str:
        return (f"P{self.replicas_per_set}/L{self.rule_lanes}"
                f"/S{self.station_depth}")

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (cycles, registers): smaller is better."""
        no_worse = (self.cycles <= other.cycles
                    and self.registers <= other.registers)
        better = (self.cycles < other.cycles
                  or self.registers < other.registers)
        return no_worse and better


@dataclass
class DseResult:
    """All evaluated points plus the Pareto frontier."""

    points: list[DesignPoint] = field(default_factory=list)
    skipped_overflow: int = 0

    @property
    def frontier(self) -> list[DesignPoint]:
        frontier = [
            p for p in self.points
            if not any(q.dominates(p) for q in self.points)
        ]
        return sorted(frontier, key=lambda p: p.cycles)

    def best_performance(self) -> DesignPoint:
        return min(self.points, key=lambda p: p.cycles)

    def smallest(self) -> DesignPoint:
        return min(self.points, key=lambda p: p.registers)


def explore(
    source,
    replica_options: Sequence[int] = (1, 2, 4),
    lane_options: Sequence[int] = (16, 64),
    station_options: Sequence[int] = (8, 16),
    platform: HarpPlatform = HARP,
    device: StratixV = STRATIX_V,
    runner: SweepRunner | None = None,
) -> DseResult:
    """Sweep the knob grid; simulate what fits; return Pareto data.

    ``source`` is a spec source from :mod:`repro.exec` (wrap a plain
    builder in :class:`~repro.exec.CallableSource`); a declarative one
    makes the points cacheable and executable in pool workers.  Resource
    estimation stays in-process (it is cheap and structural, and only
    reads the spec, so one probe spec serves the whole grid); the
    surviving grid points — each a full cycle-level simulation, on a
    fresh spec — are batched through ``runner``.
    """
    result = DseResult()
    runner = runner or SweepRunner()
    probe_spec = source.build()
    grid = itertools.product(replica_options, lane_options, station_options)
    jobs: list[SimJob] = []
    estimates: list = []
    for replicas_per_set, lanes, station in grid:
        replicas = {name: replicas_per_set for name in probe_spec.task_sets}
        datapath = build_datapath(
            probe_spec, replicas=replicas, rule_lanes=lanes,
            station_depth=station,
        )
        estimate = estimate_datapath(datapath)
        if not estimate.fits(device):
            result.skipped_overflow += 1
            continue
        jobs.append(SimJob(
            source=source,
            platform=platform,
            config=SimConfig(rule_lanes=lanes, station_depth=station),
            replicas=replicas,
            tag=f"dse:P{replicas_per_set}/L{lanes}/S{station}",
        ))
        estimates.append((replicas_per_set, lanes, station, estimate))
    outcomes = runner.run(jobs)
    for (replicas_per_set, lanes, station, estimate), outcome in zip(
        estimates, outcomes
    ):
        result.points.append(DesignPoint(
            replicas_per_set=replicas_per_set,
            rule_lanes=lanes,
            station_depth=station,
            cycles=outcome.cycles,
            registers=estimate.total.registers,
            alms=estimate.total.alms,
            utilization=outcome.utilization,
        ))
    return result


def format_frontier(result: DseResult) -> str:
    """Human-readable frontier table."""
    lines = [
        "Design-space exploration: Pareto frontier (cycles vs registers)",
        f"  explored {len(result.points)} fitting points, "
        f"{result.skipped_overflow} rejected for overflow",
        f"  {'config':>14s} {'cycles':>9s} {'registers':>10s} "
        f"{'util':>6s}{'':>3s}",
    ]
    frontier = set(id(p) for p in result.frontier)
    for point in sorted(result.points, key=lambda p: p.cycles):
        marker = " *" if id(point) in frontier else ""
        lines.append(
            f"  {point.label:>14s} {point.cycles:9d} "
            f"{point.registers:10d} {point.utilization:6.3f}{marker}"
        )
    lines.append("  (* = Pareto-optimal)")
    return "\n".join(lines)
