"""Paper-style rendering of experiment results."""

from __future__ import annotations

from repro.eval.experiments import (
    Figure9Result,
    Figure10Series,
    PAPER_FIGURE9_BANDS,
    PAPER_TABLE1,
    ResourceRow,
    Table1Result,
)


def format_table1(result: Table1Result) -> str:
    """Render Table 1: best times in seconds, plus paper reference."""
    lines = [
        "Table 1: Comparison of BFS in OpenCL to SPEC-BFS and COOR-BFS "
        "(seconds)",
        f"  graph: {result.graph} ({result.levels} BFS levels)",
        f"  {'Accelerator':12s} {'measured':>12s} {'paper':>10s}",
        f"  {'OpenCL':12s} {result.opencl_seconds:12.3g} "
        f"{PAPER_TABLE1['OpenCL']:10.2f}",
        f"  {'SPEC-BFS':12s} {result.spec_bfs_seconds:12.3g} "
        f"{PAPER_TABLE1['SPEC-BFS']:10.2f}",
        f"  {'COOR-BFS':12s} {result.coor_bfs_seconds:12.3g} "
        f"{PAPER_TABLE1['COOR-BFS']:10.2f}",
        f"  OpenCL / SPEC-BFS ratio: {result.opencl_vs_spec:8.1f}x "
        f"(paper: {PAPER_TABLE1['OpenCL'] / PAPER_TABLE1['SPEC-BFS']:.0f}x)",
    ]
    return "\n".join(lines)


def format_figure9(result: Figure9Result) -> str:
    """Render Figure 9 as the two speedup series."""
    lo1, hi1 = PAPER_FIGURE9_BANDS["vs_1core"]
    lo10, hi10 = PAPER_FIGURE9_BANDS["vs_10core"]
    lines = [
        "Figure 9: Speedup of synthesized accelerators over Xeon software",
        f"  paper bands: {lo1}-{hi1}x vs 1 core, {lo10}-{hi10}x vs 10 cores",
        f"  {'app':10s} {'vs 1-core':>10s} {'vs 10-core':>11s} "
        f"{'accel(ms)':>10s}",
    ]
    for app, row in result.rows.items():
        lines.append(
            f"  {app:10s} {row.speedup_vs_1core:9.2f}x "
            f"{row.speedup_vs_10core:10.2f}x "
            f"{row.accel_seconds * 1e3:10.3f}"
        )
    return "\n".join(lines)


def format_figure10(series_by_app: dict[str, Figure10Series]) -> str:
    """Render Figure 10: speedup (solid) and utilization (dash) series."""
    lines = ["Figure 10: Speedup over 1x-QPI baseline and pipeline "
             "utilization vs bandwidth"]
    for app, series in series_by_app.items():
        bw = " ".join(f"{p.bandwidth_scale:4.0f}x" for p in series.points)
        sp = " ".join(
            f"{p.speedup_over_baseline:5.2f}" for p in series.points
        )
        ut = " ".join(f"{p.utilization:5.3f}" for p in series.points)
        lines.append(f"  {app:10s} bandwidth: {bw}")
        lines.append(f"  {'':10s} speedup:   {sp}")
        lines.append(f"  {'':10s} util:      {ut}")
    return "\n".join(lines)


def format_resources(rows: dict[str, ResourceRow]) -> str:
    """Render the Section 6.2 structural summary."""
    lines = [
        "Section 6.2: datapath structure after heuristic tuning",
        "  paper: rule engines take 4.8-10% of registers",
        f"  {'app':10s} {'pipes':>5s} {'lanes':>5s} {'rule-share':>10s} "
        f"{'regs':>6s} {'alms':>6s}",
    ]
    for app, row in rows.items():
        lines.append(
            f"  {app:10s} {row.pipelines:5d} {row.rule_lanes:5d} "
            f"{row.rule_engine_register_share * 100:9.1f}% "
            f"{row.register_utilization * 100:5.1f}% "
            f"{row.alm_utilization * 100:5.1f}%"
        )
    return "\n".join(lines)
