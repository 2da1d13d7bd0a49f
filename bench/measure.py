"""Measure one workload: warm-up, timed passes, a traced pass, checks.

Every host time is divided by the host's slowdown from
:class:`~bench.speed.SpeedProbe`, so it reads as seconds on the reference
host: a point's simulation time by the slowdown while it ran, any other
time by the pass's.  The raw wall times and slowdowns are kept beside.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)
from bench.layers import LAYERS, Sampler
from bench.speed import SpeedProbe, window_slowdown
from bench.suite import Recorder, Workload, figure9_rows, point_counts
from repro.eval.experiments import PAPER_FIGURE9_BANDS
from repro.eval.workloads import APP_NAMES
from repro.obs.critpath import BUCKETS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_values(rec: Recorder) -> dict[str, float]:
    """The host-time per-layer values one untraced pass measured."""
    counts = point_counts(rec.points)
    slow = rec.slowdown
    run_s = sum(p["run_s"] / p["slowdown"] for p in rec.points.values())
    observed = sum(s.dur for s in rec.spans
                   if s.name == "run" and s.point.endswith(":observed"))
    values = rec.values
    wall = rec.wall_s
    return {
        "apps.build_s": rec.total("build") / slow,
        "apps.verify_s": rec.total("verify") / slow,
        "synthesis.construct_s": rec.total("construct") / slow,
        "sim.run_s": run_s,
        "sim.host_us_per_commit": _ratio(run_s, counts["commits"]) * 1e6,
        "sim.host_us_per_cycle": _ratio(run_s, counts["cycles"]) * 1e6,
        "obs.overhead_x": _ratio(observed, rec.total("run") - observed),
        "obs.critpath_share": _ratio(rec.total("critpath"), wall),
        "obs.record_share": _ratio(rec.total("record"), wall),
        "obs.store_share": _ratio(rec.total("store"), wall),
        "exec.cold_share": _ratio(rec.duration("sweep", "cold"), wall),
        "exec.warm_share": _ratio(rec.duration("sweep", "warm"), wall),
        "exec.workers.busy_fraction":
            values.get("exec.workers.busy_fraction", 0.0),
        "exec.job.queue_wait_share": _ratio(
            values.get("exec.queue_wait_s", 0.0),
            values.get("exec.queue_wait_s", 0.0)
            + values.get("exec.job_wall_s", 0.0)),
        "exec.spec_rebuild_share": _ratio(
            values.get("exec.spec_rebuild_s", 0.0),
            values.get("exec.job_wall_s", 0.0)),
        "exec.store.commit_share": _ratio(
            values.get("exec.store.commit_s", 0.0), wall),
        "exec.cache.lookup_share": _ratio(
            values.get("exec.cache.lookup_s", 0.0), wall),
        "io.lock.wait_share": _ratio(values.get("io.lock.wait_s", 0.0), wall),
        "exec.cache.hits": values.get("exec.cache.hits", 0),
        "exec.cache.misses": values.get("exec.cache.misses", 0),
        "exec.jobs.retried": values.get("exec.jobs.retried", 0),
    }


def simulated_values(rec: Recorder, workload: Workload) -> dict[str, float]:
    """The deterministic per-layer values: simulated counts and results."""
    c = point_counts(rec.points)
    values = {
        "sim.cycles": c["cycles"],
        "sim.commits": c["commits"],
        "sim.commit_frac": _ratio(c["commits"], c["commits"] + c["squashes"]),
        "sim.utilization": _ratio(c["active_stage_cycles"],
                                  c["stage_cycles"]),
        "sim.events_delivered": c["events_delivered"],
        "sim.queue_full_stalls": c["queue_full_stalls"],
        "sim.memory.loads": c["loads"],
        "sim.memory.hit_rate": _ratio(c["load_hits"], c["loads"]),
        "sim.memory.bytes": c["bytes"],
        "sim.scheduler.jumps": c["jumps"],
        "sim.scheduler.skip_frac": _ratio(c["cycles_skipped"], c["cycles"]),
    }
    for bucket in BUCKETS:
        values[f"critpath.{bucket}_cycles"] = rec.buckets.get(bucket, 0)
    rows = figure9_rows(rec, workload.table)
    misses = 0
    for app in APP_NAMES:
        row = rows.get(app)
        one = row.speedup_vs_1core if row else 0.0
        ten = row.speedup_vs_10core if row else 0.0
        values[f"eval.speedup_1core.{app}"] = one
        values[f"eval.speedup_10core.{app}"] = ten
        if row is not None:
            lo1, hi1 = PAPER_FIGURE9_BANDS["vs_1core"]
            lo10, hi10 = PAPER_FIGURE9_BANDS["vs_10core"]
            misses += not (lo1 <= one <= hi1 and lo10 <= ten <= hi10)
    values["eval.paper_band_misses"] = misses
    return values


def sim_cycles_per_s(passes: list[Recorder]) -> float:
    """Geometric mean over apps of cycles per host second simulating.

    Each point's host time is its median over the passes, at reference
    speed.  An app's rate pools its points (its bandwidths in a sweep,
    where the job running beside each one varies from run to run); an
    app's observed or reference runs pool apart from its plain ones.  A
    mean over apps, not one pooled rate, so an input that happens to
    simulate many cheap cycles does not swing the figure.
    """
    pools: dict[str, list[float]] = {}
    for point, counts in passes[0].points.items():
        app, _, rest = point.partition("@")
        pool = pools.setdefault(f"{app}:{rest.partition(':')[2]}", [0, 0])
        pool[0] += counts["cycles"]
        pool[1] += statistics.median(
            p.points[point]["run_s"] / p.points[point]["slowdown"]
            for p in passes if point in p.points)
    rates = [cycles / run_s for cycles, run_s in pools.values() if run_s]
    if not rates:
        return 0.0
    return math.exp(sum(math.log(r) for r in rates) / len(rates))


def check_cycles(recorders: list[Recorder]) -> tuple[int, list[str]]:
    """Every point must finish at the same cycle in every pass.

    Returns (checks made, failures).
    """
    first: dict[str, tuple[int, int]] = {}
    checks, failures = 0, []
    for index, rec in enumerate(recorders):
        for point, counts in rec.points.items():
            if point not in first:
                first[point] = (index, counts["cycles"])
                continue
            checks += 1
            seen, want = first[point]
            if counts["cycles"] != want:
                failures.append(f"{point}: {counts['cycles']} cycles in "
                                f"pass {index}, {want} in pass {seen}")
    return checks, failures


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _timed_pass(workload: Workload, probe: SpeedProbe,
                traced: bool = False) -> Recorder:
    # Collect the previous pass's garbage outside the timed region.
    gc.collect()
    rec = Recorder()
    mark = probe.mark()
    start = time.perf_counter()
    workload.run_pass(rec, traced=traced)
    rec.wall_s = time.perf_counter() - start
    if rec.slowdown is None:
        rec.slowdown = probe.slowdown(mark)
    for point in rec.points.values():
        if point["slowdown"] is None:
            start = point["run_start"]
            point["slowdown"] = window_slowdown(
                probe.samples, start, start + point["run_s"]) or rec.slowdown
    return rec


def measure(workload: Workload, probe: SpeedProbe, seconds: float,
            trace: bool) -> dict:
    """Warm up, run timed passes for ``seconds``, optionally trace one."""
    warm = Recorder()
    workload.warm_up(warm)
    passes: list[Recorder] = []
    start = time.perf_counter()
    while True:
        passes.append(_timed_pass(workload, probe))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break

    traced = None
    sampler = Sampler()
    if trace:
        sampler.start()
        try:
            traced = _timed_pass(workload, probe, traced=True)
        finally:
            sampler.stop()

    recorders = [warm, *passes] + ([traced] if traced else [])
    checks, failures = check_cycles(recorders)
    for rec in recorders:
        failures.extend(rec.failures)
    # Warm-up and traced passes are checked but not timed.
    attempted = checks + sum(rec.attempted for rec in recorders)

    walls = [p.wall_s / p.slowdown for p in passes]
    wall_s = statistics.median(walls)
    per_pass = [pass_values(p) for p in passes]
    layer = {name: statistics.median(v[name] for v in per_pass)
             for name in per_pass[0]}
    layer["host.slowdown_x"] = statistics.median(p.slowdown for p in passes)
    layer.update(simulated_values(passes[0], workload))
    if traced is not None:
        shares = sampler.shares()
        for name in LAYERS:
            layer[f"{name}.self_share"] = shares[name]
        layer["trace.pass_s"] = traced.wall_s / traced.slowdown
        layer["trace.overhead_x"] = layer["trace.pass_s"] / wall_s
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "pid": os.getpid(),
        "seconds": seconds,
        "wall_samples": walls,
        "raw_wall_samples": [p.wall_s for p in passes],
        "slowdowns": [p.slowdown for p in passes],
        "samples": dict(sampler.counts),
        "end_to_end": {
            "wall_s": wall_s,
            "sim_cycles_per_s": sim_cycles_per_s(passes),
            "peak_rss_mb": peak_rss_mb(),
        },
        "per_layer": layer,
        "points": {point: counts["cycles"]
                   for point, counts in passes[0].points.items()},
        # Each point's simulation time in every timed pass, at reference
        # speed.
        "point_times": {
            point: [p.points[point]["run_s"] / p.points[point]["slowdown"]
                    for p in passes if point in p.points]
            for point in passes[0].points
        },
        "attempted": attempted,
        "failures": failures,
        "spans": [vars(s) for s in traced.spans] if traced else [],
        "fleet_rows": traced.fleet_rows if traced else [],
    }
