"""Differential harness: the event engine must be cycle-exact vs dense.

Every test here runs the same workload through both engines — once
densely (the reference interpreter, every cycle stepped) and once with
the idle-skipping event engine (``engine="event"``) — and asserts the
executions are indistinguishable: identical final cycle counts,
identical :func:`~repro.sim.stats.stats_digest`, identical
metrics-registry snapshots, identical event-trace *schedules*, and
identical stall-attribution accounting (every row summing exactly to
the total cycle count).

The one deliberate divergence is per-cycle ``STAGE_STALL`` trace events:
the event engine folds a skipped quiescent span into the profiler
with one ``skip`` probe emission instead of one stall per cycle,
so trace comparison filters stall events out and compares everything
else (fires, queue traffic, rule-engine lifecycle, memory events,
checkpoints, rollbacks) verbatim.

A small smoke subset runs with the tier-1 suite; the full seeded matrix
of workloads x platforms x microarchitectural configs x fault plans is
marked ``slow``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP, HARP
from repro.eval.workloads import WIDE_CONFIG
from repro.obs import Observability, TraceEventKind
from repro.sim.accelerator import (
    AcceleratorSim,
    SimConfig,
    run_resilient,
)
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.stats import stats_digest
from repro.substrates.graphs import random_graph, rmat_graph

# -- helpers ----------------------------------------------------------------


def _spec(app: str, nodes: int = 120, edges: int = 360, seed: int = 3):
    return build_app(app, random_graph(nodes, edges, seed=seed))


def _run(
    app: str,
    *,
    engine: str,
    platform=HARP,
    config_kwargs: dict | None = None,
    fault_seed: int | None = None,
    nodes: int = 120,
    edges: int = 360,
    graph_seed: int = 3,
):
    """One observed run; returns (SimResult, Observability, stage names)."""
    spec = _spec(app, nodes, edges, graph_seed)
    config = SimConfig(engine=engine, **(config_kwargs or {}))
    faults = None
    check_interval = None
    if fault_seed is not None:
        faults = FaultPlan.generate(
            fault_seed, 40_000,
            engines=tuple(spec.rules), task_sets=tuple(spec.task_sets),
        )
        check_interval = 512
    obs = Observability(trace_capacity=1 << 20)
    sim = AcceleratorSim(
        spec, platform=platform, config=config,
        faults=faults, check_interval=check_interval, obs=obs,
    )
    result = sim.run()
    stage_names = [
        stage.name for pipeline in sim.pipelines for stage in pipeline.stages
    ]
    return result, obs, stage_names


def _schedule(obs: Observability) -> list[tuple]:
    """The trace as comparable tuples, excluding per-cycle stall events."""
    # The comparison is only sound if neither run's ring buffer wrapped.
    assert obs.tracer.evicted == 0, "trace_capacity too small for this run"
    return [
        (e.cycle, e.kind.value, e.name, str(e.reason), str(e.data))
        for e in obs.tracer.events()
        if e.kind is not TraceEventKind.STAGE_STALL
    ]


def _assert_equivalent(label: str, dense, other) -> None:
    """Full-depth equivalence between a dense and an event execution."""
    dense_result, dense_obs, stages = dense
    other_result, other_obs, other_stages = other
    assert other_stages == stages

    assert other_result.cycles == dense_result.cycles, (
        f"{label}: run finished at cycle {other_result.cycles}, "
        f"dense at {dense_result.cycles}"
    )

    dense_digest = stats_digest(dense_result.stats)
    other_digest = stats_digest(other_result.stats)
    for key in dense_digest:
        assert other_digest[key] == dense_digest[key], (
            f"{label}: stats field {key!r} diverged: "
            f"got={other_digest[key]!r} dense={dense_digest[key]!r}"
        )

    assert other_obs.registry.snapshot() == dense_obs.registry.snapshot()
    assert _schedule(other_obs) == _schedule(dense_obs)

    total = dense_result.cycles
    dense_acct = dense_obs.profiler.accounting(stages, total)
    other_acct = other_obs.profiler.accounting(stages, total)
    for stage in stages:
        assert other_acct[stage] == dense_acct[stage], (
            f"{label}: stall accounting diverged for stage {stage!r}"
        )
        row = other_acct[stage]
        assert sum(v for k, v in row.items() if k != "total") == total


def _diff_engines(app: str, label: str, **kwargs):
    """Run dense and event, assert full equivalence, and return the
    event run's SimResult for extra per-test assertions."""
    dense = _run(app, engine="dense", **kwargs)
    event = _run(app, engine="event", **kwargs)
    _assert_equivalent(label, dense, event)
    return event[0]


# -- tier-1 smoke subset ----------------------------------------------------


@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP", "SPEC-CC"])
def test_memory_bound_runs_are_cycle_exact(app: str) -> None:
    """The headline case: a bandwidth-starved run is mostly idle, so the
    event engine skips aggressively — and must still match to the
    cycle."""
    result = _diff_engines(app, app, platform=EVAL_HARP.scaled(0.05))
    # The point of the exercise: the event engine actually skipped.
    assert result.ff_jumps > 0
    assert result.ff_cycles_skipped > 0


def test_starved_wide_point_is_cycle_exact() -> None:
    """The benchmark's starved shape at test size: SPEC-BFS on an rmat
    graph at 5% bandwidth with the Figure 9 graph config (128-deep
    rendezvous stations), invariant-checked so every kept counter is
    compared against its scan along the way."""
    graph = rmat_graph(7, edge_factor=8, seed=4)
    runs = []
    for engine in ("dense", "event"):
        obs = Observability(trace_capacity=1 << 20)
        sim = AcceleratorSim(
            build_app("SPEC-BFS", graph, 0),
            platform=EVAL_HARP.scaled(0.05),
            config=replace(WIDE_CONFIG, engine=engine),
            replicas={"visit": 4, "update": 2},
            check_interval=64, obs=obs,
        )
        result = sim.run()
        names = [st.name for p in sim.pipelines for st in p.stages]
        runs.append((result, obs, names))
    _assert_equivalent("SPEC-BFS rmat@0.05x", *runs)
    dense, event = runs[0][0], runs[1][0]
    assert event.stats.per_stage_stalls == dense.stats.per_stage_stalls
    assert event.stats.per_stage_active == dense.stats.per_stage_active
    assert event.stats.invariant_checks == dense.stats.invariant_checks > 0
    assert event.ff_cycles_skipped > event.cycles // 2


@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
def test_fault_injection_is_cycle_exact(app: str) -> None:
    """Fault boundaries, invariant sweeps, and degraded resources are all
    wake-up sources; a seeded mixed-mode plan must not break exactness
    on the event engine."""
    _diff_engines(app, app, platform=EVAL_HARP, fault_seed=11)


def test_rollback_recovery_is_cycle_exact() -> None:
    """Force a rollback (total lane outage -> liveness trip) and require
    the resilient driver's full trajectory to match on both engines:
    failure cycles, error strings, attempts, rollbacks, final stats."""
    def resilient(engine: str):
        spec = _spec("SPEC-BFS", 200, 600, 7)
        config = SimConfig(engine=engine, deadlock_window=3000)
        faults = FaultPlan([
            FaultEvent(FaultKind.LANE_FAIL, 400, duration=1 << 30,
                       magnitude=config.rule_lanes),
        ])
        return run_resilient(
            spec, platform=EVAL_HARP.scaled(0.2), config=config,
            faults=faults, check_interval=256, checkpoint_interval=1000,
        )

    dense = resilient("dense")
    assert dense.rollbacks >= 1, "fault plan failed to force a rollback"
    event = resilient("event")
    assert event.result.cycles == dense.result.cycles
    assert event.attempts == dense.attempts
    assert event.rollbacks == dense.rollbacks
    assert [f.cycle for f in event.failures] == [
        f.cycle for f in dense.failures
    ]
    assert [f.error for f in event.failures] == [
        f.error for f in dense.failures
    ]
    assert stats_digest(event.result.stats) == stats_digest(
        dense.result.stats
    )


# -- the full seeded matrix (slow) ------------------------------------------

# (platform, SimConfig overrides): cache sizes come through the platform
# (HARP = 64 KB cache, EVAL_HARP = 1 KB), bank counts and pipeline depths
# through the config.
_MATRIX_CONFIGS = {
    "harp": (HARP, {}),
    "small-cache": (EVAL_HARP, {}),
    "mem-bound": (EVAL_HARP.scaled(0.05), {}),
    "two-banks": (HARP, {"queue_banks": 2}),
    "shallow": (EVAL_HARP, {"fifo_depth": 2, "station_depth": 4}),
}


@pytest.mark.slow
@pytest.mark.parametrize("fault_seed", [None, 11],
                         ids=["no-faults", "faults"])
@pytest.mark.parametrize("cfg", sorted(_MATRIX_CONFIGS))
@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP", "SPEC-CC"])
def test_differential_matrix(app: str, cfg: str,
                             fault_seed: int | None) -> None:
    platform, overrides = _MATRIX_CONFIGS[cfg]
    _diff_engines(app, f"{app}/{cfg}", platform=platform,
                  config_kwargs=overrides, fault_seed=fault_seed)
