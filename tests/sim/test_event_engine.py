"""Property-based tests for the event engine.

The legality argument in ``sim/fastpath.py`` rests on two scheduler
invariants, checked over randomized workloads, platforms, and machine
states through the scheduler's optional jump journal (``sim.ff.log``,
one ``(from_cycle, to_cycle, wake)`` entry per committed jump):

* **never past a wake-up** — the clock never jumps beyond the earliest
  pending wake-up, and ``next_wakeup`` is never later than a brute-force
  minimum over every wake-up source at arbitrary reachable states;
* **never backwards** — within an execution the clock is monotone, and
  after a rollback restores an earlier cycle, jumps resume from the
  restored clock without ever re-crossing it backwards.

The wake heap (``sim/events.py``) withdraws nothing, so three more
checks hold it to its contents, its size and its checkpointing:

* **no lost wake-up** — dropping spent entries on arm or probe never
  drops a live one: ``next_after`` is the brute-force minimum;
* **bounded** — every arm leaves the heap no larger than the memory
  requests outstanding plus the call timers in flight;
* **checkpoint round-trip** — ``copy.deepcopy`` (the checkpoint
  manager's capture primitive) copies a mid-run heap, still shared by
  the scheduler and the memory system, and the copy drains identically.

A last check pins what the engine is for: on a bandwidth-starved run it
skips at least nine cycles in ten.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.memory
import repro.sim.stages
from repro.apps.registry import build_app
from repro.errors import ReproError
from repro.eval.platforms import EVAL_HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.checkpoint import CheckpointManager
from repro.sim.events import NEVER, arm, next_after
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.stages import CallStage
from repro.substrates.graphs import random_graph

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
SIM_SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)

# One arm: (clock advance, wake-up distance).  Real arms always name a
# cycle after the clock; small spaces force ties and spent entries.
ARMS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 12)),
                max_size=60)


@given(arms=ARMS, probe=st.integers(0, 40))
@SETTINGS
def test_next_after_is_earliest_live_wakeup(arms, probe: int) -> None:
    """Dropping spent entries on arm never loses a live wake-up:
    ``next_after`` returns the earliest armed cycle strictly after the
    probe (NEVER when none), and leaves only later entries behind."""
    wakes: list[int] = []
    armed: list[int] = []
    now = 0
    for advance, distance in arms:
        now += advance
        arm(wakes, now + distance, now)
        armed.append(now + distance)
        assert min(wakes) > now
    probe += now
    live = [cycle for cycle in armed if cycle > probe]
    assert next_after(wakes, probe) == (min(live) if live else NEVER)
    assert sorted(wakes) == sorted(live)


# -- scheduler properties over whole simulations -----------------------------

APPS = st.sampled_from(["SPEC-BFS", "SPEC-SSSP", "SPEC-CC"])
SCALES = st.sampled_from([0.05, 0.25, 1.0])


def _sim(app: str, graph_seed: int, scale: float, **config_kwargs):
    spec = build_app(app, random_graph(60, 180, seed=graph_seed))
    return AcceleratorSim(
        spec,
        platform=EVAL_HARP.scaled(scale),
        config=SimConfig(engine="event", **config_kwargs),
    )


def _assert_journal_sound(log, *, floor: int = 0) -> None:
    """The core scheduler invariants, over one journal segment."""
    clock = floor
    for frm, to, wake in log:
        # Jumps are committed in program order and never move the clock
        # backwards — including relative to a rollback's restored cycle.
        assert frm >= clock
        assert to > frm
        # The clock never jumps past the earliest pending wake-up.
        assert to <= wake
        clock = to


@SIM_SETTINGS
@given(app=APPS, graph_seed=st.integers(0, 5), scale=SCALES,
       banks=st.sampled_from([2, 4]))
def test_jump_journal_respects_wakeups(app, graph_seed, scale, banks):
    sim = _sim(app, graph_seed, scale, queue_banks=banks)
    sim.ff.log = []
    result = sim.run()
    _assert_journal_sound(sim.ff.log)
    # The journal is exhaustive: one entry per committed jump, and the
    # skipped-cycle telemetry is exactly the sum of the jump widths.
    assert len(sim.ff.log) == result.ff_jumps
    assert sum(to - frm for frm, to, _ in sim.ff.log) \
        == result.ff_cycles_skipped
    # Every cycle is either stepped densely or accounted to one jump.
    assert result.ff_cycles_skipped <= result.cycles


@SIM_SETTINGS
@given(app=APPS, graph_seed=st.integers(0, 5), steps=st.integers(1, 400),
       scale=SCALES)
def test_next_wakeup_contract_at_arbitrary_states(app, graph_seed, steps,
                                                  scale):
    """At any reachable machine state, the scheduler's wake-up is
    strictly in the future and never later than a brute-force minimum
    over every pending source."""
    sim = _sim(app, graph_seed, scale)
    sim.host.start()
    sim._started = True
    for _ in range(steps):
        if not sim._work_remaining():
            break
        sim.step()
    now = sim.cycle - 1
    wake = sim.ff.next_wakeup(now)
    assert wake > now

    candidates = [NEVER, sim.ff._next_broadcast_cycle(now)]
    if sim._event_heap:
        candidates.append(sim._event_heap[0][0])
    candidates.extend(
        done_at for done_at in sim.memory._outstanding.values()
        if done_at > now
    )
    candidates.extend(
        done_at
        for stage in sim._stages if isinstance(stage, CallStage)
        for _token, done_at, _req in stage.in_flight
        if done_at > now
    )
    assert wake <= min(candidates)


def test_jump_journal_monotone_across_rollback():
    """Force a liveness failure (total lane outage), roll back, resume:
    the restored clock is earlier, but post-rollback jumps start at or
    after it and stay monotone — the clock never re-crosses backwards."""
    spec = build_app("SPEC-BFS", random_graph(200, 600, seed=7))
    config = SimConfig(engine="event", deadlock_window=3000)
    faults = FaultPlan([
        FaultEvent(FaultKind.LANE_FAIL, 400, duration=1 << 30,
                   magnitude=config.rule_lanes),
    ])
    sim = AcceleratorSim(
        spec, platform=EVAL_HARP.scaled(0.2), config=config,
        faults=faults, check_interval=256,
    )
    manager = CheckpointManager(sim, interval=1000)
    sim.checkpoints = manager
    sim.ff.log = []
    try:
        sim.run()
    except ReproError:
        pass
    else:  # pragma: no cover - the outage must trip liveness
        raise AssertionError("fault plan failed to force a failure")
    failure_cycle = sim.cycle
    _assert_journal_sound(sim.ff.log)

    faults.disarm_fired()
    revived = manager.rollback()
    assert revived.cycle < failure_cycle
    # The journal rolled back with the scheduler (it lives inside the
    # checkpointed object graph): no entry crosses the restored cycle.
    _assert_journal_sound(revived.ff.log)
    assert all(to <= revived.cycle for _, to, _ in revived.ff.log)

    restored_cycle = revived.cycle
    revived.ff.log = []
    result = revived.run()
    assert result.cycles > restored_cycle
    _assert_journal_sound(revived.ff.log, floor=restored_cycle)


def _call_timers(sim) -> int:
    return sum(len(stage.in_flight) for stage in sim._stages
               if isinstance(stage, CallStage))


@pytest.mark.parametrize("scale", [8.0, 0.05])
def test_every_arm_leaves_the_heap_bounded(scale, monkeypatch):
    """Spent entries are dropped on every arm, and nothing else is ever
    in the heap: each live entry is a completion still in the future,
    so the heap never outgrows the work that will complete."""
    sim = _sim("SPEC-SSSP", 3, scale)
    wakes = sim.ff.wakes
    peak = 0

    def bounded_arm(heap, cycle, now):
        nonlocal peak
        arm(heap, cycle, now)
        assert heap is wakes
        assert len(heap) <= len(sim.memory._outstanding) + _call_timers(sim)
        peak = max(peak, len(heap))

    monkeypatch.setattr(repro.sim.memory, "arm", bounded_arm)
    monkeypatch.setattr(repro.sim.stages, "arm", bounded_arm)
    sim.run()
    assert peak > 1


def test_checkpoint_roundtrip_preserves_pending_heap():
    """A deep copy of a mid-run simulator carries its pending wake-ups,
    still one heap shared by the scheduler and the memory system, and
    private to the copy."""
    sim = _sim("SPEC-SSSP", 3, 0.25)
    sim.host.start()
    sim._started = True
    while len(sim.ff.wakes) < 4:
        sim.step()
    clone = copy.deepcopy(sim)
    assert clone.ff.wakes == sim.ff.wakes
    assert clone.memory.wakes is clone.ff.wakes is clone.wakes
    assert clone.ff.wakes is not sim.ff.wakes

    def drain(heap):
        order, now = [], sim.cycle - 1
        while (now := next_after(heap, now)) != NEVER:
            order.append(now)
        return order

    pending = sorted({w for w in sim.ff.wakes if w >= sim.cycle})
    assert drain(clone.ff.wakes) == pending
    assert clone.ff.wakes == []
    assert drain(sim.ff.wakes) == pending


@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
def test_starved_runs_skip_nine_cycles_in_ten(app):
    """At 0.5% QPI bandwidth the machine is quiescent almost every cycle,
    and the engine must jump those cycles rather than step them.  A run
    that steps a share ``s`` of its cycles can beat dense by at most
    ``1/s``, so skipping nine in ten is what the documented 10x gain on
    memory-bound runs needs — as a count, it holds on any host."""
    sim = AcceleratorSim(
        build_app(app, random_graph(120, 360, seed=3)),
        platform=EVAL_HARP.scaled(0.005),
        config=SimConfig(engine="event"),
    )
    result = sim.run()
    assert result.ff_cycles_skipped >= 0.9 * result.cycles


# -- scalar wake-up sources ---------------------------------------------------


@SIM_SETTINGS
@given(seed=st.integers(0, 50), now=st.integers(0, 100_000))
def test_fault_plan_wakeup_is_strictly_future(seed, now):
    plan = FaultPlan.generate(
        seed, 40_000, engines=("relax",), task_sets=("frontier",),
    )
    plan.advance(min(now, 39_999))
    assert plan.next_event_cycle(now) > now


@SIM_SETTINGS
@given(now=st.integers(0, 1 << 40), interval=st.integers(1, 100_000))
def test_periodic_wakeups_are_strictly_future(now, interval):
    """The boundary arithmetic shared by the invariant checker and the
    minimum-broadcast wake-up: next multiple of ``interval`` after
    ``now`` is strictly greater and at most one interval away."""
    boundary = ((now // interval) + 1) * interval
    assert now < boundary <= now + interval
    assert boundary % interval == 0
