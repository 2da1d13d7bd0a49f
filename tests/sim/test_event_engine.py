"""Property-based tests for the event engine.

The legality argument in ``sim/fastpath.py`` rests on scheduler
invariants, checked over randomized workloads, platforms, and machine
states through the scheduler's optional jump journal (``sim.ff.log``,
one ``(from_cycle, to_cycle, wake)`` entry per committed jump):

* **every jump is legal** — at each jump every stage whose tick guard
  holds is asleep, and each one that waits on a completion holds an
  alarm no later than it;
* **never past a wake-up** — the jump target is exactly the brute-force
  minimum over the alarms, the host's batch DMA, the event heap and the
  scalar sources, at every jump and at arbitrary reachable states;
* **never backwards** — within an execution the clock is monotone, and
  after a rollback restores an earlier cycle, jumps resume from the
  restored clock without ever re-crossing it backwards;
* **checkpoint round-trip** — a checkpoint clone carries the alarms,
  equal to the original's and independent of them.

A last check pins what the engine is for: on a bandwidth-starved run it
skips at least nine cycles in ten.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import build_app
from repro.errors import ReproError
from repro.eval.platforms import EVAL_HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.checkpoint import CheckpointManager, revive, snapshot
from repro.sim.events import NEVER
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.invariants import InvariantChecker, awaited_completion
from repro.sim.pipeline import _GUARD_OPERAND
from repro.sim.stages import LoadStage
from repro.substrates.graphs import random_graph

SIM_SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)

# -- scheduler properties over whole simulations -----------------------------

APPS = st.sampled_from(["SPEC-BFS", "SPEC-SSSP", "SPEC-CC"])
# Graph apps plus the two host-fed apps, whose batch DMA is a wake-up
# source of its own.
ALL_APPS = st.sampled_from(["SPEC-BFS", "SPEC-SSSP", "SPEC-CC", "COOR-LU",
                            "SPEC-DMR"])
SCALES = st.sampled_from([0.05, 0.25, 1.0])


def _spec(app: str, seed: int):
    if app == "COOR-LU":
        return build_app(app, grid=6, block_size=4, seed=seed)
    if app == "SPEC-DMR":
        return build_app(app, n_points=40, seed=seed)
    return build_app(app, random_graph(60, 180, seed=seed))


def _sim(app: str, graph_seed: int, scale: float, *, check_interval=None,
         **config_kwargs):
    return AcceleratorSim(
        _spec(app, graph_seed),
        platform=EVAL_HARP.scaled(scale),
        config=SimConfig(engine="event", **config_kwargs),
        check_interval=check_interval,
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


def _on_jump(sim, check) -> None:
    """Call ``check(target)`` at every committed jump, before the clock
    moves: the machine is still in the quiescent probe cycle's state."""
    skip_to = sim.ff.skip_to

    def checked(target: int) -> None:
        check(target)
        skip_to(target)

    sim.ff.skip_to = checked


def _guard_holds(stage) -> bool:
    """The stage's tick guard, evaluated as the generated pass does."""
    guard = _GUARD_OPERAND.sub(r"stage.\1", stage.tick_guard)
    return bool(eval(guard, {"stage": stage}))


def _brute_force_wakeup(sim, now: int) -> int:
    """The earliest wake-up after ``now``, scanning every alarm, the
    host's batch DMA, every pending event and the scalar sources."""
    candidates = [NEVER, sim.ff._next_broadcast_cycle(now)]
    candidates += [cycle for cycle, _order in sim.alarms]
    candidates += [entry[0] for entry in sim._event_heap]
    if sim.host._transfer_req is not None:
        candidates.append(sim.memory.done_at(sim.host._transfer_req))
    for source in (sim.faults, sim.checkpoints):
        if source is not None:
            candidates.append(source.next_event_cycle(now))
    if sim.checker is not None:
        candidates.append(sim.checker.next_check_cycle(now))
    return min(candidates)


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
@given(app=ALL_APPS, graph_seed=st.integers(0, 5), scale=SCALES)
def test_every_jump_leaves_guarded_stages_asleep_on_alarms(app, graph_seed,
                                                           scale):
    """The legality condition of a jump: after a quiescent cycle every
    stage whose tick guard holds is asleep, and each that waits on a
    completion holds an alarm no later than it (the sanitizer's
    ``stage-alarm``), so the alarms alone say when one can act."""
    sim = _sim(app, graph_seed, scale)
    checker = InvariantChecker(sim)  # not attached: adds no wake-up
    jumps = 0

    def check(_target: int) -> None:
        nonlocal jumps
        jumps += 1
        awake = [stage.name for stage in sim._stages
                 if _guard_holds(stage) and stage.wait != 1]
        assert not awake, f"cycle {sim.cycle}: awake with work: {awake}"
        violations = []
        checker._check_sleepers(violations)
        assert not violations, [v.format() for v in violations]

    _on_jump(sim, check)
    result = sim.run()
    assert jumps == result.ff_jumps > 0


@SIM_SETTINGS
@given(app=ALL_APPS, graph_seed=st.integers(0, 5), scale=SCALES,
       check_interval=st.sampled_from([None, 97]),
       checkpoint_interval=st.sampled_from([None, 1500]))
def test_jump_target_is_the_brute_force_minimum(app, graph_seed, scale,
                                                check_interval,
                                                checkpoint_interval):
    """Every jump lands on the earliest pending wake-up over all sources,
    clamped only by the run's limits, which these runs never reach."""
    sim = _sim(app, graph_seed, scale, check_interval=check_interval)
    if checkpoint_interval is not None:
        sim.checkpoints = CheckpointManager(sim, checkpoint_interval)
    sim.ff.log = []

    def check(target: int) -> None:
        frm, to, wake = sim.ff.log[-1]
        assert (frm, to) == (sim.cycle, target)
        assert wake == to == _brute_force_wakeup(sim, sim.cycle - 1)

    _on_jump(sim, check)
    sim.run()


@SIM_SETTINGS
@given(app=ALL_APPS, graph_seed=st.integers(0, 5),
       steps=st.integers(1, 400), scale=SCALES)
def test_next_wakeup_contract_at_arbitrary_states(app, graph_seed, steps,
                                                  scale):
    """At any reachable machine state, the scheduler's wake-up is
    strictly in the future and exactly the brute-force minimum over
    every pending source."""
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
    assert wake == _brute_force_wakeup(sim, now)


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


def test_checkpoint_clone_carries_independent_alarms():
    """A checkpoint clone's alarms equal the original's and are its own:
    running the clone to the end leaves the original's untouched, and
    the original then finishes on the same cycle."""
    sim = _sim("SPEC-SSSP", 3, 0.25)
    sim.host.start()
    sim._started = True
    for _ in range(5000):
        sim.step()
        if len(sim.alarms) >= 4:
            break
    else:  # pragma: no cover - the run must put stages to sleep
        raise AssertionError("no four alarms pending at once")
    pending = list(sim.alarms)
    clone = revive(snapshot(sim))
    assert clone.alarms == pending
    assert clone.alarms is not sim.alarms
    finished = clone.run().cycles
    assert sim.alarms == pending
    assert sim.run().cycles == finished


@pytest.mark.parametrize("scale", [0.05, 0.25])
def test_an_early_alarm_wakes_a_load_that_sleeps_again(scale):
    """An alarm may come before the completion it stands for (a stale
    one does).  Moved to the cycle before, it wakes the Load in an
    otherwise quiescent cycle with its requests one cycle from done; the
    Load must sleep again on an alarm at the completion, or the jump
    that follows passes it."""
    expected = _sim("SPEC-BFS", 3, scale).run()
    sim = _sim("SPEC-BFS", 3, scale)
    step = sim.step
    moved = 0

    def step_then_move_alarms() -> None:
        nonlocal moved
        step()
        for stage in sim._stages:
            if not isinstance(stage, LoadStage) or stage.wait != 1:
                continue
            done = awaited_completion(stage)
            if sim.cycle + 1 < done < NEVER and \
                    (done - 1, stage.order) not in sim.alarms:
                sim.alarms[:] = [alarm for alarm in sim.alarms
                                 if alarm[1] != stage.order]
                sim.alarms.append((done - 1, stage.order))
                heapq.heapify(sim.alarms)
                moved += 1

    sim.step = step_then_move_alarms
    result = sim.run()
    assert moved > 10
    assert (result.cycles, result.stats) == (expected.cycles, expected.stats)


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
