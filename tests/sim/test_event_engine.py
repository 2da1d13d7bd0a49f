"""Property-based tests for the event engine.

The determinism argument in ``sim/events.py`` rests on the
:class:`~repro.sim.events.WakeQueue` behaving as a *stable* priority
queue under arbitrary interleavings of arm / cancel / re-arm; the first
group of tests checks that mechanically over randomized operation
scripts:

* **monotone delivery** — wake-ups drain in non-decreasing cycle order;
* **FIFO tie-break** — same-cycle wake-ups fire in registration order,
  so the engine's probe order is a pure function of the arm sequence;
* **cancel / re-arm never loses a wake-up** — after any script, the
  live set is exactly the model's: every key sits at its last armed
  cycle (unless cancelled) and every anonymous one-shot survives;
* **checkpoint round-trip** — ``copy.deepcopy`` (the checkpoint
  manager's capture primitive) preserves the pending heap exactly,
  and the copy drains identically to the original.

A model-based sweep drives the real queue and a brute-force dict/list
model through the same scripts and requires identical delivery
schedules — the queue's lazy deletion must be unobservable.

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

A last check pins what the engine is for: on a bandwidth-starved run it
skips at least nine cycles in ten.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import build_app
from repro.errors import ReproError
from repro.eval.platforms import EVAL_HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.checkpoint import CheckpointManager
from repro.sim.events import NEVER, WakeQueue
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.stages import CallStage
from repro.substrates.graphs import random_graph

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
SIM_SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)

# One queue operation: ("arm", cycle, key) | ("cancel", key).
# Small key and cycle spaces force collisions — re-arms of a live key,
# cancels of spent entries, many same-cycle ties.
_KEYS = st.one_of(st.none(), st.tuples(st.sampled_from(["mem", "fu"]),
                                       st.integers(0, 5)))
_ARM = st.tuples(st.just("arm"), st.integers(0, 30), _KEYS)
_CANCEL = st.tuples(st.just("cancel"), st.just(0),
                    _KEYS.filter(lambda k: k is not None))
SCRIPTS = st.lists(st.one_of(_ARM, _CANCEL), max_size=60)


class _ModelQueue:
    """The obvious O(n) reference: a list of live entries."""

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, object]] = []
        self.seq = 0

    def arm(self, cycle: int, key=None) -> None:
        if key is not None:
            self.entries = [e for e in self.entries if e[2] != key]
        self.entries.append((cycle, self.seq, key))
        self.seq += 1

    def cancel(self, key) -> None:
        self.entries = [e for e in self.entries if e[2] != key]

    def pending(self) -> list[tuple[int, int, object]]:
        return sorted(self.entries)

    def pop_due(self, now: int) -> list[tuple[int, object]]:
        due = sorted(e for e in self.entries if e[0] <= now)
        self.entries = [e for e in self.entries if e[0] > now]
        return [(cycle, key) for cycle, _seq, key in due]

    def next_after(self, now: int) -> int:
        live = [e[0] for e in self.entries if e[0] > now]
        self.entries = [e for e in self.entries if e[0] > now]
        return min(live) if live else NEVER


def _apply(queue, script) -> None:
    for op, cycle, key in script:
        if op == "arm":
            queue.arm(cycle, key)
        else:
            queue.cancel(key)


@given(script=SCRIPTS)
@SETTINGS
def test_delivery_is_monotone_and_fifo(script) -> None:
    """Draining the queue cycle by cycle yields non-decreasing cycles,
    with same-cycle entries in registration order."""
    queue = WakeQueue()
    _apply(queue, script)
    expected = [(cycle, key) for cycle, _seq, key in queue.pending()]
    fired: list[tuple[int, object]] = []
    for now in range(32):
        fired.extend(queue.pop_due(now))
    # Monotone non-decreasing delivery order...
    assert [c for c, _ in fired] == sorted(c for c, _ in fired)
    # ...and exactly the live set, in (cycle, registration) order.
    assert fired == expected
    assert len(queue) == 0
    assert queue.next_after(-1) == NEVER


@given(script=SCRIPTS)
@SETTINGS
def test_cancel_rearm_matches_brute_force_model(script) -> None:
    """The lazy-deletion queue is observationally identical to the
    brute-force model: no wake-up is ever lost or resurrected."""
    queue, model = WakeQueue(), _ModelQueue()
    _apply(queue, script)
    _apply(model, script)
    assert queue.pending() == model.pending()
    assert len(queue) == len(model.pending())
    # The dead-entry count that triggers compaction stays exact.
    assert queue._dead == len(queue._heap) - len(queue)
    # Interleave probes and drains the way the scheduler does.
    for now in (5, 12, 25):
        assert queue.pop_due(now) == model.pop_due(now)
        assert queue.next_after(now) == model.next_after(now)
        assert queue._dead == len(queue._heap) - len(queue)
    assert queue.pending() == model.pending()


def test_cancelled_entries_do_not_accumulate() -> None:
    """A run with no idle probe retires thousands of memory requests
    between two ``next_after`` calls; their dead entries must not pile
    up in the heap."""
    queue = WakeQueue()
    queue.arm(10**6, ("fu", 0))
    for req in range(10_000):
        queue.arm(req + 200, ("mem", req))
        queue.cancel(("mem", req))
        assert len(queue._heap) <= 3
    assert queue.pending() == [(10**6, 0, ("fu", 0))]
    assert queue.next_after(0) == 10**6


@given(script=SCRIPTS, now=st.integers(-1, 31))
@SETTINGS
def test_next_after_is_earliest_live_wakeup(script, now: int) -> None:
    """``next_after`` returns the earliest live cycle strictly after
    ``now`` (NEVER when none), never a cancelled or superseded entry."""
    queue = WakeQueue()
    _apply(queue, script)
    live = [cycle for cycle, _seq, _key in queue.pending() if cycle > now]
    assert queue.next_after(now) == (min(live) if live else NEVER)


@given(script=SCRIPTS, split=st.integers(0, 30))
@SETTINGS
def test_checkpoint_roundtrip_preserves_pending_heap(script,
                                                     split: int) -> None:
    """``copy.deepcopy`` — how CheckpointManager captures the machine —
    must preserve the pending heap exactly, and the restored queue must
    drain identically even as both sides keep mutating."""
    queue = WakeQueue()
    _apply(queue, script)
    snapshot = copy.deepcopy(queue)
    assert snapshot.pending() == queue.pending()
    assert len(snapshot) == len(queue)

    # Drain both sides identically; the copy must shadow the original.
    assert snapshot.pop_due(split) == queue.pop_due(split)
    assert snapshot.pending() == queue.pending()

    # Divergence after the snapshot stays private to each side: spending
    # the original's entries must not disturb the copy (no shared heap).
    rollback = copy.deepcopy(queue)
    before = rollback.pending()
    queue.pop_due(64)
    queue.arm(7, ("mem", 0))
    assert rollback.pending() == before


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
        request.done_at for request in sim.memory._outstanding.values()
        if request.done_at > now
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
