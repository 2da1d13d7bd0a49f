"""Tests for the runtime invariant checker (the simulator's sanitizer)."""

import heapq

import pytest

from repro.apps.registry import build_app
from repro.core.indexing import TaskIndex
from repro.errors import InvariantViolation
from repro.eval.platforms import HARP
from repro.obs.events import StallReason
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.events import NEVER
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.invariants import InvariantChecker, awaited_completion
from repro.sim.stages import LoadStage
from repro.sim.token import SimToken
from repro.substrates.graphs import random_graph

GRAPH = random_graph(40, 90, seed=111)
INTERVAL = 256


def _sim(app="SPEC-BFS", **kwargs):
    spec = (build_app(app, GRAPH, 0) if app == "SPEC-BFS"
            else build_app(app, GRAPH))
    return AcceleratorSim(spec, platform=HARP, **kwargs)


def _step_until(sim, predicate, limit=20_000):
    if not sim._started:
        sim.host.start()
        sim._started = True
    for _ in range(limit):
        sim.step()
        if predicate(sim):
            return
    raise AssertionError("condition never reached")


class TestCleanRuns:
    @pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-MST"])
    def test_checked_run_passes_and_matches_unchecked(self, app):
        plain = _sim(app).run()
        checked_sim = _sim(app, check_interval=INTERVAL)
        checked = checked_sim.run()
        assert checked.cycles == plain.cycles
        assert checked.stats.invariant_checks > 0
        # The drain check ran and every conservation law balanced.
        assert checked_sim.tracker.count == 0

    def test_per_cycle_checking_has_no_false_positives(self):
        # Broadcast-interval gaps are legitimate idleness: even checking
        # every cycle must not trip the liveness invariant.
        plain = _sim().run()
        checked = _sim(check_interval=1).run()
        assert checked.cycles == plain.cycles

    def test_checks_run_at_interval(self):
        sim = _sim(check_interval=INTERVAL)
        result = sim.run()
        assert result.stats.invariant_checks >= result.cycles // INTERVAL


class TestCorruptionDetection:
    def test_credit_leak_caught_within_one_interval(self):
        # SPEC-MST uses ordered admission, so credits are conserved.
        sim = _sim("SPEC-MST", check_interval=INTERVAL)
        _step_until(sim, lambda s: s.cycle == 3 * INTERVAL // 2)
        task_set = next(iter(sim.admission_credits))
        sim.admission_credits[task_set] += 3
        with pytest.raises(InvariantViolation) as excinfo:
            _step_until(sim, lambda s: False, limit=2 * INTERVAL)
        assert excinfo.value.invariant in ("credit-conservation",
                                           "credit-bounds")
        assert excinfo.value.cycle <= 3 * INTERVAL // 2 + INTERVAL

    def test_leaked_lane_caught(self):
        from repro.core.indexing import TaskIndex

        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.cycle == INTERVAL // 2)
        # Allocate a lane that no in-flight token references.
        engine = next(iter(sim.engines.values()))
        args = {p: 0 for p in engine.rule_type.params if p != "my_index"}
        instance = engine.try_alloc(TaskIndex((0,)), args, owner_uid=-42)
        assert instance is not None
        with pytest.raises(InvariantViolation) as excinfo:
            _step_until(sim, lambda s: False, limit=2 * INTERVAL)
        assert excinfo.value.invariant == "lane-conservation"

    def test_leaked_live_handle_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.tracker.count > 0)
        sim.tracker.register(next(iter(
            index for index, _refs in sim.tracker.snapshot().values()
        )))  # a registration nobody holds
        with pytest.raises(InvariantViolation) as excinfo:
            _step_until(sim, lambda s: False, limit=2 * INTERVAL)
        assert excinfo.value.invariant == "live-handle-conservation"

    def test_minimum_monotonicity_guard(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.tracker.count > 0)
        sim.checker._last_minimum = (1 << 40,)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "minimum-monotonicity"



def _load_stages(sim):
    return [stage for pipeline in sim.pipelines for stage in pipeline.stages
            if isinstance(stage, LoadStage)]


class TestKeptCounters:
    """Each hot-path counter is checked against the scan it replaces."""

    def test_counters_hold_on_every_cycle(self):
        sim = _sim(check_interval=1)
        result = sim.run()
        assert result.stats.invariant_checks >= result.cycles

    def test_queue_count_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: any(len(q) for q in s.queues.values()))
        queue = next(q for q in sim.queues.values() if len(q))
        queue._size += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "queue-count"

    def test_station_earliest_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: any(st.station for st in _load_stages(s)))
        stage = next(st for st in _load_stages(sim) if st.station)
        stage.earliest = NEVER
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "station-earliest"
        assert excinfo.value.component == stage.name

    def test_overfilled_fifo_caught(self):
        """Firing sites stage pushes in place, with no full check: a push
        past capacity is caught by the scan."""
        sim = _sim(check_interval=INTERVAL)
        fifo = sim._fifos[1]
        for n in range(fifo.capacity + 1):
            # A non-root token holding no live handle or lane, so only
            # the FIFO count is wrong.
            fifo._staged.append(SimToken(env={}, index=TaskIndex((0,)),
                                         task_set="", uid=-1 - n))
            fifo.free -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "fifo-capacity"
        assert excinfo.value.component == f"fifo {fifo.name!r}"

    def test_memory_horizon_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.memory.pending(s.cycle))
        sim.memory.horizon = -1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "memory-horizon"

    def test_memory_outstanding_drift_caught(self):
        """The memory system counts its outstanding requests; the scan
        counts the ones the stations and the host hold."""
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.memory.in_flight > 0)
        sim.memory.in_flight += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "memory-outstanding"

    def test_unretired_request_trips_drain(self):
        sim = _sim()
        sim.run()
        sim.memory.issue_load(sim.cycle, 0)  # a request no one retires
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantChecker(sim).check(at_drain=True)
        assert "[drain] MemorySystem: 1 request(s) never retired" \
            in str(excinfo.value)

    def test_lane_order_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: any(e.occupancy for e in s._engine_list))
        engine = next(e for e in sim._engine_list if e.occupancy)
        engine._order.pop()
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "lane-order"

    def test_sleeping_stage_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: any(st.wait == 1 and st.reasons
                                       for st in s._stages))
        stage = next(st for st in sim._stages
                     if st.wait == 1 and st.reasons)
        stage.reasons = (StallReason.QUEUE,)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "sleeping-stage"
        assert excinfo.value.component == stage.name

    def test_unwoken_stage_caught(self):
        """A stage left asleep after what blocked it changed."""
        sim = _sim(check_interval=INTERVAL)

        def blocked(stage):
            return stage.wait == 1 and stage.reasons == (
                StallReason.BACKPRESSURE,) and stage.output is not None

        _step_until(sim, lambda s: any(map(blocked, s._stages)))
        stage = next(filter(blocked, sim._stages))
        # Room, kept free count included, but no pop to wake it.
        stage.output.capacity += 1
        stage.output.free += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "sleeping-stage"

    def test_dropped_alarm_caught(self):
        """A stage asleep until a completion with no alarm: the jump
        reads only alarms, so it would pass the completion."""
        sim = _sim(check_interval=INTERVAL)

        def waiting(stage):
            return stage.wait == 1 and \
                sim.cycle < awaited_completion(stage) < NEVER

        _step_until(sim, lambda s: any(map(waiting, s._stages)))
        stage = next(filter(waiting, sim._stages))
        sim.alarms[:] = [alarm for alarm in sim.alarms
                         if alarm[1] != stage.order]
        heapq.heapify(sim.alarms)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "stage-alarm"
        assert excinfo.value.component == stage.name

    def test_live_token_count_drift_caught(self):
        sim = _sim(check_interval=INTERVAL)
        _step_until(sim, lambda s: s.live_tokens > 0)
        sim.live_tokens += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.checker.check()
        assert excinfo.value.invariant == "live-token-count"


class TestLiveness:
    def test_full_lane_outage_caught_early(self):
        """A wedged engine trips the liveness check in ~one interval,
        orders of magnitude before the deadlock window."""
        config = SimConfig()
        plan = FaultPlan([FaultEvent(
            FaultKind.LANE_FAIL, 64, duration=1 << 30,
            magnitude=config.rule_lanes,
        )])
        sim = _sim(config=config, faults=plan, check_interval=INTERVAL)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert excinfo.value.invariant == "liveness"
        assert excinfo.value.cycle < config.deadlock_window // 10
        assert "no progress" in str(excinfo.value)


class TestCheckerMechanics:
    def test_standalone_check_on_fresh_sim(self):
        sim = _sim()
        checker = InvariantChecker(sim, interval=INTERVAL)
        sim.host.start()
        sim._started = True
        checker.check()  # nothing in flight: all laws hold vacuously
        assert checker.checks == 1
