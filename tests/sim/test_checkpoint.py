"""Tests for checkpoint snapshots, rollback, and resilient execution."""

import json

import numpy as np
import pytest

from repro.apps.registry import build_app
from repro.core.eca import compile_rule
from repro.core.kernel import Kernel, Store
from repro.core.spec import ApplicationSpec, HostFeed, make_task_sets
from repro.core.state import MemorySpace
from repro.errors import RecoveryExhaustedError
from repro.eval.platforms import HARP
from repro.obs import Observability
from repro.obs.events import FIRING_KINDS, PROBE_KINDS
from repro.sim.accelerator import (
    AcceleratorSim,
    SimConfig,
    _degrade,
    run_resilient,
)
from repro.sim.checkpoint import CheckpointManager, revive, snapshot
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.ledger import TokenLedger
from repro.substrates.graphs import random_graph

# Big enough that every snapshot/rollback point below lands mid-run
# (SPEC-BFS ~1.3k cycles, SPEC-MST ~3.4k on this graph).
GRAPH = random_graph(200, 600, seed=7)
OK = compile_rule("rule ok():\n  otherwise return true")


def _spec(app):
    return build_app(app, GRAPH, 0) if app == "SPEC-BFS" \
        else build_app(app, GRAPH)


def _hosted_spec(n_tasks=24, batch=4, fail_verify=False):
    """A minimal host-fed app: its feed is a live (uncopyable) generator."""
    def make_state():
        state = MemorySpace()
        state.add_array("mem", np.zeros(64, dtype=np.int64))
        return state

    def batches(state):
        for start in range(0, n_tasks, batch):
            yield [("t", {"x": i}) for i in
                   range(start, min(start + batch, n_tasks))]

    def verify(state):
        if fail_verify:
            raise AssertionError("deliberately failing verification")

    return ApplicationSpec(
        name="hosted",
        mode="coordinative",
        task_sets=make_task_sets([("t", "for-each", ("x",))]),
        kernels={"t": Kernel("t", [
            Store("mem", lambda env: env["x"], lambda env: 1),
        ])},
        rules={"ok": OK},
        make_state=make_state,
        initial_tasks=lambda state: [],
        verify=verify,
        host_feed=HostFeed(batches, bytes_per_task=256),
    )


def _advance(sim, cycles):
    if not sim._started:
        sim.host.start()
        sim._started = True
    for _ in range(cycles):
        sim.step()


class TestSnapshotRevive:
    @pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-MST"])
    def test_revived_run_completes_identically(self, app):
        reference = AcceleratorSim(_spec(app), platform=HARP).run()

        sim = AcceleratorSim(_spec(app), platform=HARP)
        _advance(sim, 800)
        frozen = snapshot(sim)
        original = sim.run()
        assert original.cycles == reference.cycles

        resumed = revive(frozen)
        assert resumed.cycle == 800
        result = resumed.run()
        assert result.cycles == reference.cycles
        assert result.stats.commits == reference.stats.commits

    def test_checkpoint_stays_pristine_across_rollbacks(self):
        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP)
        _advance(sim, 500)
        frozen = snapshot(sim)
        reference = revive(frozen).run().cycles
        for _ in range(3):
            assert revive(frozen).run().cycles == reference

    def test_revive_compiles_a_pass_over_its_own_stages(self):
        # The event engine's generated stage pass holds the stages it was
        # compiled for, and a deep copy shares function objects: a revived
        # simulator running a copied pass ticks another simulator's stages
        # (SPEC-BFS then deadlocks).
        reference = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP).run()

        def state(sim):
            return [(s.active_cycles, s.stall_cycles,
                     [token.uid for token in s.drain_tokens()])
                    for s in sim._stages]

        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP)
        _advance(sim, 800)
        frozen = snapshot(sim)
        live, cloned = state(sim), state(frozen)
        resumed = revive(frozen)
        assert resumed._compiled_ticks not in (None, sim._compiled_ticks)
        assert resumed.run().cycles == reference.cycles
        assert state(sim) == live
        assert state(frozen) == cloned
        assert revive(frozen).run().cycles == reference.cycles

    def test_revived_probe_feeds_the_revived_consumers(self):
        # A kind with several readers is bound to a generated fan-out that
        # holds the readers' methods, and a deep copy shares function
        # objects: a probe copied as is would feed the original consumers.
        def consumers(sim):
            return [sim.ledger, *sim.obs.consumers]

        def reads(consumer, kind):
            return hasattr(consumer, "on_" + kind) or (
                kind in FIRING_KINDS and hasattr(consumer, "on_firing"))

        def outputs(sim, result):
            names = list(result.stats.per_stage_active)
            obs = sim.obs
            return (obs.profiler.accounting(names, result.cycles),
                    obs.timeline.to_dict(len(names)),
                    obs.registry.snapshot(),
                    sim.ledger.to_dict(),
                    json.dumps(obs.tracer.chrome_trace()))

        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP,
                             obs=Observability(trace_capacity=1 << 16),
                             ledger=TokenLedger())
        _advance(sim, 800)
        frozen = snapshot(sim)
        result = sim.run()
        original = outputs(sim, result)

        resumed = revive(frozen)
        revived, old = consumers(resumed), consumers(sim)
        multi = [kind for kind in PROBE_KINDS
                 if sum(reads(c, kind) for c in revived) > 1]
        assert {"fire", "stall", "born", "verdict", "load"} <= set(multi)
        for kind in multi:
            readers = [cell.cell_contents.__self__ for cell in
                       getattr(resumed.probe, kind).__closure__]
            assert [id(r) for r in readers] == [
                id(c) for c in revived if reads(c, kind)], kind
            assert not {id(r) for r in readers} & {id(c) for c in old}, kind
        assert outputs(resumed, resumed.run()) == original
        # The revived run left the original run's consumers as they were.
        assert outputs(sim, result) == original

    def test_revived_lanes_allocate_and_release_without_rekeying(self):
        """A lane is the instance its token holds: a revived clone's
        engines allocate and free lanes on the copied instances, and the
        frozen clone's lanes stay as they were."""
        from repro.sim.invariants import InvariantChecker

        def lanes(sim):
            return {name: [(entry[:2], entry[2].value)
                           for entry in engine._order]
                    for name, engine in sim.engines.items()}

        # Dense: no stage sleeps, so a check between steps is exact.
        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP,
                             config=SimConfig(engine="dense"))
        _advance(sim, 300)
        frozen = snapshot(sim)
        before = lanes(frozen)
        resumed = revive(frozen)
        checker = InvariantChecker(resumed)
        token = next(token for token, _refs in checker.walk_tokens()
                     if token.lanes)
        engine, instance = token.lanes[0]
        assert any(entry[2] is instance for entry in engine._order)
        occupancy = engine.occupancy
        args = {p: 0 for p in engine.rule_type.params if p != "my_index"}
        extra = engine.try_alloc(token.index, args, owner_uid=-7)
        assert extra is not None and engine.occupancy == occupancy + 1
        engine.release(extra)
        token.lanes.pop(0)
        engine.release(instance)
        assert engine.occupancy == occupancy - 1
        assert all(entry[2] is not instance for entry in engine._order)
        checker.check()  # the revived lanes are still the tokens' lanes
        assert lanes(frozen) == before
        again = revive(frozen)
        InvariantChecker(again).check()
        assert again.run().cycles == sim.run().cycles

    def test_host_feed_replay(self):
        reference = AcceleratorSim(_hosted_spec(), platform=HARP).run()

        sim = AcceleratorSim(_hosted_spec(), platform=HARP)
        _advance(sim, 60)  # mid-feed: some batches pulled, some not
        frozen = snapshot(sim)
        assert sim.run().cycles == reference.cycles

        resumed = revive(frozen)
        result = resumed.run()
        assert result.cycles == reference.cycles
        assert result.stats.tasks_activated == reference.stats.tasks_activated
        assert all(resumed.state.load("mem", i) == 1 for i in range(24))


class TestCheckpointManager:
    def test_periodic_capture_and_retention(self):
        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP)
        manager = CheckpointManager(sim, interval=300, keep=3)
        sim.checkpoints = manager
        sim.run()
        assert manager.captures > 3
        assert len(manager.checkpoints) == 3
        # The earliest capture survives as the rollback of last resort.
        assert manager.checkpoints[0].cycle == 0
        cycles = [c.cycle for c in manager.checkpoints]
        assert cycles == sorted(cycles)

    def test_rollback_resumes_from_capture_cycle(self):
        reference = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP).run()
        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP)
        manager = CheckpointManager(sim, interval=500, keep=4)
        sim.checkpoints = manager
        _advance(sim, 1200)
        restored = manager.rollback()
        assert restored.cycle == 1000
        assert restored.run().cycles == reference.cycles


class TestRunResilient:
    def test_no_faults_matches_plain_run(self):
        plain = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP).run()
        res = run_resilient(_spec("SPEC-BFS"), platform=HARP,
                            checkpoint_interval=1000)
        assert res.result.cycles == plain.cycles
        assert res.attempts == 1 and res.rollbacks == 0
        assert res.result.stats.checkpoints_taken > 0

    def test_recovers_from_lane_outage(self):
        config = SimConfig()
        plan = FaultPlan([FaultEvent(
            FaultKind.LANE_FAIL, 400, duration=1 << 30,
            magnitude=config.rule_lanes,
        )])
        res = run_resilient(
            _spec("SPEC-BFS"), platform=HARP, config=config,
            faults=plan, check_interval=256, checkpoint_interval=1000,
        )
        assert res.rollbacks >= 1
        assert res.failures and res.failures[0].cycle < 10_000
        assert res.result.stats.rollbacks == res.rollbacks
        # run() verified the functional result after recovery.

    def test_seeded_recovery_deterministic(self):
        def campaign():
            baseline = AcceleratorSim(_spec("SPEC-BFS"),
                                      platform=HARP).run(verify=False)
            plan = FaultPlan.generate(
                7, baseline.cycles,
                engines=("visit", "update"), task_sets=("bfs",),
            )
            res = run_resilient(
                _spec("SPEC-BFS"), platform=HARP, faults=plan,
                check_interval=256, checkpoint_interval=1000,
            )
            return (res.result.cycles, res.attempts, res.rollbacks,
                    tuple(f.cycle for f in res.failures))

        assert campaign() == campaign()

    def test_exhaustion_raises(self):
        spec = _hosted_spec(fail_verify=True)
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            run_resilient(spec, platform=HARP, max_attempts=3,
                          checkpoint_interval=100)
        assert excinfo.value.attempts == 3

    def test_degradation_levers(self):
        sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP)
        bandwidth = sim.memory.channel.bytes_per_cycle
        lanes = {name: e.max_lanes for name, e in sim.engines.items()}
        _degrade(sim, 1)
        assert sim.memory.channel.bytes_per_cycle == bandwidth / 2
        for name, engine in sim.engines.items():
            assert engine.max_lanes == max(1, lanes[name] // 2)
