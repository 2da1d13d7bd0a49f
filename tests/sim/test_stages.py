"""Stage-level behaviour tests, driven through micro-specifications.

Each test builds a minimal one-task-set application exercising one stage
kind, runs it through the cycle simulator, and checks both the functional
result and the timing-relevant behaviour (stalls, stations, steering).
"""

import numpy as np
import pytest

from repro.core.eca import compile_rule
from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.kernel import (
    AllocRule,
    Alu,
    Call,
    Const,
    Enqueue,
    Expand,
    Guard,
    Kernel,
    Label,
    Load,
    Rendezvous,
    Store,
)
from repro.core.spec import ApplicationSpec, make_task_sets
from repro.core.state import MemorySpace
from repro.eval.platforms import HARP
from repro.obs.events import PROBE_KINDS
from repro.obs.profile import StallProfiler
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.fifo import Fifo
from repro.sim.pipeline import SourceStage
from repro.sim.stages import _STAGE_CLASSES, AllocRuleStage, RendezvousStage
from repro.sim.token import SimToken

ALWAYS_TRUE = compile_rule("rule ok():\n  otherwise return true")
ALWAYS_FALSE = compile_rule("rule nope():\n  otherwise return false")
IMMEDIATE = compile_rule("rule now():\n  otherwise immediately return true")
GATE = compile_rule(
    "rule gate():\n  on reach t.go do return true\n  otherwise return false"
)


def micro_spec(ops, initial=None, rules=None, fields=("x",), verify=None,
               **spec_kwargs):
    def make_state():
        state = MemorySpace()
        state.add_array("mem", np.zeros(64, dtype=np.int64))
        return state

    return ApplicationSpec(
        name="micro",
        mode="speculative",
        task_sets=make_task_sets([("t", "for-each", fields)]),
        kernels={"t": Kernel("t", list(ops))},
        rules=rules or {"ok": ALWAYS_TRUE},
        make_state=make_state,
        initial_tasks=lambda state: initial or [("t", {"x": 1})],
        verify=verify or (lambda state: None),
        **spec_kwargs,
    )


def run_micro(spec, config=None, replicas=None):
    sim = AcceleratorSim(
        spec, platform=HARP, config=config or SimConfig(),
        replicas=replicas or {"t": 1},
    )
    result = sim.run()
    return sim, result


class TestBasicStages:
    def test_const_alu_store(self):
        spec = micro_spec([
            Const("c", 7),
            Alu("y", lambda env: env["c"] * env["x"]),
            Store("mem", lambda env: 0, lambda env: env["y"]),
        ])
        sim, result = run_micro(spec)
        assert sim.state.load("mem", 0) == 7
        assert result.stats.commits == 1

    def test_load_roundtrip(self):
        spec = micro_spec([
            Store("mem", lambda env: 3, lambda env: 55),
            Load("v", "mem", lambda env: 3),
            Store("mem", lambda env: 4, lambda env: env["v"] + 1),
        ])
        sim, _ = run_micro(spec)
        assert sim.state.load("mem", 4) == 56

    def test_load_pays_cache_latency(self):
        spec = micro_spec([Load("v", "mem", lambda env: 0)])
        _, result = run_micro(spec)
        assert result.cycles >= HARP.cache_hit_cycles

    def test_label_broadcasts_event(self):
        spec = micro_spec([Label("ping", payload=("x",))])
        sim, result = run_micro(spec)
        assert result.stats.events_delivered >= 2  # activate + ping

    def test_combining_store_in_sim(self):
        spec = micro_spec(
            [
                Store("mem", lambda env: 0, lambda env: env["x"],
                      combine=max, dst="old"),
            ],
            initial=[("t", {"x": 5}), ("t", {"x": 3})],
        )
        sim, _ = run_micro(spec)
        assert sim.state.load("mem", 0) == 5


class TestGuardSteering:
    def test_guard_drop(self):
        spec = micro_spec([
            Guard(lambda env: False),
            Store("mem", lambda env: 0, lambda env: 1),
        ])
        sim, result = run_micro(spec)
        assert sim.state.load("mem", 0) == 0
        assert result.stats.guard_drops == 1
        assert result.stats.commits == 0

    def test_guard_epilogue(self):
        spec = micro_spec([
            Guard(lambda env: False, else_ops=(
                Store("mem", lambda env: 1, lambda env: 42),
            )),
            Store("mem", lambda env: 0, lambda env: 1),
        ])
        sim, _ = run_micro(spec)
        assert sim.state.load("mem", 1) == 42
        assert sim.state.load("mem", 0) == 0


class TestExpand:
    def test_children_all_emitted(self):
        spec = micro_spec([
            Expand(lambda env, state: [{"i": k} for k in range(5)]),
            Store("mem", lambda env: env["i"], lambda env: 1),
        ])
        sim, _ = run_micro(spec)
        assert [sim.state.load("mem", i) for i in range(5)] == [1] * 5

    def test_empty_expand_retires(self):
        spec = micro_spec([
            Expand(lambda env, state: []),
            Store("mem", lambda env: 0, lambda env: 1),
        ])
        sim, result = run_micro(spec)
        assert sim.state.load("mem", 0) == 0
        assert result.stats.commits == 1  # counted at the expand

    def test_expand_traffic_throttles(self):
        fast = micro_spec([
            Expand(lambda env, state: [{"i": 0}]),
        ])
        slow = micro_spec([
            Expand(lambda env, state: [{"i": 0}],
                   traffic=lambda env, state: 70000),
        ])
        _, fast_result = run_micro(fast)
        _, slow_result = run_micro(slow)
        assert slow_result.cycles > fast_result.cycles + 100

    def test_overlapped_expansions(self):
        """Multiple parents stream rows concurrently."""
        spec = micro_spec(
            [
                Expand(lambda env, state: [{"i": env["x"]}],
                       traffic=lambda env, state: 3500),
                Store("mem", lambda env: env["i"], lambda env: 1),
            ],
            initial=[("t", {"x": i}) for i in range(8)],
        )
        _, result = run_micro(spec)
        # Eight 100-cycle transfers overlap their 40-cycle latencies; a
        # fully serialized version would take > 8 * 140 cycles.
        assert result.cycles < 8 * 140


class TestRuleStages:
    def test_rendezvous_commit(self):
        spec = micro_spec([
            AllocRule("ok", lambda env: {}),
            Rendezvous("rv"),
            Store("mem", lambda env: 0, lambda env: 1),
        ])
        sim, result = run_micro(spec)
        assert sim.state.load("mem", 0) == 1
        assert result.stats.squashes == 0

    def test_rendezvous_squash(self):
        spec = micro_spec(
            [
                AllocRule("nope", lambda env: {}),
                Rendezvous("rv"),
                Store("mem", lambda env: 0, lambda env: 1),
            ],
            rules={"nope": ALWAYS_FALSE},
        )
        sim, result = run_micro(spec)
        assert sim.state.load("mem", 0) == 0
        assert result.stats.squashes == 1

    def test_rendezvous_abort_epilogue(self):
        spec = micro_spec(
            [
                AllocRule("nope", lambda env: {}),
                Rendezvous("rv", abort_ops=(
                    Store("mem", lambda env: 2, lambda env: 9),
                )),
            ],
            rules={"nope": ALWAYS_FALSE},
        )
        sim, _ = run_micro(spec)
        assert sim.state.load("mem", 2) == 9

    def test_immediate_rule_fast_path(self):
        gated = micro_spec(
            [AllocRule("ok", lambda env: {}), Rendezvous("rv")],
            rules={"ok": ALWAYS_TRUE},
        )
        immediate = micro_spec(
            [AllocRule("now", lambda env: {}), Rendezvous("rv")],
            rules={"now": IMMEDIATE},
        )
        _, gated_result = run_micro(
            gated, config=SimConfig(minimum_broadcast_interval=16)
        )
        _, immediate_result = run_micro(
            immediate, config=SimConfig(minimum_broadcast_interval=16)
        )
        assert immediate_result.cycles < gated_result.cycles

    def test_rule_decided_before_its_parent_arrives(self):
        """A token whose rule already returned leaves on the tick after
        its admission, though no verdict is set in between: a station
        must stay awake once it admits."""
        sim = AcceleratorSim(
            micro_spec([AllocRule("gate", lambda env: {}), Rendezvous("rv")],
                       rules={"gate": GATE}),
            platform=HARP, replicas={"t": 1},
        )
        [rv] = [s for s in sim._stages if isinstance(s, RendezvousStage)]
        engine = sim.engines["gate"]
        token = SimToken(env={"x": 1}, index=TaskIndex((0,)), task_set="t")
        instance = engine.try_alloc(token.index, {}, token.uid)
        token.lanes.append((engine, instance))
        engine.deliver(Event(EventKind.REACH, "t", "go", TaskIndex((1,)), {}),
                       source_uid=-1)
        assert instance.value is True
        rv.tick()  # an empty station: nothing to do, nothing to sleep on
        rv.input._staged.append(token)
        rv.input.free -= 1
        rv.input.commit()
        rv.tick()  # admission
        assert rv.station == [token]
        assert rv.wait == 0
        rv.tick()
        assert rv.station == []
        assert engine.occupancy == 0
        assert sim.counters.commits.value == 1

    def test_lane_stall_counted(self):
        spec = micro_spec(
            [
                AllocRule("ok", lambda env: {}),
                Call(lambda env, state: None, cycles=30),
                Rendezvous("rv"),
            ],
            initial=[("t", {"x": i}) for i in range(6)],
        )
        profiler = _AllocProfiler()
        sim = AcceleratorSim(spec, platform=HARP,
                             config=SimConfig(rule_lanes=1),
                             replicas={"t": 1}, tracer=profiler)
        result = sim.run()
        [alloc_stage] = [stage.name for stage in sim._stages
                         if isinstance(stage, AllocRuleStage)]
        rows = profiler.accounting([alloc_stage], result.cycles)
        assert rows[alloc_stage]["rule"] > 0
        assert profiler.occupancies and max(profiler.occupancies) == 1


class _AllocProfiler(StallProfiler):
    """The stall profiler, also logging engine occupancy per allocation."""

    def __init__(self):
        super().__init__()
        self.occupancies = []

    def on_alloc(self, cycle, stage, uid, retired, engine, occupancy):
        super().on_firing(cycle, stage)
        self.occupancies.append(occupancy)


class TestEnqueueAndCall:
    def test_enqueue_chains(self):
        spec = micro_spec([
            Store("mem", lambda env: env["x"], lambda env: 1),
            Enqueue("t", lambda env: {"x": env["x"] + 1},
                    when=lambda env: env["x"] < 4),
        ])
        sim, result = run_micro(spec)
        assert [sim.state.load("mem", i) for i in range(1, 5)] == [1] * 4
        assert result.stats.tasks_activated == 4

    def test_call_latency_shapes_time(self):
        fast = micro_spec([Call(lambda env, state: None, cycles=1)])
        slow = micro_spec([Call(lambda env, state: None, cycles=500)])
        _, fast_result = run_micro(fast)
        _, slow_result = run_micro(slow)
        assert slow_result.cycles >= fast_result.cycles + 450

    def test_call_event_label(self):
        watcher = compile_rule("""
rule w():
    on reach t.done do return false
    otherwise return true
""")
        spec = micro_spec(
            [
                AllocRule("w", lambda env: {}),
                Call(lambda env, state: None, cycles=2, label="done"),
                Rendezvous("rv"),
            ],
            initial=[("t", {"x": 1}), ("t", {"x": 2})],
            rules={"w": watcher},
        )
        _, result = run_micro(spec, replicas={"t": 2})
        # One task's completion event squashes the other's rule.
        assert result.stats.squashes >= 1

    def test_call_completes_task_releases_order(self):
        spec = micro_spec(
            [Call(lambda env, state: None, cycles=40, completes_task=True)],
            initial=[("t", {"x": i}) for i in range(4)],
        )
        sim, result = run_micro(spec)
        assert result.stats.commits == 4


class TestDeterminism:
    def test_same_seed_same_cycles(self):
        def run_once():
            spec = micro_spec([
                Expand(lambda env, state: [{"i": k} for k in range(3)]),
                Store("mem", lambda env: env["i"], lambda env: 1),
                Enqueue("t", lambda env: {"x": env["x"] + 1},
                        when=lambda env: env["x"] < 6),
            ])
            _, result = run_micro(spec)
            return result.cycles

        assert run_once() == run_once()


class _ProbeLog:
    """A probe consumer that logs every kind the sim core emits."""

    def __init__(self):
        self.emitted = []
        for kind in PROBE_KINDS:
            setattr(self, "on_" + kind,
                    lambda *args, kind=kind: self.emitted.append((kind, args)))


def _slots(cls):
    return [slot for klass in cls.__mro__
            for slot in getattr(klass, "__slots__", ())]


class TestTickGuards:
    """The event engine's generated pass ticks a stage only while its
    ``tick_guard`` holds; skipping it otherwise must change nothing."""

    @pytest.mark.parametrize(
        "stage_cls", [SourceStage, *_STAGE_CLASSES.values()],
        ids=lambda cls: cls.__name__,
    )
    def test_an_empty_stage_ticks_without_effect(self, stage_cls):
        log = _ProbeLog()
        sim = AcceleratorSim(micro_spec([Const("c", 1)]), platform=HARP,
                             config=SimConfig(engine="event"),
                             replicas={"t": 1}, tracer=log)
        if stage_cls is SourceStage:
            stage = SourceStage(sim, "t", "probe")
            assert not len(stage.queue)
        else:
            stage = stage_cls(sim, None, "probe")
        # A full output: a stage that tested backpressure before its
        # emptiness would record a stall here.
        stage.output = Fifo(capacity=1, name="full")
        stage.output._staged.append(object())
        stage.output.free -= 1

        # Every list a stage holds is private held work its guard names,
        # so a kind with unguarded held work fails here.
        held = [slot for slot in _slots(stage_cls)
                if isinstance(getattr(stage, slot), list)]
        assert all("{" + slot + "}" in stage_cls.tick_guard for slot in held)

        sim.quiet = True
        counters = sim.metrics.snapshot()
        stage.tick()
        assert (stage.active_cycles, stage.stall_cycles) == (0, 0)
        assert sim.quiet
        assert sim.active_stages_this_cycle == 0
        assert stage.wait == 0  # no stall run opened: it never sleeps
        assert sim.metrics.snapshot() == counters
        assert log.emitted == []
