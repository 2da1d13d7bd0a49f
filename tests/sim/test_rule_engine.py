"""Tests for the simulated rule engines (lanes, event bus, otherwise)."""

from repro.core.eca import compile_rule
from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.rule import RuleVerdict
from repro.sim.rule_engine import RuleEngineSim

RULE = compile_rule("""
rule conflict(my_index, addr):
    on reach t.commit if event.addr == addr and event.index < my_index
        do return false
    otherwise return true
""")


def _engine(lanes=2):
    return RuleEngineSim("conflict", RULE, lanes)


def _commit_event(addr, index):
    return Event(EventKind.REACH, "t", "commit", TaskIndex(index),
                 {"addr": addr})


class TestAllocation:
    def test_alloc_until_full(self):
        engine = _engine(lanes=2)
        assert engine.try_alloc(TaskIndex((0,)), {"addr": 1}, 10) is not None
        assert engine.try_alloc(TaskIndex((1,)), {"addr": 2}, 11) is not None
        assert engine.try_alloc(TaskIndex((2,)), {"addr": 3}, 12) is None
        assert engine.occupancy == 2

    def test_release_frees_lane(self):
        engine = _engine(lanes=1)
        inst = engine.try_alloc(TaskIndex((0,)), {"addr": 1}, 10)
        engine.release(inst)
        assert engine.occupancy == 0
        assert engine.try_alloc(TaskIndex((1,)), {"addr": 2}, 11) is not None

    def test_peak_occupancy_tracked(self):
        engine = _engine(lanes=4)
        lanes = [engine.try_alloc(TaskIndex((i,)), {"addr": i}, i)
                 for i in range(3)]
        assert engine.occupancy == 3
        engine.release(lanes[0])
        assert engine.occupancy == 2


class TestEventDelivery:
    def test_conflicting_event_fires_clause(self):
        engine = _engine()
        inst = engine.try_alloc(TaskIndex((5,)), {"addr": 64}, 10)
        engine.deliver(_commit_event(64, (2,)), source_uid=99)
        assert inst.value is False

    def test_own_events_skipped(self):
        engine = _engine()
        inst = engine.try_alloc(TaskIndex((5,)), {"addr": 64}, 10)
        engine.deliver(_commit_event(64, (2,)), source_uid=10)
        assert inst.value is None

    def test_non_matching_event_ignored(self):
        engine = _engine()
        inst = engine.try_alloc(TaskIndex((5,)), {"addr": 64}, 10)
        engine.deliver(_commit_event(128, (2,)), source_uid=99)
        assert inst.value is None


class TestOtherwise:
    def test_minimum_awaited_lane_fires(self):
        engine = _engine(lanes=4)
        early = engine.try_alloc(TaskIndex((1,)), {"addr": 1}, 10)
        late = engine.try_alloc(TaskIndex((5,)), {"addr": 2}, 11)
        engine.mark_awaited(early)
        engine.mark_awaited(late)
        engine.broadcast_minimum(engine.min_allocated_index())
        assert early.value is True
        assert late.value is None

    def test_unawaited_lane_never_fires(self):
        engine = _engine(lanes=4)
        inst = engine.try_alloc(TaskIndex((1,)), {"addr": 1}, 10)
        engine.broadcast_minimum(engine.min_allocated_index())
        assert inst.value is None

    def test_unawaited_min_blocks_later_waiters(self):
        engine = _engine(lanes=4)
        engine.try_alloc(TaskIndex((1,)), {"addr": 1}, 10)  # not awaited
        late = engine.try_alloc(TaskIndex((5,)), {"addr": 2}, 11)
        engine.mark_awaited(late)
        engine.broadcast_minimum(engine.min_allocated_index())
        assert late.value is None

    def test_tied_minimum_all_fire(self):
        engine = _engine(lanes=4)
        a = engine.try_alloc(TaskIndex((3,)), {"addr": 1}, 10)
        b = engine.try_alloc(TaskIndex((3,)), {"addr": 2}, 11)
        engine.mark_awaited(a)
        engine.mark_awaited(b)
        engine.broadcast_minimum(engine.min_allocated_index())
        assert a.value is True and b.value is True

    def test_global_minimum_earlier_than_lanes_blocks(self):
        engine = _engine(lanes=4)
        inst = engine.try_alloc(TaskIndex((5,)), {"addr": 1}, 10)
        engine.mark_awaited(inst)
        engine.broadcast_minimum(TaskIndex((2,)))  # an earlier live task
        assert inst.value is None

    def test_verdict_statistics(self):
        engine = _engine(lanes=4)
        inst = engine.try_alloc(TaskIndex((1,)), {"addr": 1}, 10)
        engine.mark_awaited(inst)
        engine.broadcast_minimum(None)
        engine.release(inst)
        assert inst.verdict is RuleVerdict.OTHERWISE
        clause = engine.try_alloc(TaskIndex((9,)), {"addr": 64}, 11)
        engine.deliver(_commit_event(64, (0,)), source_uid=55)
        engine.release(clause)
        assert clause.verdict is RuleVerdict.CLAUSE
        assert engine.occupancy == 0

    def test_min_allocated_index_empty(self):
        assert _engine().min_allocated_index() is None
