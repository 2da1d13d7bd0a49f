"""Tests for the simulated rule engines (lanes, event bus, otherwise)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import build_app
from repro.core.eca import compile_rule
from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.rule import RuleVerdict
from repro.eval.platforms import HARP
from repro.sim.accelerator import AcceleratorSim
from repro.sim.rule_engine import RuleEngineSim
from repro.substrates.graphs.generators import rmat_graph

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


# -- kept orders against a brute-force scan ---------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "await", "deliver", "broadcast",
                         "release"]),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 7),
    ),
    max_size=80,
)


class TestKeptOrders:
    """``min_allocated_index``, ``would_fire_otherwise`` and the lanes
    ``broadcast_minimum`` fires, against a scan of every live lane."""

    @given(scope=st.sampled_from(["lanes", "global"]), ops=OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_scan_of_the_lanes(self, scope, ops):
        engine = _engine(lanes=6)
        live = []       # [instance, awaited] per allocated lane
        decided = 0
        for uid, (op, a, b, c) in enumerate(ops):
            if op == "alloc":
                instance = engine.try_alloc(TaskIndex((a, b)),
                                            {"addr": c % 2}, uid)
                assert (instance is None) == (len(live) == 6)
                if instance is not None:
                    live.append([instance, False])
            elif op == "await" and live:
                lane = live[c % len(live)]
                engine.mark_awaited(lane[0])
                lane[1] = True
            elif op == "deliver":
                before = [lane[0].value for lane in live]
                engine.deliver(_commit_event(c % 2, (a, b)), source_uid=-1)
                decided += sum(
                    value is None and lane[0].value is not None
                    for value, lane in zip(before, live)
                )
            elif op == "release" and live:
                engine.release(live.pop(c % len(live))[0])

            scanned = min((lane[0].parent_index for lane in live),
                          key=lambda index: index.positions, default=None)
            kept = engine.min_allocated_index()
            assert (kept and kept.positions) == (scanned and
                                                 scanned.positions)
            if scope == "lanes":
                minimum = kept
            else:
                minimum = None if c == 7 else TaskIndex((a, c % 4))
            due = [
                lane[0] for lane in live
                if lane[1] and lane[0].value is None and (
                    minimum is None
                    or lane[0].parent_index.positions <= minimum.positions
                )
            ]
            assert engine.would_fire_otherwise(minimum) == bool(due)
            if op == "broadcast":
                before = [lane[0].value for lane in live]
                assert engine.broadcast_minimum(minimum) == len(due)
                fired = [
                    lane[0] for value, lane in zip(before, live)
                    if value is None and lane[0].value is not None
                ]
                assert [id(i) for i in fired] == [id(i) for i in due]
                assert all(instance.value is True for instance in fired)
                decided += len(fired)
            assert engine.decisions.value == decided
        assert len(engine._order) == len(live)
        assert len(engine._waiting) <= len(live)


def _graph_spec(app):
    graph = rmat_graph(8, edge_factor=8, seed=4)
    return build_app(app, graph) if app == "SPEC-MST" \
        else build_app(app, graph, 0)


class TestKeptOrdersInSimulation:
    @pytest.mark.parametrize("bandwidth", [1.0, 0.05])
    @pytest.mark.parametrize(
        "app", ["SPEC-BFS", "COOR-BFS", "SPEC-SSSP", "SPEC-MST"]
    )
    def test_never_exceed_the_live_lanes(self, app, bandwidth):
        sim = AcceleratorSim(_graph_spec(app),
                             platform=HARP.scaled(bandwidth))
        sim.host.start()
        sim._started = True
        peak = 0
        while sim._work_remaining():
            sim.step()
            for engine in sim._engine_list:
                live = len(engine.lanes)
                assert len(engine._order) == live
                assert len(engine._waiting) <= live
                peak = max(peak, live)
            if sim.quiet and sim.active_stages_this_cycle == 0:
                target = sim.ff.jump_target()
                if target > sim.cycle:
                    sim.ff.skip_to(target)
        assert peak > 1
        sim.spec.verify(sim.state)
