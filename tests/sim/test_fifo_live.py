"""Tests for simulator FIFOs and the live-index tracker."""

import pytest
from hypothesis import given, strategies as st

from repro.core.indexing import TaskIndex
from repro.errors import SimulationError
from repro.sim.fifo import Fifo
from repro.sim.live import LiveIndexTracker


def _push(fifo, item):
    """A firing site's push (sim/stages.py): stage it, take a slot."""
    fifo._staged.append(item)
    fifo.free -= 1


def _pop(fifo):
    """A firing site's pop, without the producer's wake."""
    fifo.free += 1
    return fifo._items.popleft()


class TestFifo:
    def test_push_invisible_until_commit(self):
        fifo = Fifo(capacity=4)
        _push(fifo, "a")
        assert fifo.visible == 0
        assert len(fifo) == 1
        fifo.commit()
        assert fifo.visible == 1
        assert _pop(fifo) == "a"

    def test_capacity_counts_staged(self):
        fifo = Fifo(capacity=2)
        _push(fifo, "a")
        _push(fifo, "b")
        assert not fifo.can_push()
        _push(fifo, "c")
        with pytest.raises(SimulationError, match="full fifo"):
            fifo.commit()

    def test_fifo_order(self):
        fifo = Fifo(capacity=8)
        for item in "abc":
            _push(fifo, item)
        fifo.commit()
        assert [_pop(fifo) for _ in range(3)] == ["a", "b", "c"]

    def test_pop_then_push_same_cycle(self):
        fifo = Fifo(capacity=1)
        _push(fifo, "a")
        fifo.commit()
        assert _pop(fifo) == "a"
        assert fifo.can_push()
        _push(fifo, "b")
        fifo.commit()
        assert fifo.drain() == ["b"]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Fifo(capacity=0)

    def test_drain_shows_everything(self):
        fifo = Fifo(capacity=4)
        _push(fifo, "a")
        fifo.commit()
        _push(fifo, "b")
        assert fifo.drain() == ["a", "b"]


@given(st.lists(st.sampled_from(["push", "pop", "commit"]), max_size=80))
def test_fifo_behaves_like_reference_queue(ops):
    """Property: Fifo == staged deque model under arbitrary op sequences."""
    fifo = Fifo(capacity=5)
    visible: list = []
    staged: list = []
    counter = 0
    for op in ops:
        if op == "push":
            if fifo.can_push():
                _push(fifo, counter)
                staged.append(counter)
                counter += 1
            else:
                assert len(visible) + len(staged) == 5
        elif op == "pop":
            if visible:
                assert _pop(fifo) == visible.pop(0)
        else:
            fifo.commit()
            visible.extend(staged)
            staged.clear()
    assert fifo.visible == len(visible)
    assert len(fifo) == len(visible) + len(staged)
    assert fifo.free == 5 - len(fifo)


class TestLiveIndexTracker:
    def test_minimum_of_registered(self):
        tracker = LiveIndexTracker()
        tracker.register(TaskIndex((5,)))
        tracker.register(TaskIndex((2,)))
        assert tracker.minimum() == TaskIndex((2,))

    def test_release_moves_minimum(self):
        tracker = LiveIndexTracker()
        h_min = tracker.register(TaskIndex((1,)))
        tracker.register(TaskIndex((7,)))
        tracker.release(h_min)
        assert tracker.minimum() == TaskIndex((7,))

    def test_refcount(self):
        tracker = LiveIndexTracker()
        handle = tracker.register(TaskIndex((3,)))
        tracker.retain(handle, 2)
        tracker.release(handle)
        tracker.release(handle)
        assert tracker.minimum() == TaskIndex((3,))
        tracker.release(handle)
        assert tracker.minimum() is None

    def test_double_release_rejected(self):
        tracker = LiveIndexTracker()
        handle = tracker.register(TaskIndex((0,)))
        tracker.release(handle)
        with pytest.raises(SimulationError):
            tracker.release(handle)

    def test_horizon_caps_minimum(self):
        tracker = LiveIndexTracker()
        tracker.register(TaskIndex((9,)))
        tracker.horizon = TaskIndex((4,))
        assert tracker.minimum() == TaskIndex((4,))
        tracker.horizon = None
        assert tracker.minimum() == TaskIndex((9,))

    def test_horizon_alone(self):
        tracker = LiveIndexTracker()
        tracker.horizon = TaskIndex((2,))
        assert tracker.minimum() == TaskIndex((2,))

    def test_empty_minimum_none(self):
        assert LiveIndexTracker().minimum() is None


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=60))
def test_tracker_minimum_matches_multiset(ops):
    """Property: tracker minimum == min of a reference multiset."""
    tracker = LiveIndexTracker()
    reference: dict[int, TaskIndex] = {}
    for is_register, value in ops:
        if is_register or not reference:
            handle = tracker.register(TaskIndex((value,)))
            reference[handle] = TaskIndex((value,))
        else:
            handle = next(iter(reference))
            tracker.release(handle)
            del reference[handle]
        expected = min(reference.values()) if reference else None
        assert tracker.minimum() == expected
