"""Tests for the multi-bank task queue and wavefront allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.core.indexing import TaskIndex
from repro.errors import SimulationError
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.taskqueue import MultiBankTaskQueue


def _push(queue, value, handle=0):
    queue.push(TaskIndex((value,)), {"v": value}, handle)


class TestFifoQueue:
    def test_fifo_order_single_bank(self):
        queue = MultiBankTaskQueue("t", banks=1, depth_per_bank=16)
        for v in range(5):
            _push(queue, v)
        popped = [queue.pop()[0].positions[0] for _ in range(5)]
        assert popped == [0, 1, 2, 3, 4]

    def test_wavefront_balances_banks(self):
        queue = MultiBankTaskQueue("t", banks=4, depth_per_bank=16)
        for v in range(8):
            _push(queue, v)
        assert queue.bank_occupancy() == [2, 2, 2, 2]

    def test_pop_from_empty_returns_none(self):
        queue = MultiBankTaskQueue("t", banks=2, depth_per_bank=4)
        assert queue.pop() is None

    def test_capacity_enforced(self):
        queue = MultiBankTaskQueue("t", banks=2, depth_per_bank=2)
        for v in range(4):
            _push(queue, v)
        assert not queue.can_push()
        with pytest.raises(SimulationError):
            _push(queue, 99)

    def test_can_push_multiple(self):
        queue = MultiBankTaskQueue("t", banks=2, depth_per_bank=4)
        assert queue.can_push(8)
        assert not queue.can_push(9)

    def test_push_skips_full_bank(self):
        queue = MultiBankTaskQueue("t", banks=2, depth_per_bank=2)
        for v in range(3):
            _push(queue, v)
        # Bank 0 has 2, bank 1 has 1; next push must land in bank 1.
        _push(queue, 3)
        assert sorted(queue.bank_occupancy()) == [2, 2]

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            MultiBankTaskQueue("t", banks=0, depth_per_bank=4)

    def test_invalid_policy(self):
        with pytest.raises(SimulationError):
            MultiBankTaskQueue("t", pop_policy="lifo")


class TestPriorityQueue:
    def test_pops_minimum_index(self):
        queue = MultiBankTaskQueue("t", banks=2, depth_per_bank=8,
                                   pop_policy="priority")
        for v in (5, 1, 9, 3):
            _push(queue, v)
        popped = [queue.pop()[0].positions[0] for _ in range(4)]
        assert popped == [1, 3, 5, 9]

    def test_ties_pop_in_insertion_order(self):
        queue = MultiBankTaskQueue("t", banks=1, depth_per_bank=8,
                                   pop_policy="priority")
        queue.push(TaskIndex((3,)), {"tag": "first"}, 0)
        queue.push(TaskIndex((3,)), {"tag": "second"}, 0)
        assert queue.pop()[1]["tag"] == "first"

    def test_fields_and_handle_roundtrip(self):
        queue = MultiBankTaskQueue("t", pop_policy="priority")
        queue.push(TaskIndex((4,)), {"x": 10}, 77)
        index, fields, handle = queue.pop()
        assert index == TaskIndex((4,))
        assert fields == {"x": 10}
        assert handle == 77


@given(st.lists(st.integers(0, 100), min_size=1, max_size=64),
       st.integers(1, 6))
def test_priority_pop_is_globally_sorted(values, banks):
    queue = MultiBankTaskQueue("t", banks=banks, depth_per_bank=64,
                               pop_policy="priority")
    for v in values:
        _push(queue, v)
    popped = []
    while True:
        item = queue.pop()
        if item is None:
            break
        popped.append(item[0].positions[0])
    assert popped == sorted(values)


@given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 4))
def test_fifo_conserves_tasks(values, banks):
    queue = MultiBankTaskQueue("t", banks=banks, depth_per_bank=64)
    for v in values:
        _push(queue, v)
    seen = []
    while len(queue):
        seen.append(queue.pop()[0].positions[0])
    assert sorted(seen) == sorted(values)


# One queue operation: ("push", value), ("pop", None), or
# ("stall", bank) which toggles a bank-stall fault window on that bank.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 30)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("stall"), st.integers(0, 3)),
    ),
    max_size=80,
)


@given(_OPS, st.sampled_from(["fifo", "priority"]), st.integers(1, 4),
       st.integers(1, 6))
def test_size_count_matches_bank_sums(ops, policy, banks, depth):
    """``len`` and ``can_push`` are a kept count; the banks are the truth."""
    stalled: set[int] = set()

    def plan():
        return FaultPlan([
            FaultEvent(FaultKind.BANK_STALL, 0, duration=1 << 30,
                       target="t", bank=bank)
            for bank in sorted(stalled)
        ])

    queue = MultiBankTaskQueue("t", banks=banks, depth_per_bank=depth,
                               pop_policy=policy, faults=plan())
    queue.faults.advance(0)
    for kind, arg in ops:
        if kind == "push" and queue.can_push():
            _push(queue, arg)
        elif kind == "pop":
            queue.pop()
        elif kind == "stall":
            stalled ^= {arg}
            queue.faults = plan()
            queue.faults.advance(0)
        occupancy = queue.bank_occupancy()
        assert len(queue) == sum(occupancy)
        assert len(queue) == sum(1 for _ in queue.entries())
        free = sum(depth - used for used in occupancy)
        for count in range(queue.capacity + 2):
            assert queue.can_push(count) == (free >= count)
    assert queue.pushes - queue.pops == len(queue)
