"""Tests for M-tuple well-order indices and loop nests (Figure 5)."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core.indexing import LoopNest, TaskIndex
from repro.core.spec import IndexMinter, make_task_sets
from repro.errors import SpecificationError


class TestTaskIndex:
    def test_lexicographic_order(self):
        assert TaskIndex((0, 5)).earlier_than(TaskIndex((1, 0)))
        assert not TaskIndex((1, 0)).earlier_than(TaskIndex((0, 5)))

    def test_equal_indices_not_earlier(self):
        a, b = TaskIndex((2, 0)), TaskIndex((2, 0))
        assert not a.earlier_than(b)
        assert not b.earlier_than(a)
        assert a == b

    def test_left_position_dominates(self):
        assert TaskIndex((1, 99)).earlier_than(TaskIndex((2, 0)))

    def test_negative_position_rejected(self):
        with pytest.raises(SpecificationError):
            TaskIndex((-1, 0))

    def test_prefix(self):
        assert TaskIndex((3, 4, 5)).prefix(2) == (3, 4)

    def test_str(self):
        assert str(TaskIndex((1, 2))) == "{1, 2}"

    def test_comparison_operators(self):
        assert TaskIndex((0,)) < TaskIndex((1,))
        assert min(TaskIndex((4,)), TaskIndex((2,))) == TaskIndex((2,))


class TestLoopNest:
    def test_single_for_each_counts(self):
        nest = LoopNest([("visit", "for-each")])
        assert nest.root_index("visit") == TaskIndex((0,))
        assert nest.root_index("visit") == TaskIndex((1,))

    def test_for_all_always_zero(self):
        nest = LoopNest([("w", "for-all")])
        assert nest.root_index("w") == TaskIndex((0,))
        assert nest.root_index("w") == TaskIndex((0,))

    def test_figure5_nesting(self):
        # Figure 5: for-each update > for-each visit > for-all writeback.
        nest = LoopNest([
            ("update", "for-each"),
            ("visit", "for-each"),
            ("writeback", "for-all"),
        ])
        tu = nest.index_for("update", None)           # {0, 0, 0}
        assert tu == TaskIndex((0, 0, 0))
        tv = nest.index_for("visit", tu)              # {0, cv++, 0}
        assert tv == TaskIndex((0, 0, 0))
        tv2 = nest.index_for("visit", tu)
        assert tv2 == TaskIndex((0, 1, 0))
        tw = nest.index_for("writeback", tv2)         # {0, 1, 0}
        assert tw == TaskIndex((0, 1, 0))
        tu2 = nest.index_for("update", tv)            # {cu++, 0, 0}
        assert tu2 == TaskIndex((1, 0, 0))

    def test_inherited_prefix_truncated_at_child_position(self):
        nest = LoopNest([("a", "for-each"), ("b", "for-all")])
        parent = nest.index_for("a", None)
        child = nest.index_for("b", parent)
        assert child.positions[0] == parent.positions[0]

    def test_counters_global_not_per_parent(self):
        nest = LoopNest([("a", "for-each"), ("b", "for-each")])
        p1 = nest.index_for("a", None)
        p2 = nest.index_for("a", None)
        c1 = nest.index_for("b", p1)
        c2 = nest.index_for("b", p2)
        # Global counter: c2's b-position continues from c1's.
        assert c2.positions[1] == c1.positions[1] + 1

    def test_reset(self):
        nest = LoopNest([("a", "for-each")])
        nest.index_for("a", None)
        nest.reset()
        assert nest.index_for("a", None) == TaskIndex((0,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecificationError):
            LoopNest([("a", "for-each"), ("a", "for-all")])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            LoopNest([("a", "while")])

    def test_unknown_loop_rejected(self):
        nest = LoopNest([("a", "for-each")])
        with pytest.raises(SpecificationError):
            nest.index_for("zzz", None)

    def test_empty_nest_rejected(self):
        with pytest.raises(SpecificationError):
            LoopNest([])


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2,
                max_size=30))
def test_well_order_is_total_and_transitive(pairs):
    indices = [TaskIndex(p) for p in pairs]
    ordered = sorted(indices)
    for earlier, later in zip(ordered, ordered[1:]):
        assert not later.earlier_than(earlier)


@given(st.integers(1, 50))
def test_for_each_sequence_strictly_increasing(n):
    nest = LoopNest([("t", "for-each")])
    indices = [nest.index_for("t", None) for _ in range(n)]
    for a, b in zip(indices, indices[1:]):
        assert a.earlier_than(b)


def _reference_mint(nest, priority_fields, task_set, fields, parent):
    """IndexMinter's contract spelled out: the loop nest's index, with a
    priority set's position taken from its priority field."""
    index = nest.index_for(task_set, parent)
    priority_field = priority_fields.get(task_set)
    if priority_field is not None:
        positions = list(index.positions)
        positions[nest.position_of(task_set)] = int(fields[priority_field])
        index = TaskIndex(tuple(positions))
    return index


@st.composite
def _mint_scripts(draw):
    """A loop nest of width 1-4 with for-each/for-all kinds, some sets
    priority-indexed, and a script of mints: each a task set, a priority
    value (sometimes negative) and a parent (root, or an earlier index)."""
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["for-each", "for-all"]),
                          min_size=width, max_size=width))
    names = [f"s{i}" for i in range(width)]
    prioritized = draw(st.lists(st.booleans(), min_size=width,
                                max_size=width))
    priority_fields = {name: "p" for name, on in zip(names, prioritized)
                       if on}
    mints = draw(st.lists(st.tuples(
        st.sampled_from(names), st.integers(-2, 9), st.integers(-1, 40)),
        min_size=1, max_size=40))
    return names, kinds, priority_fields, mints


@given(_mint_scripts())
def test_index_minter_matches_the_loop_nest_reference(script):
    names, kinds, priority_fields, mints = script
    spec = SimpleNamespace(
        task_sets=make_task_sets([(name, kind, ("p",))
                                  for name, kind in zip(names, kinds)]),
        priority_fields=priority_fields,
    )
    minter = IndexMinter(spec)
    nest = LoopNest(list(zip(names, kinds)))
    assert minter.width == nest.width
    minted: list[TaskIndex] = []
    for task_set, priority, parent_pick in mints:
        parent = minted[parent_pick % len(minted)] \
            if parent_pick >= 0 and minted else None
        fields = {"p": priority}
        try:
            expected = _reference_mint(nest, priority_fields, task_set,
                                       fields, parent)
        except SpecificationError as exc:
            with pytest.raises(SpecificationError) as raised:
                minter.mint(task_set, fields, parent)
            assert str(raised.value) == str(exc)
        else:
            index = minter.mint(task_set, fields, parent)
            assert type(index) is TaskIndex
            assert index == expected and hash(index) == hash(expected)
            assert repr(index) == repr(expected)
            assert not index < expected and not expected < index
            assert pickle.loads(pickle.dumps(index)) == expected
            minted.append(index)
        assert minter.counters == nest.counters
    minter.reset()
    assert set(minter.counters.values()) == {0}


def test_index_minter_rejects_an_unknown_task_set():
    spec = SimpleNamespace(task_sets=make_task_sets([("a", "for-each", ())]),
                           priority_fields={})
    with pytest.raises(SpecificationError, match="unknown loop 'zzz'"):
        IndexMinter(spec).mint("zzz", {}, None)
