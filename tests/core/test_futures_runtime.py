"""Tests for the threaded futures/promises runtime (Section 4.4)."""

import sys

import numpy as np
import pytest

from repro.apps.registry import build_app
from repro.core.eca import compile_rule
from repro.core.futures_runtime import FuturesRuntime
from repro.core.kernel import Alu, AllocRule, Kernel, Rendezvous, Store
from repro.core.spec import ApplicationSpec, make_task_sets
from repro.core.state import MemorySpace
from repro.errors import SchedulingError
from repro.substrates.graphs import random_graph

GRAPH = random_graph(80, 240, seed=51)

CASES = [
    ("SPEC-BFS", lambda: build_app("SPEC-BFS", GRAPH, 0)),
    ("COOR-BFS", lambda: build_app("COOR-BFS", GRAPH, 0)),
    ("SPEC-SSSP", lambda: build_app("SPEC-SSSP", GRAPH, 0)),
    ("SPEC-MST", lambda: build_app("SPEC-MST", GRAPH)),
    ("SPEC-DMR", lambda: build_app("SPEC-DMR", n_points=40, seed=6)),
    ("COOR-LU", lambda: build_app("COOR-LU", grid=4, block_size=5,
                                  density=0.4, seed=2)),
    ("SPEC-CC", lambda: build_app("SPEC-CC", GRAPH)),
]


@pytest.mark.parametrize("name,builder", CASES)
def test_apps_verify_under_real_threads(name, builder):
    for threads in (1, 4, 6):
        stats = FuturesRuntime(builder(), threads=threads).run()
        assert 0 < stats.tasks_committed <= stats.tasks_executed
        assert stats.steps >= stats.tasks_executed


def test_single_thread_works():
    stats = FuturesRuntime(build_app("SPEC-BFS", GRAPH, 0), threads=1).run()
    assert stats.tasks_executed > 0


def test_thread_count_validated():
    with pytest.raises(SchedulingError):
        FuturesRuntime(build_app("SPEC-BFS", GRAPH, 0), threads=0)


def test_repeated_runs_all_verify():
    """Different OS interleavings every run; all must converge.  A short
    switch interval hands the scheduler lock between threads often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            FuturesRuntime(build_app("SPEC-SSSP", GRAPH, 0), threads=6,
                           timeout_s=60.0).run()
    finally:
        sys.setswitchinterval(interval)


def _toy_spec(ops, rules=None):
    """One ``t`` task running ``ops`` over an eight-word ``mem`` region."""
    def make_state():
        state = MemorySpace()
        state.add_array("mem", np.zeros(8, dtype=np.int64))
        return state

    return ApplicationSpec(
        name="toy",
        mode="speculative",
        task_sets=make_task_sets([("t", "for-each", ("x",))]),
        kernels={"t": Kernel("t", ops)},
        rules=rules or {},
        make_state=make_state,
        initial_tasks=lambda state: [("t", {"x": 1})],
        verify=lambda state: None,
    )


def test_immediate_rule_resolves_without_blocking():
    immediate = compile_rule(
        "rule now():\n  otherwise immediately return true"
    )
    spec = _toy_spec([
        AllocRule("now", lambda env: {}),
        Rendezvous("rv"),
        Store("mem", lambda env: 0, lambda env: 1),
    ], rules={"now": immediate})
    runtime = FuturesRuntime(spec, threads=2, timeout_s=10.0)
    runtime.run()
    assert runtime.state.load("mem", 0) == 1


def test_squash_counted():
    nope = compile_rule("rule nope():\n  otherwise return false")
    spec = _toy_spec([
        AllocRule("nope", lambda env: {}),
        Rendezvous("rv"),
        Store("mem", lambda env: 0, lambda env: 1),
    ], rules={"nope": nope})
    runtime = FuturesRuntime(spec, threads=2, timeout_s=10.0)
    stats = runtime.run()
    assert stats.tasks_squashed == 1
    assert runtime.state.load("mem", 0) == 0


def test_task_body_error_propagates_from_a_worker():
    def fail(env):
        raise ValueError("task body failed")

    spec = _toy_spec([Alu("y", fail)])
    with pytest.raises(ValueError, match="task body failed"):
        FuturesRuntime(spec, threads=2, timeout_s=10.0).run()
