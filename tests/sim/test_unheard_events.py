"""Heard and unheard events: both bus paths keep every run exact.

The simulator puts an :class:`Event` on the bus only for a shape (kind,
task set, label) some rule engine's clause listens for; an event of any
other shape travels as a bare heap entry that is counted, clears
``quiet`` and, under a fault plan, draws each engine's bus fault, and
does nothing else.  No shipped app listens for ACTIVATE, so a toy spec
whose rule does keeps the heard ACTIVATE path under test, and fault pins
on SPEC-SSSP and SPEC-BFS keep the unheard path's fault draws: dropping
them changes which deliveries the drop and duplicate credits hit.
"""

from __future__ import annotations

import hashlib
import json
import operator

import numpy as np
import pytest

from repro.apps.registry import build_app
from repro.core.eca import compile_rule
from repro.core.events import EventKind
from repro.core.kernel import AllocRule, Enqueue, Kernel, Rendezvous, Store
from repro.core.runtime import SequentialRuntime
from repro.core.spec import ApplicationSpec, make_task_sets
from repro.core.state import MemorySpace
from repro.eval.platforms import HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.stats import stats_digest
from repro.substrates.graphs import random_graph

DEPTH = 6      # a binary tree of 2**(DEPTH + 1) - 1 tasks
SLOTS = 3

SLOT_CLASH = """
rule slot_clash(my_index, s):
    on activate t
        if event.s == s
        do return false
    otherwise return true
"""


def _child(offset):
    def fields(env):
        v = 2 * env["v"] + offset
        return {"v": v, "k": env["k"] + 1, "s": v % SLOTS}
    return fields


def _count_into_slot():
    return Store("mem", lambda env: env["s"], lambda env: 1,
                 label="count", combine=operator.add)


def activate_heard_spec() -> ApplicationSpec:
    """Each task of a binary tree counts itself into its slot, on the
    commit path or, when a sibling of its slot was activated while its
    lane was live, on the abort path: the answer does not depend on the
    verdicts, but the verdicts depend on the ACTIVATE events."""
    tasks = 2 ** (DEPTH + 1) - 1
    expected = np.bincount(np.arange(tasks) % SLOTS, minlength=SLOTS)

    def make_state():
        state = MemorySpace()
        state.add_array("mem", np.zeros(SLOTS, dtype=np.int64))
        return state

    def verify(state):
        got = np.asarray(state.region("mem").storage)
        assert np.array_equal(got, expected), (got, expected)

    kernel = Kernel("t", [
        Enqueue("t", _child(1), when=lambda env: env["k"] < DEPTH),
        Enqueue("t", _child(2), when=lambda env: env["k"] < DEPTH),
        AllocRule("slot_clash", lambda env: {"s": env["s"]}),
        Rendezvous("commit", abort_ops=(_count_into_slot(),)),
        _count_into_slot(),
    ])
    return ApplicationSpec(
        name="ACTIVATE-HEARD",
        mode="speculative",
        task_sets=make_task_sets([("t", "for-each", ("v", "k", "s"))]),
        kernels={"t": kernel},
        rules={"slot_clash": compile_rule(SLOT_CLASH)},
        make_state=make_state,
        initial_tasks=lambda state: [("t", {"v": 0, "k": 0, "s": 0})],
        verify=verify,
    )


class TestHeardActivate:
    def _sim(self, engine):
        return AcceleratorSim(activate_heard_spec(), platform=HARP,
                              config=SimConfig(engine=engine),
                              replicas={"t": 2})

    def _run(self, engine):
        sim = self._sim(engine)
        return sim, sim.run()

    def test_only_the_listened_shapes_are_heard(self):
        sim = self._sim("event")
        assert sim.hears(EventKind.ACTIVATE, "t", "")
        assert not sim.hears(EventKind.REACH, "t", "count")

    @pytest.mark.parametrize("engine", ["dense", "event"])
    def test_equals_the_sequential_runtime(self, engine):
        runtime = SequentialRuntime(activate_heard_spec())
        runtime.run()
        sim, result = self._run(engine)
        assert np.array_equal(sim.state.region("mem").storage,
                              runtime.state.region("mem").storage)
        # ACTIVATE events reached lanes and decided some of them.
        assert result.stats.squashes > 0

    def test_dense_equals_event(self):
        _, dense = self._run("dense")
        _, event = self._run("event")
        assert event.cycles == dense.cycles
        assert stats_digest(event.stats) == stats_digest(dense.stats)


def _bus_fault_plan() -> FaultPlan:
    # Unbounded credits in short windows: every delivery that draws in
    # the window is dropped or duplicated, so a delivery that skipped
    # its draw shows in the counts.
    return FaultPlan([
        FaultEvent(FaultKind.EVENT_DROP, 60, duration=80, magnitude=1000),
        FaultEvent(FaultKind.EVENT_DUPLICATE, 200, duration=80,
                   magnitude=1000),
    ])


# (app, graph seed) -> cycles, events dropped, events duplicated and the
# sha256 prefix of the sorted stats digest, as both engines produced them
# when every ACTIVATE still carried an Event.
FAULT_PINS = {
    ("SPEC-SSSP", 3): (1361, 56, 161, "8174cab64d45313a"),
    ("SPEC-SSSP", 7): (1142, 79, 167, "87d66cf679877e57"),
    ("SPEC-BFS", 3): (599, 17, 186, "20f3b2854f748bd0"),
    ("SPEC-BFS", 7): (587, 31, 198, "d797ab20be76e956"),
}


@pytest.mark.parametrize("engine", ["dense", "event"])
@pytest.mark.parametrize("app, seed", sorted(FAULT_PINS))
def test_unheard_deliveries_draw_their_bus_faults(app, seed, engine):
    sim = AcceleratorSim(build_app(app, random_graph(60, 240, seed=seed)),
                         platform=HARP, config=SimConfig(engine=engine),
                         faults=_bus_fault_plan())
    assert not any(sim.hears(EventKind.ACTIVATE, name, "")
                   for name in sim.queues)
    result = sim.run()
    digest = json.dumps(stats_digest(result.stats), sort_keys=True)
    assert (result.cycles, result.stats.events_dropped,
            result.stats.events_duplicated,
            hashlib.sha256(digest.encode()).hexdigest()[:16]) == \
        FAULT_PINS[app, seed]
