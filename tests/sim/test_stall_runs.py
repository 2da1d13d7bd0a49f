"""Stalls as runs: the event engine's sleeping stages against dense.

Under the event engine a stage whose tick only stalls (or does nothing)
sleeps until what blocks it changes, and its stalls are credited as one
run when it ticks again.  Each scenario here drives one of the ways that
run's end could be miscounted, and checks every per-stage count, the
queue-full counter and the stall profiler's rows against dense, which
ticks every stage every cycle.
"""

from operator import attrgetter

import pytest

from repro.apps.registry import build_app
from repro.core.kernel import Call, Guard, Load, Store
from repro.eval.platforms import HARP
from repro.obs import Observability
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.pipeline import (
    _GUARD_OPERAND,
    SourceStage,
    compile_stage_pass,
)
from repro.sim.stages import _STAGE_CLASSES
from repro.substrates.graphs import random_graph

from tests.sim.test_stages import micro_spec


def _run(spec, engine, replicas, **config):
    obs = Observability()
    sim = AcceleratorSim(spec, platform=HARP,
                         config=SimConfig(engine=engine, **config),
                         replicas=replicas, obs=obs)
    result = sim.run()
    rows = obs.profiler.accounting(list(result.stats.per_stage_stalls),
                                   result.cycles)
    return result, rows


def _assert_runs_match_dense(spec, replicas=None, **config):
    replicas = replicas or {"t": 1}
    dense, dense_rows = _run(spec, "dense", replicas, **config)
    event, event_rows = _run(spec, "event", replicas, **config)
    assert event.cycles == dense.cycles
    assert event.stats.per_stage_stalls == dense.stats.per_stage_stalls
    assert event.stats.queue_full_stalls == dense.stats.queue_full_stalls
    assert event_rows == dense_rows
    assert sum(dense.stats.per_stage_stalls.values()) > 0
    return dense, dense_rows


def _slow(cycles):
    return Call(lambda env, state: None, cycles=cycles)


def test_sibling_ports_emptying_their_shared_queue():
    """Three ports pop one queue while their pipelines back up.  A port
    asleep on backpressure stops stalling the cycle a sibling pops the
    last task: that cycle itself counts only when the sleeper comes
    first in the pass."""
    # Tasks 0 and 2 hold their ports' pipelines while the third port
    # drains the queue, and a sibling on either side of it sleeps.
    spec = micro_spec(
        [Call(lambda env, state: None,
              cycles=lambda env: 40 if env["x"] in (0, 2) else 3)],
        initial=[("t", {"x": x}) for x in range(12)],
    )
    _assert_runs_match_dense(spec, replicas={"t": 3}, station_depth=1,
                             fifo_depth=1)


def test_epilogue_head_pops_before_its_steering_stage():
    """The epilogue chain precedes its steering stage in the pass, so its
    head's pop frees room for the steering stage in the same cycle."""
    spec = micro_spec(
        [Guard(lambda env: env["x"] % 3 == 0,
               else_ops=(_slow(9), Store("mem", lambda env: 1,
                                         lambda env: 1))),
         Store("mem", lambda env: 0, lambda env: 1)],
        initial=[("t", {"x": x}) for x in range(17)],
    )
    _assert_runs_match_dense(spec, station_depth=1, fifo_depth=1)


def test_a_tick_that_stalls_twice():
    """A full load station behind a blocked output stalls on backpressure
    and on memory in one tick: its run carries both."""
    spec = micro_spec(
        [Load("v", "mem", lambda env: env["x"]), _slow(30)],
        initial=[("t", {"x": x}) for x in range(15)],
    )
    dense, rows = _assert_runs_match_dense(spec, station_depth=1,
                                           fifo_depth=1)
    [load] = [name for name in rows if name.endswith("load")]
    stalled = rows[load]["backpressure"] + rows[load]["memory"]
    # More stall calls than stalled cycles: some ticks recorded two.
    assert dense.stats.per_stage_stalls[load] > stalled


def test_queue_full_stalls_are_credited_per_cycle():
    """An Enqueue asleep on a full task queue counts queue-full stalls."""
    spec = build_app("SPEC-SSSP", random_graph(40, 120, seed=2))
    dense, _ = _assert_runs_match_dense(spec, replicas={"relax": 2},
                                        queue_banks=1,
                                        queue_depth_per_bank=8)
    assert dense.stats.queue_full_stalls > 0


@pytest.mark.parametrize(
    "stage_cls", [SourceStage, *_STAGE_CLASSES.values()],
    ids=lambda cls: cls.__name__,
)
def test_the_pass_skips_a_sleeping_stage_whatever_its_guard(stage_cls):
    """A sleeping stage is not ticked even where its guard holds, and a
    woken one closes its stall run and ticks: kinds whose guard is
    ``a or b`` included."""
    sim = AcceleratorSim(micro_spec([_slow(1)], initial=[("t", {"x": 1})]),
                         platform=HARP, replicas={"t": 1})
    calls = []

    class Counting(stage_cls):
        __slots__ = ()

        def tick(self):
            calls.append("tick")

        def credit_run(self, end):
            calls.append("credit_run")

    stage = (Counting(sim, "t", "probe") if stage_cls is SourceStage
             else Counting(sim, None, "probe"))
    if stage_cls is SourceStage:
        sim.host.start()
        assert stage.queue._size
    else:
        # Held work in the guard's first operand: an ``a or b`` guard
        # with the sleep test appended unparenthesised would tick here.
        first = _GUARD_OPERAND.findall(stage_cls.tick_guard)[0]
        attrgetter(first)(stage).append(object())
    stage_ticks, _ = compile_stage_pass([stage])
    sim.cycle = stage.since + 1  # a run of one slept cycle to close
    for wait, expected in ((1, []), (2, ["credit_run", "tick"]),
                           (0, ["tick"])):
        stage.wait = wait
        calls.clear()
        stage_ticks()
        assert calls == expected
        assert stage.wait == (wait == 1)
    # Woken in the cycle it slept: an empty run, nothing to close.
    sim.cycle, stage.wait = stage.since, 2
    calls.clear()
    stage_ticks()
    assert calls == ["tick"]


def test_simulators_of_one_shape_share_the_pass_code_not_its_stages():
    """The generated pass is compiled once per source text; each
    simulator's pass is bound to, and ticks, only its own stages."""
    spec = build_app("SPEC-BFS", random_graph(40, 90, seed=1), 0)
    sims = [AcceleratorSim(spec, platform=HARP, replicas={"visit": 2})
            for _ in range(2)]
    first, second = sims
    assert first._compiled_ticks.__code__ is second._compiled_ticks.__code__
    assert first._compiled_commits.__code__ is \
        second._compiled_commits.__code__
    for sim in sims:
        sim.host.start()
    queued = [[len(q) for q in sim._queue_list] for sim in sims]
    first._compiled_ticks()
    assert [len(q) for q in first._queue_list] != queued[0]
    assert [len(q) for q in second._queue_list] == queued[1]
    second._compiled_ticks()
    assert [len(q) for q in second._queue_list] != queued[1]
