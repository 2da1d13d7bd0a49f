"""Consumer invariance: attaching probe consumers never changes a run.

The schedule tracer, the observability bundle (with or without its
trace ring) and the token ledger only choose which consumers read the
simulator's one probe.  Every subset of them, on both engines, must give
the unobserved run's cycles and statistics, and a consumer that was not
attached must not appear on the result.  The trace ring carries nothing
the other consumers read: the metrics, stall accounting and timeline
are the same with and without it.
"""

import gc
import inspect
import json
import weakref
from functools import lru_cache

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import HARP
from repro.obs import EventTracer, Observability
from repro.obs.events import FIRING_ARGS, PROBE_KINDS
from repro.sim.accelerator import AcceleratorSim, SimConfig, run_resilient
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan
from repro.sim.ledger import TokenLedger
from repro.sim.stats import stats_digest
from repro.sim.trace import ScheduleTracer
from repro.substrates.graphs import random_graph

GRAPH = random_graph(200, 600, seed=7)


def _ringed():
    """The observability bundle as a trace-exporting command attaches it."""
    return Observability(trace_capacity=1 << 16)


# subset -> AcceleratorSim consumer argument -> its maker.
SUBSETS = {
    "none": {},
    "tracer": {"tracer": ScheduleTracer},
    "obs": {"obs": Observability},
    "obs+ring": {"obs": _ringed},
    "ledger": {"ledger": TokenLedger},
    "all": {"tracer": ScheduleTracer, "obs": _ringed, "ledger": TokenLedger},
}
MAKERS = SUBSETS["all"]


def _spec(app):
    return build_app(app, GRAPH, 0) if app == "SPEC-BFS" \
        else build_app(app, GRAPH)


@lru_cache(maxsize=None)
def _unobserved(app):
    """Cycles and stats digest of the plain dense run (the oracle)."""
    result = AcceleratorSim(_spec(app), platform=HARP,
                            config=SimConfig(engine="dense")).run()
    return result.cycles, stats_digest(result.stats)


@pytest.mark.parametrize("engine", ["dense", "event"])
@pytest.mark.parametrize("subset", sorted(SUBSETS))
@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
def test_consumers_never_perturb_the_run(app, subset, engine):
    attached = {name: make() for name, make in SUBSETS[subset].items()}
    sim = AcceleratorSim(_spec(app), platform=HARP,
                         config=SimConfig(engine=engine), **attached)
    assert (sim.probe is None) == (not attached)
    result = sim.run()
    cycles, digest = _unobserved(app)
    assert result.cycles == cycles
    assert stats_digest(result.stats) == digest
    for name in MAKERS:
        assert getattr(result, name) is attached.get(name)
    assert result.metrics is not None  # counters exist even unobserved


def _attached_consumers():
    """Every consumer AcceleratorSim attaches to its probe."""
    sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP,
                         **{name: make() for name, make in MAKERS.items()})
    return sim.probe.consumers


@pytest.mark.parametrize("kind", [*sorted(PROBE_KINDS), "firing"])
def test_every_handler_takes_exactly_its_kinds_arguments(kind):
    """An ``on_<kind>`` handler takes the kind's arguments by name and
    nothing else, and an ``on_firing`` handler exactly ``cycle, stage``,
    so each emission is an exact-arity call that packs no tuple of extra
    arguments."""
    expected = PROBE_KINDS.get(kind, FIRING_ARGS).split(", ")
    for consumer in _attached_consumers():
        handler = getattr(consumer, "on_" + kind, None)
        if handler is None:
            continue
        params = list(inspect.signature(handler).parameters.values())
        assert [p.name for p in params] == expected, (consumer, kind)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("observed", [False, True])
def test_a_finished_simulator_is_freed_without_the_cyclic_collector(
        observed):
    attached = {name: make() for name, make in MAKERS.items()} \
        if observed else {}
    sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP, **attached)
    gc.disable()
    try:
        result = sim.run()
        # What callers read after a run stays readable.
        names = [stage.name for p in sim.pipelines for stage in p.stages]
        assert sim.state is not None and len(names) == len(
            result.stats.per_stage_active)
        finished = [weakref.ref(sim), *map(weakref.ref, sim.queues.values())]
        del sim
        assert not any(ref() for ref in finished)
    finally:
        gc.enable()


def test_observability_attaches_no_ring_unless_given_a_capacity():
    assert Observability().tracer is None
    sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP,
                         obs=Observability())
    assert not any(isinstance(c, EventTracer) for c in sim.probe.consumers)
    ringed = _ringed()
    assert ringed.tracer.capacity == 1 << 16
    sim = AcceleratorSim(_spec("SPEC-BFS"), platform=HARP, obs=ringed)
    assert ringed.tracer in sim.probe.consumers


def _outputs(obs, result) -> str:
    """What a stored run reads of its consumers, as one JSON text."""
    names = list(result.stats.per_stage_active)
    return json.dumps([obs.registry.snapshot(),
                       obs.profiler.accounting(names, result.cycles),
                       obs.timeline.to_dict(len(names))], sort_keys=True)


@pytest.mark.parametrize("engine", ["dense", "event"])
@pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
def test_the_ring_changes_no_other_consumers_output(app, engine):
    outputs = []
    for obs in (Observability(), _ringed()):
        result = AcceleratorSim(_spec(app), platform=HARP,
                                config=SimConfig(engine=engine),
                                obs=obs).run()
        outputs.append(_outputs(obs, result))
    assert outputs[0] == outputs[1]


def test_the_ring_changes_no_recovery_metrics():
    # A total lane outage forces rollbacks, so the recovery.* counters
    # are recorded, by the revived consumers.
    config = SimConfig()
    outputs = []
    for obs in (Observability(), _ringed()):
        plan = FaultPlan([FaultEvent(FaultKind.LANE_FAIL, 400,
                                     duration=1 << 30,
                                     magnitude=config.rule_lanes)])
        result = run_resilient(_spec("SPEC-BFS"), platform=HARP,
                               config=config, faults=plan,
                               check_interval=256, checkpoint_interval=1000,
                               obs=obs).result
        counters = result.obs.registry.snapshot()["counters"]
        assert counters["recovery.rollbacks"] >= 1
        assert counters["recovery.checkpoints"] >= 1
        outputs.append(_outputs(result.obs, result))
    assert outputs[0] == outputs[1]
