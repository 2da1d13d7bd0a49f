"""Consumer invariance: attaching probe consumers never changes a run.

The schedule tracer, the observability bundle and the token ledger only
choose which consumers read the simulator's one probe.  Every subset of
them, on both engines, must give the unobserved run's cycles and
statistics, and a consumer that was not attached must not appear on the
result.
"""

from functools import lru_cache

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import HARP
from repro.obs import Observability
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.ledger import TokenLedger
from repro.sim.stats import stats_digest
from repro.sim.trace import ScheduleTracer
from repro.substrates.graphs import random_graph

GRAPH = random_graph(200, 600, seed=7)

SUBSETS = {
    "none": (),
    "tracer": ("tracer",),
    "obs": ("obs",),
    "ledger": ("ledger",),
    "all": ("tracer", "obs", "ledger"),
}
MAKERS = {
    "tracer": ScheduleTracer,
    "obs": Observability,
    "ledger": TokenLedger,
}


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
    attached = {name: MAKERS[name]() for name in SUBSETS[subset]}
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
