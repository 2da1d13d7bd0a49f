"""Dense vs event under tight buffers: every backpressure and wake site.

With one- or two-entry FIFOs, one- to four-entry stations and a handful
of rule lanes, nearly every firing meets a full output, a full station
or an exhausted engine, so the in-place FIFO handshakes, the stall-and-
sleep sites and the wakes that end those sleeps all run on most cycles;
the apps seeded from a few tasks also get a one-bank, 16-entry task
queue, so pushes into a full queue stall too.  The event engine must
stay cycle-exact against dense there: the same cycles and statistics
digest, or the same wedge at the same cycle.  Every run also sweeps the
invariant checker every four cycles, so a firing site that pushes
without its room test (``fifo-capacity``) or sleeps on the wrong thing
fails under either engine, not only where the engines disagree.  A
wedge shows as the checker's ``liveness`` violation, or failing that
as a ``DeadlockError`` from the small deadlock window.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import build_app
from repro.errors import DeadlockError, InvariantViolation
from repro.eval.platforms import EVAL_HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.stats import stats_digest
from repro.substrates.graphs import random_graph

# Apps whose initial tasks fit a 16-entry queue (MST and CC seed one
# task per edge or vertex).
FEW_SEEDS = ("SPEC-BFS", "COOR-BFS", "SPEC-SSSP")


def _outcome(app: str, graph_seed: int, engine: str, **config):
    sim = AcceleratorSim(
        build_app(app, random_graph(40, 120, seed=graph_seed)),
        platform=EVAL_HARP,
        config=SimConfig(engine=engine, max_cycles=400_000,
                         deadlock_window=64, **config),
        check_interval=4,
    )
    try:
        result = sim.run()
    except DeadlockError as exc:
        return "deadlock", exc.cycle, str(exc)
    except InvariantViolation as exc:
        # The checker reports a wedge before the deadlock window ends;
        # any other violation is a fault and fails the test.
        if exc.invariant != "liveness":
            raise
        return "deadlock", exc.cycle, str(exc)
    return "done", result.cycles, stats_digest(result.stats)


@settings(derandomize=True, deadline=None, max_examples=32)
@given(
    app=st.sampled_from(["SPEC-BFS", "COOR-BFS", "SPEC-SSSP", "SPEC-MST",
                         "SPEC-CC"]),
    graph_seed=st.integers(0, 3),
    fifo_depth=st.sampled_from([1, 2]),
    station_depth=st.sampled_from([1, 2, 4]),
    rule_lanes=st.sampled_from([1, 2, 4]),
    out_of_order=st.booleans(),
    tight_queue=st.booleans(),
)
def test_tight_buffers_are_cycle_exact(app, graph_seed, tight_queue,
                                       **config):
    if tight_queue and app in FEW_SEEDS:
        config.update(queue_banks=1, queue_depth_per_bank=16)
    dense = _outcome(app, graph_seed, "dense", **config)
    assert _outcome(app, graph_seed, "event", **config) == dense
