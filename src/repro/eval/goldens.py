"""Golden-fixture scenarios: canonical fixed-seed runs for regression.

One golden is a fully deterministic observed and ledgered run of one
application — fixed input seed, fixed platform, default
:class:`SimConfig` — reduced to a canonical JSON-ready dict: the final
cycle count, the full :func:`~repro.sim.stats.stats_digest`, the trace
profile (event counts per :class:`~repro.obs.events.TraceEventKind`,
excluding ``STAGE_STALL``, of which dense emits one per stalled cycle
and the event engine one per stall run), the stall profiler's rows and the ledger's sha256,
so one fixture pins the dense *and* event-engine executions alike.
:data:`CHROME_SCENARIO` also pins its Chrome trace, one digest per engine.

Graph applications are keyed by ``graph`` (nodes/edges/seed fed through
:func:`random_graph`); host-fed applications (COOR-LU's block-sparse
matrix, SPEC-DMR's point cloud) are keyed by ``inputs`` — the builder
kwargs passed straight to :func:`build_app`.

``scripts/update_goldens.py`` regenerates the fixtures under
``tests/golden/`` from these scenarios after an *intentional* behaviour
change; ``tests/sim/test_goldens.py`` fails on any drift.
"""

from __future__ import annotations

import hashlib
import json

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP, HARP
from repro.obs import Observability, TraceEventKind
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.ledger import TokenLedger
from repro.sim.stats import stats_digest
from repro.substrates.graphs import random_graph

_PLATFORMS = {"HARP": HARP, "EVAL_HARP": EVAL_HARP}

# name -> scenario: "app", "platform", "scale", and either "graph"
# (nodes/edges/seed for random_graph) or "inputs" (build_app kwargs).
SCENARIOS = {
    "bfs": {
        "app": "SPEC-BFS",
        "graph": {"nodes": 120, "edges": 360, "seed": 3},
        "platform": "EVAL_HARP", "scale": 0.25,
    },
    "sssp": {
        "app": "SPEC-SSSP",
        "graph": {"nodes": 120, "edges": 360, "seed": 3},
        "platform": "EVAL_HARP", "scale": 0.25,
    },
    "coor_lu": {
        "app": "COOR-LU",
        "inputs": {"grid": 6, "block_size": 4, "seed": 5},
        "platform": "EVAL_HARP", "scale": 0.25,
    },
    "dmr": {
        "app": "SPEC-DMR",
        "inputs": {"n_points": 60, "seed": 2},
        "platform": "EVAL_HARP", "scale": 0.25,
    },
}


CHROME_SCENARIO = "bfs"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _build_spec(scenario: dict):
    if "graph" in scenario:
        graph = scenario["graph"]
        return build_app(
            scenario["app"],
            random_graph(graph["nodes"], graph["edges"],
                         seed=graph["seed"]),
        )
    return build_app(scenario["app"], **scenario["inputs"])


def collect(name: str, *, engine: str = SimConfig.engine) -> dict:
    """Run one golden scenario and return its canonical dict."""
    scenario = SCENARIOS[name]
    obs = Observability(trace_capacity=1 << 20)
    sim = AcceleratorSim(
        _build_spec(scenario),
        platform=_PLATFORMS[scenario["platform"]].scaled(scenario["scale"]),
        config=SimConfig(engine=engine),
        obs=obs,
        ledger=TokenLedger(),
    )
    result = sim.run()
    assert obs.tracer.evicted == 0, "golden trace_capacity too small"
    trace: dict[str, int] = {}
    for event in obs.tracer.events():
        if event.kind is TraceEventKind.STAGE_STALL:
            continue
        trace[event.kind.value] = trace.get(event.kind.value, 0) + 1
    payload = {
        "scenario": name,
        "app": scenario["app"],
        "platform": scenario["platform"],
        "bandwidth_scale": scenario["scale"],
        "cycles": result.cycles,
        "stats": stats_digest(result.stats),
        "trace": {kind: trace[kind] for kind in sorted(trace)},
        "profile": obs.profiler.accounting(
            list(result.stats.per_stage_active), result.cycles
        ),
        "ledger_sha256": _sha256(
            json.dumps(result.ledger.to_dict(), sort_keys=True)
        ),
    }
    if "graph" in scenario:
        payload["graph"] = dict(scenario["graph"])
    else:
        payload["inputs"] = dict(scenario["inputs"])
    if name == CHROME_SCENARIO:
        # Serialized exactly as EventTracer.write_chrome_trace writes it.
        payload["chrome_trace_sha256"] = {engine: _sha256(json.dumps(
            obs.tracer.chrome_trace(), indent=None, separators=(",", ":"),
            sort_keys=False,
        ))}
    return payload

