"""Benches for the extension systems built beyond the paper's evaluation.

* **Speculative vs coordinative work efficiency** (SPEC-SSSP vs the
  delta-stepping COOR-SSSP): Section 2.4's trade, quantified — coordination
  spends gate latency to avoid wasted speculative relaxations, which is the
  judicious-rule-choice lesson of Figure 10 in benchmark form.
* **Design-space exploration**: the Section 8 future work, exercised at
  benchmark scale: the frontier must contain both a fast/large and a
  lean/slow configuration.
"""

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP
from repro.exec import CallableSource
from repro.sim import simulate_app
from repro.substrates.graphs import random_graph
from repro.synthesis.dse import explore

GRAPH = random_graph(300, 900, seed=91)


def test_speculation_vs_coordination_tradeoff(benchmark, capsys):
    def run_both():
        spec = simulate_app(build_app("SPEC-SSSP", GRAPH, 0),
                            platform=EVAL_HARP)
        coor = simulate_app(build_app("COOR-SSSP", GRAPH, 0),
                            platform=EVAL_HARP)
        return spec, coor

    spec, coor = benchmark.pedantic(run_both, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\nSPEC-SSSP: {spec.cycles} cycles, "
              f"{spec.stats.tasks_activated} tasks, "
              f"squash {spec.squash_fraction:.3f}")
        print(f"COOR-SSSP: {coor.cycles} cycles, "
              f"{coor.stats.tasks_activated} tasks, "
              f"squash {coor.squash_fraction:.3f}")
    # Coordination does less work ...
    assert coor.stats.tasks_activated < spec.stats.tasks_activated
    # ... and neither gets to skip verification (both ran it already).
    assert spec.cycles > 0 and coor.cycles > 0


def test_dse_frontier_shape(benchmark, capsys):
    small = random_graph(80, 240, seed=92)

    def run():
        return explore(
            CallableSource(lambda: build_app("SPEC-SSSP", small, 0)),
            replica_options=(1, 4),
            lane_options=(16, 128),
            station_options=(8,),
            platform=EVAL_HARP,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    frontier = result.frontier
    with capsys.disabled():
        from repro.synthesis.dse import format_frontier

        print()
        print(format_frontier(result))
    assert len(result.points) == 4
    # The frontier spans a real trade: its fastest point uses more
    # registers than its leanest point, and is strictly faster.
    fastest = frontier[0]
    leanest = min(frontier, key=lambda p: p.registers)
    assert fastest.cycles <= leanest.cycles
    assert fastest.registers >= leanest.registers
