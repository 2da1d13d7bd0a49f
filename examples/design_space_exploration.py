"""Automatic design-space exploration (the paper's stated future work).

Section 8: "Another question for future work is how to automatically
choose parameters for templated components when generating structures on
FPGA.  With proper abstractions and automatic design space explorations,
developing hardware accelerator for irregular applications will be open to
software developers."

This example sweeps pipeline replicas x rule lanes x station depth for one
benchmark, simulates every configuration that fits the Stratix V, and
prints the Pareto frontier of performance versus register cost.

Run:  python examples/design_space_exploration.py [APP]
"""

import sys

from repro.eval.platforms import EVAL_HARP
from repro.exec import WorkloadSource
from repro.synthesis.dse import explore, format_frontier


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "SPEC-SSSP"

    print(f"exploring the design space of {app} "
          "(each point is a full, verified cycle-level simulation)")
    result = explore(
        WorkloadSource(app, 0.5),   # the input `repro dse APP` explores
        replica_options=(1, 2, 4),
        lane_options=(16, 64),
        station_options=(8, 16),
        platform=EVAL_HARP,
    )
    print(format_frontier(result))
    best = result.best_performance()
    small = result.smallest()
    print(f"\nfastest: {best.label} ({best.cycles} cycles, "
          f"{best.registers} registers)")
    print(f"leanest: {small.label} ({small.cycles} cycles, "
          f"{small.registers} registers)")
    ratio = small.cycles / best.cycles
    print(f"spending {best.registers / small.registers:.1f}x the registers "
          f"buys {ratio:.2f}x the performance on this workload.")


if __name__ == "__main__":
    main()
