#!/usr/bin/env python
"""Exact host work per Figure 9 simulation: Python and C call counts.

For each app this builds its default workload (event engine), simulates
it once as a warm-up (imports, compiled stage passes and other lazy
caches settle), then simulates it again under a ``sys.setprofile`` hook
that counts every Python call (``call`` events, generator resumes
included) and every C call (``c_call`` events).  Unlike host time, the
counts do not depend on the machine's load: two runs on one interpreter
print the same numbers, so a change to the firing path shows as an
exact delta.

Each row reports the counts, the committed tasks and the executed
steps (cycles minus the cycles the event engine skipped), and the
Python and C calls per committed task and per executed step.

Usage::

    python scripts/count_calls.py                      # all six apps
    python scripts/count_calls.py --apps SPEC-BFS --scale 0.25
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval.platforms import EVAL_HARP                         # noqa: E402
from repro.eval.workloads import APP_NAMES, default_workloads      # noqa: E402
from repro.sim.accelerator import AcceleratorSim                   # noqa: E402


def _simulate(workload):
    sim = AcceleratorSim(workload.spec_builder(), platform=EVAL_HARP,
                         config=workload.config, replicas=workload.replicas)
    return sim.run()


def count_calls(workload) -> dict[str, int]:
    """One warm-up run, then one counted run of ``workload``.

    The cyclic collector is drained first and paused while counting:
    a collection would run finalizers of earlier garbage, whose calls
    depend on what ran before, not on this simulation.
    """
    _simulate(workload)
    counts = {"call": 0, "c_call": 0}

    def hook(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = _simulate(workload)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return {
        "python": counts["call"],
        "c": counts["c_call"],
        "commits": result.stats.commits,
        "steps": result.cycles - result.ff_cycles_skipped,
    }


def _positive_float(text: str) -> float:
    """``--scale``: a positive number; anything else is a usage error
    (exit 2), as for ``repro experiment --scale``."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="+", default=list(APP_NAMES),
                        choices=APP_NAMES, metavar="APP",
                        help="Figure 9 apps to count (default: all six)")
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="workload scale (default 1.0, as fig9-suite)")
    args = parser.parse_args(argv)
    table = default_workloads(args.scale)
    print(f"{'app':<10} {'python':>10} {'c':>10} {'commits':>8} "
          f"{'steps':>8} {'py/task':>8} {'c/task':>8} {'py/step':>8} "
          f"{'c/step':>8}")
    for app in args.apps:
        row = count_calls(table[app])
        commits, steps = max(1, row["commits"]), max(1, row["steps"])
        print(f"{app:<10} {row['python']:>10,} {row['c']:>10,} "
              f"{row['commits']:>8,} {row['steps']:>8,} "
              f"{row['python'] / commits:>8.1f} {row['c'] / commits:>8.1f} "
              f"{row['python'] / steps:>8.1f} {row['c'] / steps:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
