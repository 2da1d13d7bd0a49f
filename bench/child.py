"""Measure one workload in this process: ``python3 -m bench.child``.

``bench.run`` starts one child per workload (and a few set-up-only
children), so no workload runs on an interpreter another one warmed.  The
child starts the host speed probe, imports the program and generates the
inputs (its set-up), then discards one warm-up pass, runs timed passes
until the next one would overrun ``--seconds``, optionally ends with one
traced pass under the layer sampler, checks the cycle counts, and writes
its samples and metrics as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench.speed import SpeedProbe


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are generated")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        # Imported under the probe: importing the program is set-up work.
        from bench.measure import measure
        from bench.suite import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.work_dir)
        start = time.perf_counter()
        workload.setup()
        inputs_s = time.perf_counter() - start
        # CLOCK_MONOTONIC is system-wide: this spans interpreter start-up.
        setup_s = time.monotonic() - args.spawned_at
        slowdown = probe.slowdown()
        setup = {"setup_s": setup_s / slowdown,
                 "inputs_s": inputs_s / slowdown,
                 "raw_setup_s": setup_s, "slowdown": slowdown}
        result = setup if args.setup_only else {
            **measure(workload, probe, args.seconds, bool(args.trace)),
            "setup": setup,
        }
    finally:
        probe.stop()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
