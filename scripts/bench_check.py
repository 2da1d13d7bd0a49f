#!/usr/bin/env python
"""Gate a ``bench_smoke.py`` result against the committed baseline.

A thin CLI over :mod:`repro.obs.regress` (the same comparator behind
``repro regress``).  The gates:

* **cycle counts** — fully deterministic, must match the baseline
  *exactly* (any drift is a behaviour change; if intentional, re-run
  ``scripts/bench_smoke.py`` and commit the new baseline);
* **ledger gates** (``bench_smoke.py --ledger`` documents) — ledger-on
  runs must finish at the ledger-off cycle; the on/off wall-clock
  overhead only warns;
* **sweep gates** (``bench_smoke.py --sweep`` documents) — per-point
  cycle counts and the warm-cache hit rate (must be 1.0) are exact,
  while the parallel/serial wall ratio may not fall more than
  ``--sweep-tolerance`` (default 35%) below the baseline;
* **engine-matrix gates** (``bench_smoke.py --events`` documents) —
  cycles exact per profile/app.  The event-engine speedup (the
  event/dense cycles-per-second ratio, machine-normalized because both
  runs execute on the same host) may not regress more than
  ``--tolerance`` (default 20%) below the baseline, and any row
  carrying an absolute ``event_floor`` (the memory-bound 10x
  event-engine contract) is gated against it with no tolerance.

Every failure now carries a diagnosis line (what to check, how to
re-record) instead of a bare diff.

Usage::

    python scripts/bench_smoke.py --ledger --output BENCH_sim.json
    python scripts/bench_check.py BENCH_sim.json BENCH_baseline.json
    python scripts/bench_smoke.py --sweep --output BENCH_sweep.json
    python scripts/bench_check.py BENCH_sweep.json BENCH_sweep_baseline.json
    python scripts/bench_smoke.py --events --output BENCH_events.json
    python scripts/bench_check.py BENCH_events.json BENCH_events_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
)

from repro.obs.regress import regress_bench  # noqa: E402


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_sim.json")
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional speedup regression (default 0.20)",
    )
    parser.add_argument(
        "--sweep-tolerance", type=float, default=0.35,
        help="allowed fractional parallel-sweep speedup regression "
             "(default 0.35)",
    )
    args = parser.parse_args(argv)

    current, baseline = _load(args.current), _load(args.baseline)
    findings = regress_bench(
        current, baseline,
        speedup_tolerance=args.tolerance,
        sweep_tolerance=args.sweep_tolerance,
    )
    failures = [f for f in findings if f.severity == "fail"]
    warnings_ = [f for f in findings if f.severity != "fail"]

    # Positive confirmation for the gates that passed, as before.
    sweep = current.get("sweep")
    if baseline.get("sweep") and sweep and not any(
        f.where.startswith("sweep/") for f in failures
    ):
        print(f"sweep: parallel {sweep.get('parallel_speedup', 0.0):.2f}x, "
              f"warm-cache hit rate "
              f"{(sweep.get('warm_cache') or {}).get('hit_rate', 0.0):.2f} "
              f"(baseline "
              f"{baseline['sweep'].get('parallel_speedup', 0.0):.2f}x) — OK")
    for profile, base_apps in sorted(
        (baseline.get("engines") or {}).items()
    ):
        for app in sorted(base_apps):
            where = f"engines[{profile}][{app}]"
            if any(f.where == where for f in failures):
                continue
            row = (current.get("engines", {}).get(profile) or {}).get(app)
            if isinstance(row, dict) and "event_speedup" in row:
                floor = base_apps[app].get("event_floor")
                floor_note = (f", floor {floor:.1f}x"
                              if isinstance(floor, (int, float)) else "")
                print(f"{where}: event {row['event_speedup']:.2f}x (baseline "
                      f"{base_apps[app].get('event_speedup', 0.0):.2f}x"
                      f"{floor_note}) — OK")

    for warning in warnings_:
        print(f"warn [{warning.rule}] {warning.where}: {warning.message}")
    if failures:
        for failure in failures:
            print(f"FAIL {failure.where}: {failure.message}",
                  file=sys.stderr)
            if failure.diagnosis:
                print(f"  -> {failure.diagnosis}", file=sys.stderr)
        return 1
    print("benchmark check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
