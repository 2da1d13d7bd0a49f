#!/usr/bin/env python
"""Benchmark smoke run: fixed-seed BFS/SSSP cycles plus simulator speed.

Writes ``BENCH_sim.json`` (or ``--output``) with, per app, the simulated
cycle count (deterministic — a regression gate), the host wall-clock
seconds of the simulation loop, and the simulation rate in simulated
cycles per wall second (informational on its own — wall time depends on
the machine).  Exits non-zero if any run fails to verify.

``--sweep`` benchmarks the sweep execution engine instead: a fixed
app x bandwidth grid is run serially, through a 4-worker process pool,
and again against a warm result cache, writing ``BENCH_sweep.json``
(or ``--output``) with points/sec for each mode.  The three modes must
agree on every cycle count (exit non-zero otherwise) and the warm run
must hit the cache for every point; the parallel/serial wall ratio is
machine-normalized (both modes run on the same host, so hardware speed
cancels).

``--events`` benchmarks the two engines instead: every app runs dense
and event (idle-cycle skipping) on two profiles, writing
``BENCH_events.json`` (or ``--output``).  Both engines must finish at
the same cycle; the recorded ``event_speedup`` — the event/dense
cycles-per-second ratio — is machine-normalized, and the memory-bound
rows carry the absolute 10x event-engine speedup floor that
``repro regress --bench`` / ``scripts/bench_check.py`` enforce.

``--ledger`` adds the token-provenance zero-cost check: each app runs
once without a :class:`~repro.sim.ledger.TokenLedger` and once with one
attached.  Both runs must finish at the *same* cycle (recording is
observation, never behaviour; mismatch exits non-zero), and the
recorded ``overhead`` — the on/off wall-clock ratio — is what
``repro regress --bench`` warn-gates against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro.apps.registry import build_app                    # noqa: E402
from repro.eval.platforms import EVAL_HARP, HARP             # noqa: E402
from repro.sim.accelerator import AcceleratorSim, SimConfig  # noqa: E402
from repro.substrates.graphs.generators import random_graph  # noqa: E402

APPS = ("SPEC-BFS", "SPEC-SSSP")
SEED = 7
NODES, EDGES = 300, 900

# The sweep-engine benchmark grid: both apps across a QPI-bandwidth
# ladder, sized so per-point simulation dominates pool startup.
SWEEP_BANDWIDTHS = (0.5, 1.0, 2.0, 4.0)
SWEEP_JOBS = 4

# The engine-matrix profiles (``--events``).  The memory-bound leg runs
# at 0.5% QPI bandwidth — the Figure-10 low-bandwidth regime, where the
# machine is quiescent for >97% of cycles and wake-up-driven skipping
# dominates — and carries an *absolute* 10x event-engine speedup floor
# (EVENT_FLOOR) that ``repro regress --bench`` enforces, on top of the
# usual relative tolerance against the committed baseline.
EVENT_PROFILES = {
    "baseline": HARP,
    "memory-bound": EVAL_HARP.scaled(0.005),
}
EVENT_FLOOR = 10.0
ENGINES = ("dense", "event")


def build_spec(app: str):
    graph = random_graph(NODES, EDGES, seed=SEED)
    return build_app(app, graph, 0) if app == "SPEC-BFS" \
        else build_app(app, graph)


def run_once(app: str, platform, *, engine: str = "dense",
             with_ledger: bool = False) -> dict:
    ledger = None
    if with_ledger:
        from repro.sim.ledger import TokenLedger
        ledger = TokenLedger()
    sim = AcceleratorSim(
        build_spec(app), platform=platform,
        config=SimConfig(engine=engine), ledger=ledger,
    )
    started = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - started
    return {
        "cycles": result.cycles,
        "commits": result.stats.commits,
        "utilization": round(result.utilization, 6),
        "wall_seconds": round(wall, 3),
        "cycles_per_sec": round(result.cycles / wall) if wall > 0 else 0,
        "ff_jumps": result.ff_jumps,
        "ff_cycles_skipped": result.ff_cycles_skipped,
    }


def sweep_jobs() -> list:
    from repro.exec import GraphAppSource, SimJob

    return [
        SimJob(
            source=GraphAppSource(
                app, NODES, EDGES, seed=SEED,
                start=0 if app == "SPEC-BFS" else None,
            ),
            platform=EVAL_HARP.scaled(bandwidth),
            tag=f"{app}@{bandwidth:g}x",
        )
        for app in APPS
        for bandwidth in SWEEP_BANDWIDTHS
    ]


def run_sweep_bench(output: str) -> int:
    from repro.exec import ResultCache, SweepRunner

    jobs = sweep_jobs()

    def timed(runner) -> tuple[list, float]:
        started = time.perf_counter()
        outcomes = runner.run(jobs)
        return outcomes, time.perf_counter() - started

    serial, serial_wall = timed(SweepRunner(jobs=1))
    parallel, parallel_wall = timed(SweepRunner(jobs=SWEEP_JOBS))

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for job, outcome in zip(jobs, parallel):
            cache.put(job.digest(), outcome)
        warm_runner = SweepRunner(jobs=1, cache=ResultCache(tmp))
        warm, warm_wall = timed(warm_runner)

    for mode, outcomes in (("parallel", parallel), ("warm-cache", warm)):
        for job, base, got in zip(jobs, serial, outcomes):
            if got.cycles != base.cycles:
                print(f"FAIL {job.tag} [{mode}]: cycle count diverged "
                      f"({got.cycles} != {base.cycles})", file=sys.stderr)
                return 1
    if warm_runner.report.hits != len(jobs):
        print(f"FAIL warm-cache: {warm_runner.report.hits}/{len(jobs)} "
              f"points hit the cache", file=sys.stderr)
        return 1

    def mode_row(wall: float) -> dict:
        return {
            "wall_seconds": round(wall, 3),
            "points_per_sec": round(len(jobs) / wall, 3) if wall else 0.0,
        }

    speedup = serial_wall / parallel_wall if parallel_wall else 0.0
    payload = {
        "seed": SEED,
        "graph": {"nodes": NODES, "edges": EDGES},
        "points": {job.tag: outcome.cycles
                   for job, outcome in zip(jobs, serial)},
        "sweep": {
            "n_points": len(jobs),
            "workers": SWEEP_JOBS,
            "serial": mode_row(serial_wall),
            "parallel": mode_row(parallel_wall),
            "warm_cache": {**mode_row(warm_wall),
                           "hit_rate": warm_runner.report.hit_rate},
            "parallel_speedup": round(speedup, 3),
        },
    }
    print(f"sweep: {len(jobs)} points — serial {serial_wall:.2f}s, "
          f"parallel({SWEEP_JOBS}) {parallel_wall:.2f}s "
          f"({speedup:.2f}x), warm cache {warm_wall:.2f}s "
          f"({warm_runner.report.hits}/{len(jobs)} hits) — CYCLE-EXACT")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


def run_events_bench(output: str) -> int:
    """The engine matrix: dense vs event per profile/app.

    Both engines must finish at the same cycle (exit non-zero
    otherwise); the recorded event speedup is a cycles-per-second ratio
    against the dense run on the same host, so it is
    machine-normalized.  The memory-bound rows carry the absolute
    ``event_floor`` the regression gate enforces.
    """
    engines_doc: dict = {}
    for profile, platform in EVENT_PROFILES.items():
        engines_doc[profile] = {}
        for app in APPS:
            rows = {
                engine: run_once(app, platform, engine=engine)
                for engine in ENGINES
            }
            dense, event = rows["dense"], rows["event"]
            if event["cycles"] != dense["cycles"]:
                print(f"FAIL {app} [{profile}]: event engine diverged "
                      f"({event['cycles']} != {dense['cycles']} cycles)",
                      file=sys.stderr)
                return 1
            speedup = (round(event["cycles_per_sec"]
                             / dense["cycles_per_sec"], 3)
                       if dense["cycles_per_sec"] else 0.0)
            row = {"cycles": dense["cycles"], **rows,
                   "event_speedup": speedup}
            if profile == "memory-bound":
                row["event_floor"] = EVENT_FLOOR
            engines_doc[profile][app] = row
            print(f"{app} [{profile}]: {dense['cycles']} cycles — dense "
                  f"{dense['wall_seconds']:.2f}s, event "
                  f"{event['wall_seconds']:.2f}s ({speedup:.2f}x, "
                  f"{event['ff_jumps']} jumps) — CYCLE-EXACT")

    payload = {
        "seed": SEED,
        "graph": {"nodes": NODES, "edges": EDGES},
        "engines": engines_doc,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None)
    parser.add_argument(
        "--sweep", action="store_true",
        help="benchmark the sweep engine (serial vs parallel vs "
             "warm-cache) instead of the simulator itself",
    )
    parser.add_argument(
        "--ledger", action="store_true",
        help="also run each app with a TokenLedger attached and assert "
             "the zero-cost contract (identical cycles, recorded "
             "on/off wall overhead)",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="benchmark the dense/event engine matrix "
             "(BENCH_events.json), asserting cycle-exactness and "
             "recording per-engine speedups",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        return run_sweep_bench(args.output or "BENCH_sweep.json")
    if args.events:
        return run_events_bench(args.output or "BENCH_events.json")
    args.output = args.output or "BENCH_sim.json"

    runs = {}
    for app in APPS:
        row = run_once(app, HARP)
        del row["ff_jumps"], row["ff_cycles_skipped"]
        runs[app] = row
        print(f"{app}: {row['cycles']} cycles in {row['wall_seconds']:.2f}s "
              f"wall ({row['cycles_per_sec']} cyc/s) — VERIFIED")

    payload = {
        "seed": SEED,
        "graph": {"nodes": NODES, "edges": EDGES},
        "runs": runs,
    }

    if args.ledger:
        ledger_doc: dict = {}
        for app in APPS:
            off = run_once(app, HARP)
            on = run_once(app, HARP, with_ledger=True)
            if on["cycles"] != off["cycles"]:
                print(f"FAIL {app} [ledger]: recording perturbed the "
                      f"simulation ({on['cycles']} != {off['cycles']} "
                      f"cycles)", file=sys.stderr)
                return 1
            for row in (off, on):
                del row["ff_jumps"], row["ff_cycles_skipped"]
            overhead = (round(on["wall_seconds"] / off["wall_seconds"], 3)
                        if off["wall_seconds"] else 0.0)
            ledger_doc[app] = {
                "cycles": off["cycles"],
                "off": off,
                "on": on,
                "overhead": overhead,
            }
            print(f"{app} [ledger]: {off['cycles']} cycles — off "
                  f"{off['wall_seconds']:.2f}s vs on "
                  f"{on['wall_seconds']:.2f}s ({overhead:.2f}x overhead) "
                  f"— CYCLE-EXACT")
        payload["ledger"] = ledger_doc

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
