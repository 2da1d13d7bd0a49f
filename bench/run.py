"""The benchmark of record: ``python3 -m bench.run`` from the repo root.

Runs each workload in its own child process, one at a time (see
``bench/child.py``), after timing a few set-up-only children for
``setup_s``.  Prints every metric with its unit and whether it is host
or simulated time, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are ``BENCHMARK.json``'s ``end_to_end`` set with
``--trace 0`` and its ``per_layer`` set with ``--trace 1``.  Exits
non-zero when a point fails its oracle, a cycle count disagrees between
passes or paths, or a child dies.  Host times are in reference-host
seconds (``bench/speed.py``).  Caches, run stores and temporary files
live under ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import ROOT
from bench.suite import WORKLOADS
from repro.obs.fleet import merge_fleet_trace

BENCHMARK = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"
# Set-up-only children started before each workload; with the measuring
# child's own set-up they give SETUP_CHILDREN + 1 samples of setup_s.
SETUP_CHILDREN = 2
SETUP_TIMEOUT_S = 60


class ChildError(RuntimeError):
    """A child process died or overran its time limit."""


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def kind(name: str) -> str:
    """Whether a metric is host time (or host work) or simulated."""
    if name == "sim_cycles_per_s":
        return "simulated per host second"
    simulated = name.startswith(("critpath.", "eval.speedup", "eval.paper")) \
        or (name.startswith("sim.")
            and not name.endswith(("_s", "_per_commit", "_per_cycle",
                                   "self_share")))
    return "simulated" if simulated else "host"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _child(args: list[str], result: Path, timeout: float,
           env: dict) -> dict:
    command = [sys.executable, "-m", "bench.child", *args,
               "--result", str(result),
               "--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{' '.join(args)}: over {timeout:.0f}s") from None
    if done.returncode != 0 or not result.is_file():
        raise ChildError(f"{' '.join(args)}: exit {done.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path, env: dict) -> dict:
    """Set-up-only children, then the measuring child; its result."""
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", repr(seconds), "--work-dir", str(run_dir)]
    setups = [
        _child([*common, "--setup-only"], run_dir / f"{name}-setup{i}.json",
               SETUP_TIMEOUT_S, env)
        for i in range(SETUP_CHILDREN)
    ]
    result = _child([*common, "--trace", str(int(trace))],
                    run_dir / f"{name}.json", 3 * seconds + 100, env)
    setups.append(result["setup"])
    result["setup_samples"] = [s["setup_s"] for s in setups]
    result["inputs_samples"] = [s["inputs_s"] for s in setups]
    result["end_to_end"]["setup_s"] = statistics.median(
        result["setup_samples"])
    result["per_layer"]["eval.inputs_s"] = statistics.median(
        result["inputs_samples"])
    return result


def cross_check(results: dict[str, dict]) -> tuple[int, list[str]]:
    """The Figure 10 sweep's 1x points must match the Figure 9 suite's.

    Both simulate the same inputs with the same settings: the sweep
    through the pool and the result cache, the suite in-process.
    Returns (checks made, failures).
    """
    suite, sweep = results.get("fig9-suite"), results.get("fig10-sweep")
    if suite is None or sweep is None or suite["seed"] != sweep["seed"]:
        return 0, []
    shared = sorted(suite["points"].keys() & sweep["points"].keys())
    failures = [
        f"{point}: {suite['points'][point]} cycles in fig9-suite, "
        f"{sweep['points'][point]} in fig10-sweep"
        for point in shared
        if suite["points"][point] != sweep["points"][point]
    ]
    return len(shared), failures


def metric_table(result: dict, catalog: dict) -> dict[str, dict]:
    """Every catalogued metric of one workload, with its unit and kind."""
    table = {}
    for group in ("end_to_end", "per_layer"):
        for entry in catalog[group]:
            name = entry["name"]
            if name not in result[group]:
                continue   # per-layer metrics exist only in traced runs
            table[name] = {"value": result[group][name],
                           "unit": entry["unit"], "group": group,
                           "kind": kind(name), "better": entry["better"]}
    return table


def print_report(name: str, result: dict, table: dict) -> None:
    walls = result["wall_samples"]
    q1, q3 = quartiles(walls)
    print(f"== {name}  seed {result['seed']}  {len(walls)} timed passes  "
          f"{result['attempted']} operations, {len(result['failures'])} "
          f"failed ==")
    print(f"  wall_s samples {[round(w, 4) for w in walls]}  "
          f"IQR {q3 - q1:.4f} s  n={len(walls)}")
    for metric, row in table.items():
        print(f"  {metric:34s} {row['value']:>14.6g} {row['unit']:10s} "
              f"{row['kind']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def chrome_trace(results: dict[str, dict]) -> dict:
    """The traced passes' spans (and sweep workers' jobs) as one trace."""
    rows, labels = [], {}
    for name, result in results.items():
        labels[result["pid"]] = f"bench {name}"
        rows.extend(result["fleet_rows"])
        rows.extend({
            "kind": "span", "name": span["name"], "pid": result["pid"],
            "start": span["start"], "end": span["start"] + span["dur"],
            "args": {"workload": name, "point": span["point"]},
        } for span in result["spans"])
    doc = merge_fleet_trace(rows)
    for event in doc["traceEvents"]:
        if event["ph"] == "M" and event["pid"] in labels:
            event["args"]["name"] = labels[event["pid"]]
    doc["otherData"]["layer_samples"] = {
        name: result["samples"] for name, result in results.items()
    }
    return doc


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative: {seed}")
    return seed


def main(argv: list[str] | None = None) -> int:
    catalog = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Run the benchmark of record (see bench/README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="input seed; 0 reproduces default_workloads()")
    parser.add_argument("--seconds", type=float,
                        default=catalog["run_seconds"],
                        help="timed-pass budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 ends each workload with a traced pass and "
                             "reports the per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="append every sample and metric of this run "
                             "to this file, as one JSON line")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced spans as Chrome trace JSON")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    (run_dir / "tmp").mkdir()
    # Keep every temporary file the program or its workers make inside
    # the checkout.
    env = {**os.environ, "TMPDIR": str(run_dir / "tmp")}
    results: dict[str, dict] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         trace, run_dir, env)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    checks, shared_failures = cross_check(results)
    attempted = checks + sum(r["attempted"] for r in results.values())
    failed = len(shared_failures) + sum(
        len(r["failures"]) for r in results.values())

    group = "per_layer" if trace else "end_to_end"
    tables = {name: metric_table(result, catalog)
              for name, result in results.items()}
    for name, result in results.items():
        print_report(name, result, tables[name])
    for failure in shared_failures:
        print(f"FAILED {failure}")
    print(f"error_rate {failed}/{attempted}")

    if args.out:
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "seed": args.seed, "seconds": args.seconds, "trace": trace,
                "attempted": attempted, "failed": failed,
                "failures": shared_failures,
                "workloads": {
                    name: {k: v for k, v in result.items()
                           if k not in ("spans", "fleet_rows")}
                    for name, result in results.items()
                },
            }, sort_keys=True) + "\n")
    if args.trace_out and trace:
        args.trace_out.write_text(json.dumps(chrome_trace(results)),
                                  encoding="utf-8")

    prefix = len(names) > 1
    metrics = {
        (f"{name}/{metric}" if prefix else metric):
            {"value": row["value"], "unit": row["unit"]}
        for name, table in tables.items()
        for metric, row in table.items() if row["group"] == group
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
