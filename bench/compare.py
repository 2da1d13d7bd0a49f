"""Compare two sets of benchmark results: ``python3 -m bench.compare A B``.

``A`` holds the parent commit's ``bench.run --out`` runs and ``B`` the
change's (each a file, one run per line, or a directory of such files),
made by alternating the two sides with the same seeds, ``--seconds`` and
settings.  Runs pair up by workload and seed, in the order they were
written.  For every workload and metric the comparison prints each
side's median and quartiles, the share of pairs the change won (ties
count for neither side), and a verdict:

* ``better`` — the change won at least nine pairs in ten and its median
  beats the parent's by more than the parent's own quartile spread;
* ``unresolved`` — the parent's own spread is wider than the metric's
  bound, so a worsening within that spread cannot be ruled out (unless
  every run of the change beat every run of the parent: ``better``);
* ``worse`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes (0 for per-layer metrics);
* ``unchanged`` — none of the above, or every pair reads the same.

Exits 1 when an end-to-end metric is ``worse`` on any workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench.run import load_benchmark, quartiles


def load_runs(path: Path) -> dict[tuple[str, int], list[dict[str, float]]]:
    """Each run's metrics under ``path``, by (workload, seed), in order.

    ``path`` is a ``bench.run --out`` file (one run per line) or a
    directory of them.
    """
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    runs: dict[tuple[str, int], list[dict[str, float]]] = {}
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            for name, result in json.loads(line)["workloads"].items():
                runs.setdefault((name, result["seed"]), []).append(
                    {**result["end_to_end"], **result["per_layer"]})
    return runs


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    if all(a == b for a, b in pairs):
        # A count the seed moves but the change does not.
        return "unchanged", 0.0
    wins = sum(sign * (a - b) > 0 for a, b in pairs) / len(pairs)
    a_med, b_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(a_med) if a_med else 0.0
    gain = sign * (a_med - b_med)
    if wins >= 0.9 and gain > q3 - q1:
        return "better", wins
    if spread > bound:
        beats_all = (max(change) < min(parent) if lower_is_better
                     else min(change) > max(parent))
        return ("better" if beats_all else "unresolved"), wins
    if a_med:
        worsening = -gain / abs(a_med)
    else:
        worsening = 0.0 if b_med == a_med else float("inf")
    return ("worse" if worsening > bound else "unchanged"), wins


def compare(parent_path: Path,
            change_path: Path) -> tuple[list[dict], bool]:
    """One row per workload and metric; True when an end-to-end is worse."""
    catalog = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in catalog["end_to_end"] + catalog["per_layer"]}
    parent, change = load_runs(parent_path), load_runs(change_path)
    series: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for key in sorted(parent.keys() & change.keys()):
        for a, b in zip(parent[key], change[key]):
            for metric in a.keys() & b.keys():
                pair = series.setdefault((key[0], metric), ([], []))
                pair[0].append(a[metric])
                pair[1].append(b[metric])
    rows, regressed = [], False
    for (workload, metric), (a, b) in sorted(series.items()):
        if metric not in better:
            continue
        outcome, wins = verdict(a, b, bounds.get(metric, 0.0),
                                better[metric] == "lower")
        regressed |= outcome == "worse" and metric in bounds
        rows.append({
            "workload": workload, "metric": metric, "pairs": len(a),
            "parent": (statistics.median(a), *quartiles(a)),
            "change": (statistics.median(b), *quartiles(b)),
            "wins": wins, "verdict": outcome,
        })
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows, regressed = compare(args.parent, args.change)

    def cell(stats: tuple[float, float, float]) -> str:
        return f"{stats[0]:.6g} [{stats[1]:.6g}, {stats[2]:.6g}]"

    print(f"{'workload':18s} {'metric':32s} {'n':>3s} "
          f"{'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
          f"{'won':>5s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:32s} {row['pairs']:3d} "
              f"{cell(row['parent']):>36s} {cell(row['change']):>36s} "
              f"{row['wins']:5.0%}  {row['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
