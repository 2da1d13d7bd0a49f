"""bench.compare: pairing and the better/worse/unchanged/unresolved rule."""

from __future__ import annotations

import json

from bench.compare import compare, verdict


def test_a_clear_gain_is_better():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    change = [x * 0.8 for x in parent]
    assert verdict(parent, change, 0.1, lower_is_better=True) \
        == ("better", 1.0)


def test_higher_is_better_metrics_flip_the_sign():
    parent = [100.0 + i for i in range(10)]
    change = [80.0 + i for i in range(10)]
    assert verdict(parent, change, 0.1, lower_is_better=False)[0] == "worse"


def test_identical_counts_are_unchanged_and_any_change_is_worse():
    assert verdict([5.0] * 4, [5.0] * 4, 0.0, True) == ("unchanged", 0.0)
    assert verdict([5.0] * 4, [6.0] * 4, 0.0, True)[0] == "worse"
    # Per seed the counts differ; pair by pair they do not.
    assert verdict([5.0, 9.0, 7.0], [5.0, 9.0, 7.0], 0.0, True)[0] \
        == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0]
    change = [11.0, 13.0, 9.0, 12.5, 9.5, 14.0]
    assert verdict(parent, change, 0.1, True)[0] == "unresolved"


def test_a_small_worsening_within_the_bound_is_unchanged():
    parent = [10.0, 10.05, 9.95, 10.0]
    change = [10.3, 10.35, 10.25, 10.3]
    assert verdict(parent, change, 0.1, True)[0] == "unchanged"


def _append(path, seed, wall):
    run = {"workloads": {"lowbw-graph": {
        "seed": seed, "end_to_end": {"wall_s": wall},
        "per_layer": {"sim.cycles": 103804},
    }}}
    with path.open("a") as handle:
        handle.write(json.dumps(run) + "\n")


def test_compare_pairs_runs_by_seed_and_flags_regressions(tmp_path):
    for seed in range(10):
        _append(tmp_path / "a.jsonl", seed, 7.0 + 0.01 * seed)
        _append(tmp_path / "b.jsonl", seed, 9.0 + 0.01 * seed)
    rows, regressed = compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["wall_s"]["verdict"] == "worse"
    assert by_metric["wall_s"]["pairs"] == 10
    assert by_metric["sim.cycles"]["verdict"] == "unchanged"
    assert regressed
