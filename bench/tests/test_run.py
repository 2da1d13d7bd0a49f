"""bench.run: its correctness checks, exit code and output contract."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

from bench import ROOT, child, measure, run, suite
from bench.suite import WORKLOADS, Recorder


def _in_process(args, result, timeout, env):
    """run._child without the subprocess, so monkeypatches reach it."""
    assert child.main([*args, "--result", str(result),
                       "--spawned-at", repr(time.monotonic())]) == 0
    return json.loads(result.read_text(encoding="utf-8"))


def _last_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_check_cycles_flags_a_changed_count():
    passes = [Recorder(), Recorder(), Recorder()]
    for rec, cycles in zip(passes, (100, 100, 101)):
        rec.points["SPEC-MST@1x"] = {"cycles": cycles}
    checks, failures = measure.check_cycles(passes)
    assert checks == 2
    assert failures == ["SPEC-MST@1x: 101 cycles in pass 2, 100 in pass 0"]


def test_cross_check_compares_the_sweep_with_the_suite():
    results = {
        "fig9-suite": {"seed": 0, "points": {"COOR-LU@1x": 36499,
                                             "SPEC-MST@1x": 10856}},
        "fig10-sweep": {"seed": 0, "points": {"COOR-LU@1x": 36500,
                                              "COOR-LU@2x": 18329}},
        # Another scale and config: a point of the same name is no match.
        "critpath-observed": {"seed": 0, "points": {"SPEC-MST@1x": 4877}},
    }
    checks, failures = run.cross_check(results)
    assert checks == 1
    assert failures == ["COOR-LU@1x: 36499 cycles in fig9-suite, "
                        "36500 in fig10-sweep"]
    results["fig10-sweep"]["seed"] = 1
    assert run.cross_check(results) == (0, [])


def test_a_tampered_cycle_count_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "_child", _in_process)
    real, calls = suite.point_record, itertools.count()

    def tampered(run_, stats):
        counts = real(run_, stats)
        # Four simulations per pass: this is the timed pass's first.
        if next(calls) == 4:
            counts["cycles"] += 1
        return counts

    monkeypatch.setattr(suite, "point_record", tampered)
    code = run.main(["--workload", "critpath-observed", "--seconds", "0",
                     "--trace", "0"])
    out = capsys.readouterr().out
    assert code != 0
    result = _last_line(out)
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED SPEC-BFS@8x" in out


def test_metrics_match_the_catalogue(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "_child", _in_process)
    catalog = run.load_benchmark()
    assert [(w["name"], w["why"]) for w in catalog["workloads"]] \
        == [(name, cls.why) for name, cls in WORKLOADS.items()]
    out_file, trace_file = tmp_path / "out.jsonl", tmp_path / "trace.json"
    assert run.main(["--workload", "critpath-observed", "--seconds", "0",
                     "--trace", "1", "--out", str(out_file),
                     "--trace-out", str(trace_file)]) == 0
    result = _last_line(capsys.readouterr().out)
    assert {(name, m["unit"]) for name, m in result["metrics"].items()} \
        == {(m["name"], m["unit"]) for m in catalog["per_layer"]}
    saved = json.loads(out_file.read_text())["workloads"]["critpath-observed"]
    assert set(saved["end_to_end"]) \
        == {m["name"] for m in catalog["end_to_end"]}
    shares = [value for name, value in saved["per_layer"].items()
              if name.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    trace = json.loads(trace_file.read_text())
    spans = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"build", "construct", "run", "verify", "critpath", "record",
            "store"} <= spans


def test_command_prints_the_contract_json_last():
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "critpath-observed",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    catalog = run.load_benchmark()
    assert {(name, m["unit"]) for name, m in result["metrics"].items()} \
        == {(m["name"], m["unit"]) for m in catalog["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".bench_work").exists()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "fig9-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
