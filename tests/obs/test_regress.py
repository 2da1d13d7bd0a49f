"""Regression detection: store series rules, bench gates, CLI exit."""

import copy
import importlib.util
import json
from pathlib import Path

from repro.obs.regress import (
    format_regressions,
    regress_bench,
    regress_store,
)
from repro.obs.runstore import RunRecord, RunStore


def rec(cycles: int = 1000, wall: float = 1.0, run_id: str = "",
        app: str = "SPEC-BFS", kind: str = "simulate") -> RunRecord:
    return RunRecord(
        kind=kind, app=app, cycles=cycles, seconds=cycles * 5e-9,
        utilization=0.3, squash_fraction=0.01, verified=True,
        run_id=run_id, wall_seconds=wall,
        platform={"bandwidth_scale": 1.0}, config_digest="cfg0",
    )


def sweep_rec(points_per_sec: float) -> RunRecord:
    return RunRecord(
        kind="sweep", app="SPEC-BFS", cycles=0, seconds=0.0,
        utilization=0.9, squash_fraction=0.0, verified=True,
        sim_mode="sweep", wall_seconds=1.0,
        extra={"command": "experiment:figure10",
               "sweep": {"jobs": 2, "points_per_sec": points_per_sec}},
    )


BENCH = {
    "points": {"SPEC-BFS@1x": 3614, "SPEC-SSSP@1x": 5120},
    "runs": {"SPEC-BFS": {"cycles": 3614, "wall_seconds": 0.4}},
    "engines": {
        "eval": {"SPEC-BFS": {"cycles": 3614, "event_speedup": 2.0}},
    },
    "sweep": {
        "n_points": 8,
        "workers": 2,
        "parallel_speedup": 1.6,
        "serial": {"wall_seconds": 2.0, "points_per_sec": 4.0},
        "parallel": {"wall_seconds": 1.25, "points_per_sec": 6.4},
        "warm_cache": {"wall_seconds": 0.1, "points_per_sec": 80.0,
                       "hit_rate": 1.0},
    },
    "ledger": {
        "SPEC-BFS": {
            "cycles": 3614,
            "off": {"cycles": 3614, "wall_seconds": 0.4},
            "on": {"cycles": 3614, "wall_seconds": 0.5},
            "overhead": 1.25,
        },
    },
}


class TestStoreRules:
    def test_identical_series_is_quiet_and_idempotent(self):
        records = [rec(run_id=f"{i:06d}") for i in range(4)]
        first = regress_store(records)
        second = regress_store(records)
        assert first == [] and second == []

    def test_cycle_drift_fails(self):
        records = [rec(1000, run_id="000001"),
                   rec(1200, run_id="000002")]   # +20% injected drift
        findings = regress_store(records)
        assert [f.rule for f in findings] == ["cycle-drift"]
        assert findings[0].severity == "fail"
        assert "000001" in findings[0].message
        assert "+20.0%" in findings[0].message

    def test_wall_clock_warns_outside_band_only(self):
        base = [rec(wall=1.0, run_id=f"{i:06d}") for i in range(3)]
        noisy = regress_store(base + [rec(wall=2.0, run_id="000004")])
        assert [f.rule for f in noisy] == ["wall-clock"]
        assert noisy[0].severity == "warn"
        quiet = regress_store(base + [rec(wall=1.2, run_id="000004")])
        assert quiet == []
        # Thin series never warn, whatever the wall clock did.
        thin = regress_store([rec(wall=1.0), rec(wall=9.0)])
        assert thin == []

    def test_different_series_do_not_cross_talk(self):
        findings = regress_store([
            rec(1000, app="SPEC-BFS"), rec(5000, app="SPEC-SSSP"),
        ])
        assert findings == []

    def test_sweep_throughput_warns(self):
        runs = [sweep_rec(10.0), sweep_rec(10.0), sweep_rec(10.0),
                sweep_rec(2.0)]
        findings = regress_store(runs)
        assert [f.rule for f in findings] == ["points-per-sec"]
        assert findings[0].severity == "warn"
        assert regress_store(runs[:-1] + [sweep_rec(9.0)]) == []


class TestBenchGates:
    def test_identical_documents_are_quiet(self):
        assert regress_bench(copy.deepcopy(BENCH), BENCH) == []

    def test_cycle_drift_anywhere_fails(self):
        current = copy.deepcopy(BENCH)
        current["points"]["SPEC-BFS@1x"] += 1
        current["engines"]["eval"]["SPEC-BFS"]["cycles"] -= 5
        rules = [f.rule for f in regress_bench(current, BENCH)]
        assert rules == ["cycle-drift", "cycle-drift"]

    def test_missing_entry_fails(self):
        current = copy.deepcopy(BENCH)
        del current["points"]["SPEC-SSSP@1x"]
        del current["engines"]["eval"]["SPEC-BFS"]
        findings = regress_bench(current, BENCH)
        assert all(f.rule == "cycle-drift" and f.severity == "fail"
                   for f in findings)
        assert len(findings) == 2

    def test_speedup_floor_is_multiplicative(self):
        current = copy.deepcopy(BENCH)
        current["engines"]["eval"]["SPEC-BFS"]["event_speedup"] = 1.61
        assert regress_bench(current, BENCH) == []   # above 2.0 * 0.8
        current["engines"]["eval"]["SPEC-BFS"]["event_speedup"] = 1.59
        findings = regress_bench(current, BENCH)
        assert [f.rule for f in findings] == ["speedup-floor"]

    def test_sweep_gates(self):
        current = copy.deepcopy(BENCH)
        current["sweep"]["warm_cache"]["hit_rate"] = 0.5
        current["sweep"]["parallel_speedup"] = 0.9   # below 1.6 * 0.65
        current["sweep"]["serial"]["wall_seconds"] = 4.0
        rules = {f.rule: f.severity
                 for f in regress_bench(current, BENCH)}
        assert rules == {"hit-rate": "fail", "speedup-floor": "fail",
                         "points-per-sec": "warn"}


class TestLedgerGates:
    def test_off_cycle_drift_fails(self):
        current = copy.deepcopy(BENCH)
        current["ledger"]["SPEC-BFS"]["cycles"] += 1
        findings = regress_bench(current, BENCH)
        assert [(f.rule, f.severity) for f in findings] \
            == [("cycle-drift", "fail")]

    def test_on_vs_off_divergence_fails(self):
        current = copy.deepcopy(BENCH)
        current["ledger"]["SPEC-BFS"]["on"]["cycles"] += 3
        findings = regress_bench(current, BENCH)
        assert [(f.rule, f.severity) for f in findings] \
            == [("cycle-drift", "fail")]
        assert "perturbed" in findings[0].message

    def test_missing_app_fails(self):
        current = copy.deepcopy(BENCH)
        del current["ledger"]["SPEC-BFS"]
        findings = regress_bench(current, BENCH)
        assert [(f.rule, f.severity) for f in findings] \
            == [("cycle-drift", "fail")]

    def test_wall_and_overhead_warn_outside_band_only(self):
        current = copy.deepcopy(BENCH)
        current["ledger"]["SPEC-BFS"]["off"]["wall_seconds"] = 0.5
        current["ledger"]["SPEC-BFS"]["overhead"] = 1.5
        assert regress_bench(current, BENCH) == []  # inside 50% band
        current["ledger"]["SPEC-BFS"]["off"]["wall_seconds"] = 0.7
        current["ledger"]["SPEC-BFS"]["overhead"] = 2.0
        findings = regress_bench(current, BENCH)
        assert [(f.rule, f.severity) for f in findings] \
            == [("wall-clock", "warn"), ("wall-clock", "warn")]


class TestCritpathShift:
    def _ledgered(self, run_id, dominant):
        record = rec(run_id=run_id)
        record.critical_path = {
            "dominant": dominant,
            "buckets": {dominant: record.cycles},
        }
        return record

    def test_dominant_shift_warns(self):
        findings = regress_store([
            self._ledgered("a", "memory"),
            self._ledgered("b", "speculation"),
        ])
        shifts = [f for f in findings if f.rule == "critpath-shift"]
        assert len(shifts) == 1
        assert shifts[0].severity == "warn"
        assert "memory" in shifts[0].message
        assert "speculation" in shifts[0].message

    def test_stable_dominant_is_quiet(self):
        findings = regress_store([
            self._ledgered("a", "memory"),
            self._ledgered("b", "memory"),
        ])
        assert [f for f in findings if f.rule == "critpath-shift"] == []

    def test_unledgered_runs_are_skipped(self):
        findings = regress_store([
            self._ledgered("a", "memory"),
            rec(run_id="b"),
            self._ledgered("c", "memory"),
        ])
        assert [f for f in findings if f.rule == "critpath-shift"] == []


class TestRendering:
    def test_quiet_message(self):
        assert format_regressions([], "all clear") == "all clear"

    def test_fails_sort_before_warnings(self):
        current = copy.deepcopy(BENCH)
        current["sweep"]["serial"]["wall_seconds"] = 4.0
        current["points"]["SPEC-BFS@1x"] += 7
        text = format_regressions(regress_bench(current, BENCH))
        assert text.startswith("1 regression(s), 1 warning(s):")
        assert text.index("FAIL [cycle-drift]") \
            < text.index("warn [points-per-sec]")
        assert "->" in text   # diagnosis lines ride along


class TestCli:
    def seeded_store(self, tmp_path, cycles_last: int) -> RunStore:
        store = RunStore(tmp_path)
        for cycles in (1000, 1000, cycles_last):
            store.append(rec(cycles))
        return store

    def test_quiet_store_twice_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        self.seeded_store(tmp_path, 1000)
        for _ in range(2):
            assert main(["regress", "--store", str(tmp_path)]) == 0
            assert "no regressions found" in capsys.readouterr().out

    def test_injected_drift_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        self.seeded_store(tmp_path, 1200)
        assert main(["regress", "--store", str(tmp_path)]) == 1
        assert "FAIL [cycle-drift]" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        from repro.cli import main

        self.seeded_store(tmp_path, 1200)
        assert main(["regress", "--store", str(tmp_path),
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["fails"] == 1
        assert doc["findings"][0]["rule"] == "cycle-drift"

    def test_bench_mode(self, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BENCH))
        current = copy.deepcopy(BENCH)
        cur.write_text(json.dumps(current))
        assert main(["regress", "--bench", str(cur), str(base)]) == 0
        capsys.readouterr()
        current["points"]["SPEC-BFS@1x"] += 1
        cur.write_text(json.dumps(current))
        assert main(["regress", "--bench", str(cur), str(base)]) == 1

    def test_unreadable_bench_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["regress", "--bench", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestBenchCheckScript:
    def load(self):
        path = Path(__file__).resolve().parents[2] / "scripts" \
            / "bench_check.py"
        spec = importlib.util.spec_from_file_location("bench_check", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_passes_on_identical_documents(self, tmp_path, capsys):
        bench_check = self.load()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BENCH))
        cur.write_text(json.dumps(BENCH))
        assert bench_check.main([str(cur), str(base)]) == 0
        out = capsys.readouterr().out
        assert "benchmark check passed" in out
        assert "— OK" in out

    def test_fails_on_drift(self, tmp_path, capsys):
        bench_check = self.load()
        current = copy.deepcopy(BENCH)
        current["runs"]["SPEC-BFS"]["cycles"] += 3
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(BENCH))
        cur.write_text(json.dumps(current))
        assert bench_check.main([str(cur), str(base)]) == 1
        captured = capsys.readouterr()
        assert "FAIL runs[SPEC-BFS]" in captured.err
        assert "benchmark check passed" not in captured.out
