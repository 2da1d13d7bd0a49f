"""Regression detection: store series rules, rendering, CLI exit."""

import json

from repro.obs.regress import format_regressions, regress_store
from repro.obs.runstore import RunRecord, RunStore


def rec(cycles: int = 1000, run_id: str = "",
        app: str = "SPEC-BFS", kind: str = "simulate") -> RunRecord:
    return RunRecord(
        kind=kind, app=app, cycles=cycles, seconds=cycles * 5e-9,
        utilization=0.3, squash_fraction=0.01, verified=True,
        run_id=run_id, wall_seconds=1.0,
        platform={"bandwidth_scale": 1.0}, config_digest="cfg0",
    )


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

    def test_different_series_do_not_cross_talk(self):
        findings = regress_store([
            rec(1000, app="SPEC-BFS"), rec(5000, app="SPEC-SSSP"),
        ])
        assert findings == []

    def test_seeded_and_unseeded_runs_of_one_app(self):
        # `repro simulate APP` stores seed None; `--inject N` stores N.
        unseeded = rec(run_id="000001")
        seeded = rec(run_id="000002")
        seeded.seed = 3
        assert regress_store([unseeded, seeded]) == []
        assert regress_store([seeded, unseeded]) == []


def ledgered(run_id: str, dominant: str, cycles: int = 1000) -> RunRecord:
    record = rec(cycles, run_id=run_id)
    record.critical_path = {
        "dominant": dominant,
        "buckets": {dominant: record.cycles},
    }
    return record


class TestCritpathShift:
    def test_dominant_shift_warns(self):
        findings = regress_store([
            ledgered("a", "memory"),
            ledgered("b", "speculation"),
        ])
        shifts = [f for f in findings if f.rule == "critpath-shift"]
        assert len(shifts) == 1
        assert shifts[0].severity == "warn"
        assert "memory" in shifts[0].message
        assert "speculation" in shifts[0].message

    def test_stable_dominant_is_quiet(self):
        findings = regress_store([
            ledgered("a", "memory"),
            ledgered("b", "memory"),
        ])
        assert [f for f in findings if f.rule == "critpath-shift"] == []

    def test_unledgered_runs_are_skipped(self):
        findings = regress_store([
            ledgered("a", "memory"),
            rec(run_id="b"),
            ledgered("c", "memory"),
        ])
        assert [f for f in findings if f.rule == "critpath-shift"] == []


class TestRendering:
    def test_quiet_message(self):
        assert format_regressions([], "all clear") == "all clear"

    def test_fails_sort_before_warnings(self):
        records = [ledgered("000001", "memory"),
                   ledgered("000002", "speculation", cycles=1007)]
        text = format_regressions(regress_store(records))
        assert text.startswith("1 regression(s), 1 warning(s):")
        assert text.index("FAIL [cycle-drift]") \
            < text.index("warn [critpath-shift]")
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

    def test_unreadable_store_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "runs.jsonl").mkdir()   # exists, but cannot be read
        assert main(["regress", "--store", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
