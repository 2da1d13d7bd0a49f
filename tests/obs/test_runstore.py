"""Tests for the cross-run telemetry store (repro.obs.runstore)."""

import json

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP
from repro.obs import Observability
from repro.obs.runstore import (
    RunRecord,
    RunStore,
    SCHEMA_VERSION,
    STALL_BUCKETS,
    config_digest,
    diff_records,
    golden_record,
    format_diff,
    format_record,
    format_records_table,
    record_from_result,
)
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.substrates.graphs import random_graph


def make_record(**overrides) -> RunRecord:
    base = dict(
        kind="simulate",
        app="SPEC-BFS",
        cycles=1000,
        seconds=5e-6,
        utilization=0.25,
        squash_fraction=0.01,
        verified=True,
        platform={"bandwidth_scale": 1.0, "qpi_bytes_per_cycle": 35.0},
        memory={"bytes": 10_000, "loads": 400, "hit_rate": 0.8},
        metrics={"counters": {"sim.commits": 500, "sim.squashes": 5,
                              "sim.guard_drops": 50}},
        stalls={
            "p.load": {"active": 300, "queue": 0, "memory": 500,
                       "rule": 0, "backpressure": 100, "idle": 100,
                       "total": 1000},
            "p.alu": {"active": 600, "queue": 50, "memory": 0,
                      "rule": 0, "backpressure": 250, "idle": 100,
                      "total": 1000},
        },
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_round_trips_through_dict(self):
        record = make_record(run_id="000007", seed=3)
        clone = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone == record

    def test_from_dict_ignores_unknown_keys(self):
        data = make_record().to_dict()
        data["added_in_schema_9"] = {"x": 1}
        assert RunRecord.from_dict(data).app == "SPEC-BFS"

    def test_stall_totals_aggregate_stages(self):
        totals = make_record().stall_totals()
        assert totals["active"] == 900
        assert totals["memory"] == 500
        assert totals["backpressure"] == 350
        assert totals["idle"] == 200
        assert "stalled" not in totals  # golden-only bucket dropped at 0

    def test_stage_stalled_sums_reasons(self):
        assert make_record().stage_stalled() == {
            "p.load": 600, "p.alu": 300,
        }

    def test_config_digest_is_stable(self):
        a = config_digest(SimConfig())
        assert a == config_digest(SimConfig())
        assert a != config_digest(SimConfig(prefetch=True))
        assert len(a) == 12


class TestRecordFromResult:
    @pytest.fixture(scope="class")
    def observed(self):
        spec = build_app("SPEC-BFS", random_graph(60, 150, seed=3), 0)
        obs = Observability()
        config = SimConfig()
        sim = AcceleratorSim(spec, platform=EVAL_HARP, config=config,
                             obs=obs)
        result = sim.run()
        names = [s.name for p in sim.pipelines for s in p.stages]
        return spec, config, result, names

    def test_observed_record_carries_stalls_and_timeline(self, observed):
        spec, config, result, names = observed
        record = record_from_result(
            "simulate", spec, result, platform=EVAL_HARP, config=config,
            stage_names=names, seed=11, wall_seconds=0.5,
        )
        assert record.schema == SCHEMA_VERSION
        assert record.app == "SPEC-BFS"
        assert record.app_mode == "speculative"
        assert not record.host_fed
        assert record.sim_mode == SimConfig().engine
        assert record.seed == 11
        assert record.config_digest == config_digest(config)
        assert set(record.stalls) == set(names)
        for row in record.stalls.values():
            parts = [row[b] for b in ("active",) + STALL_BUCKETS]
            assert sum(parts) + row["idle"] == result.cycles
        assert record.timeline["utilization"]
        assert record.metrics["counters"]["sim.commits"] > 0

    def test_unobserved_record_has_no_stalls(self, observed):
        spec, config, _, _ = observed
        result = AcceleratorSim(spec, platform=EVAL_HARP,
                                config=config).run()
        record = record_from_result(
            "simulate", spec, result, platform=EVAL_HARP, config=config,
        )
        assert record.stalls is None
        assert record.timeline is None
        assert record.metrics is not None  # registry exists without obs


class TestRunStore:
    def test_append_assigns_sequential_ids(self, tmp_path):
        store = RunStore(tmp_path / "s")
        first = store.append(make_record())
        second = store.append(make_record(app="SPEC-SSSP"))
        assert first.run_id == "000001"
        assert second.run_id == "000002"
        assert first.timestamp.endswith("Z")
        apps = [r.app for r in store.records()]
        assert apps == ["SPEC-BFS", "SPEC-SSSP"]

    def test_get_resolves_ids_indices_and_prefixes(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for app in ("A", "B", "C"):
            store.append(make_record(app=app))
        assert store.get("latest").app == "C"
        assert store.get("-2").app == "B"
        assert store.get("2").app == "B"       # zero-padding optional
        assert store.get("000001").app == "A"
        assert store.get("00000").app == "C"   # prefix: latest match
        with pytest.raises(KeyError):
            store.get("999")
        with pytest.raises(KeyError):
            store.get("-9")

    def test_get_on_empty_store_raises(self, tmp_path):
        with pytest.raises(KeyError):
            RunStore(tmp_path / "missing").get("latest")

    def test_corrupt_lines_and_future_schemas_are_skipped(self, tmp_path):
        store = RunStore(tmp_path / "s")
        store.append(make_record())
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('"a bare string"\n')
            future = make_record(app="FUTURE").to_dict()
            future["schema"] = SCHEMA_VERSION + 1
            handle.write(json.dumps(future) + "\n")
        store.append(make_record(app="AFTER"))
        assert [r.app for r in store.records()] == ["SPEC-BFS", "AFTER"]


class TestDiff:
    def test_diff_reports_bucket_and_counter_deltas(self):
        a = make_record(run_id="000001")
        b = make_record(
            run_id="000002", cycles=1200, utilization=0.30,
            metrics={"counters": {"sim.commits": 620, "sim.squashes": 5,
                                  "sim.guard_drops": 50}},
            stalls={
                "p.load": {"active": 300, "queue": 0, "memory": 700,
                           "rule": 0, "backpressure": 100, "idle": 100,
                           "total": 1200},
                "p.alu": {"active": 600, "queue": 50, "memory": 0,
                          "rule": 0, "backpressure": 450, "idle": 100,
                          "total": 1200},
            },
        )
        diff = diff_records(a, b)
        assert diff["cycles"]["delta"] == 200
        assert diff["utilization_delta"] == pytest.approx(0.05)
        assert diff["stall_buckets"]["memory"]["delta"] == 200
        assert diff["stage_movers"]["p.load"] == 200
        assert diff["counters"] == {"sim.commits": 120}
        text = format_diff(diff)
        assert "+200" in text and "sim.commits" in text

    def test_diff_reports_critical_path_shift(self):
        a = make_record(run_id="000001")
        b = make_record(run_id="000002")
        a.critical_path = {"dominant": "memory",
                           "buckets": {"memory": 800, "compute": 200}}
        b.critical_path = {"dominant": "speculation",
                           "buckets": {"speculation": 700,
                                       "compute": 300}}
        diff = diff_records(a, b)
        critpath = diff["critical_path"]
        assert critpath["dominant"] == {"a": "memory",
                                        "b": "speculation"}
        assert critpath["buckets"]["memory"]["delta"] == -800
        assert critpath["buckets"]["speculation"]["delta"] == 700
        text = format_diff(diff)
        assert "BOTTLENECK SHIFTED" in text

    def test_diff_without_ledgers_has_no_critical_path_block(self):
        diff = diff_records(make_record(run_id="000001"),
                            make_record(run_id="000002"))
        assert "critical_path" not in diff

    def test_diff_against_golden_with_mismatched_buckets(self):
        golden = golden_record({
            "app": "SPEC-BFS", "scenario": "bfs", "cycles": 950,
            "bandwidth_scale": 1.0,
            "stats": {
                "commits": 480,
                "per_stage_active": {"p.load": 280, "p.alu": 590},
                "per_stage_stalls": {"p.load": 590, "p.alu": 290},
            },
        })
        assert golden.run_id == "golden:bfs"
        assert golden.stall_totals()["stalled"] == 880
        diff = diff_records(golden, make_record())
        # Key sets differ (golden has "stalled", live has the split
        # reasons) — the union must not KeyError and both sides render.
        assert diff["stall_buckets"]["stalled"]["b"] == 0
        assert diff["stall_buckets"]["memory"]["a"] == 0
        format_diff(diff)

    def test_real_golden_fixture_adapts(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "golden" / "bfs.json"
        record = golden_record(json.loads(path.read_text()))
        assert record.kind == "golden"
        assert record.cycles > 0
        assert record.metrics["counters"]["sim.commits"] > 0
        assert record.stall_totals()["stalled"] > 0


class TestFormatting:
    def test_records_table_lists_every_run(self):
        text = format_records_table([
            make_record(run_id="000001", timestamp="2026-01-01T00:00:00Z"),
            make_record(run_id="000002", app="COOR-LU", verified=False),
        ])
        assert "000001" in text and "COOR-LU" in text
        assert "NO" in text  # unverified flagged

    def test_empty_table(self):
        assert "empty" in format_records_table([])

    def test_show_includes_stall_buckets_and_extra(self):
        record = make_record(
            run_id="000003", host_fed=True,
            extra={"resilient": {"rollbacks": 2}},
        )
        text = format_record(record)
        assert "host-fed" in text
        assert "memory=500" in text
        assert "rollbacks" in text
