"""Tests for the Chrome trace export and the observability CLI surface."""

import gc
import json

import pytest

from repro.apps.registry import build_app
from repro import cli
from repro.cli import main
from repro.core.rule import RuleVerdict
from repro.eval.platforms import EVAL_HARP, HARP
from repro.eval.workloads import default_workloads
from repro.obs import (
    EventTracer,
    Observability,
    StallReason,
    TraceEvent,
    TraceEventKind,
)
from repro.obs.tracer import DEFAULT_TRACE_CAPACITY
from repro.sim.accelerator import AcceleratorSim
from repro.substrates.graphs import random_graph

GRAPH = random_graph(200, 600, seed=7)


def _spec():
    return build_app("SPEC-BFS", GRAPH, 0)


def _observed_run(capacity=1 << 20):
    obs = Observability(trace_capacity=capacity)
    result = AcceleratorSim(_spec(), platform=HARP, obs=obs).run()
    return obs, result


# -- trace document schema ----------------------------------------------------


class TestChromeTraceSchema:
    def test_unit_export_covers_every_phase(self):
        # The tracer is fed through its probe handlers, as a run feeds it.
        tracer = EventTracer(capacity=64)
        tracer.on_firing(0, "s.alu")
        tracer.on_stall(1, "s.alu", StallReason.MEMORY, 1)
        tracer.on_activate(1, 0, "seed", -1, "bfs", 3)
        tracer.on_awaited(2, "s.rv", 0, "visit")
        tracer.on_load(2, 64, 8, False, 42)
        tracer.on_checkpoint(3, 1)
        doc = tracer.chrome_trace()
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C", "i"}
        assert all("ph" in e and "pid" in e for e in events)
        assert all("ts" in e for e in events if e["ph"] != "M")
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"active", "stall:memory"}
        assert all(e["dur"] == 1 for e in slices)
        # Both slices share the per-stage thread track.
        assert len({e["tid"] for e in slices}) == 1
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert "pipelines" in names and "checkpoint/rollback" in names

    def test_full_run_round_trips_through_json(self, tmp_path):
        obs, result = _observed_run()
        path = tmp_path / "trace.json"
        obs.tracer.write_chrome_trace(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == obs.tracer.chrome_trace()
        assert loaded["otherData"]["emitted"] == obs.tracer.emitted
        assert loaded["otherData"]["evicted"] == 0
        timestamps = [e["ts"] for e in loaded["traceEvents"]
                      if e["ph"] != "M"]
        assert timestamps and 0 <= min(timestamps)
        assert max(timestamps) < result.cycles

    def test_ring_bounds_trace_size(self):
        obs, _ = _observed_run(capacity=256)
        assert obs.tracer.evicted > 0
        doc = obs.tracer.chrome_trace()
        data_events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        # Each retained ring entry yields one or two trace events (a
        # primary plus at most one derived counter sample), so the ring
        # still bounds the trace size.
        assert 256 <= len(data_events) <= 2 * 256
        assert doc["otherData"]["evicted"] == obs.tracer.evicted


class TestCounterTracks:
    def test_rule_lane_counter_follows_promise_and_return(self):
        tracer = EventTracer(capacity=64)
        tracer.on_alloc(0, "s.alloc", 0, None, "visit", 1)
        tracer.on_alloc(1, "s.alloc", 1, None, "visit", 2)
        tracer.on_lane_free(5, "visit", RuleVerdict.CLAUSE, 1)
        events = tracer.chrome_trace()["traceEvents"]
        lanes = [e for e in events if e["name"] == "lanes:visit"]
        assert [e["args"]["lanes"] for e in lanes] == [1, 2, 1]
        assert all(e["ph"] == "C" for e in lanes)

    def test_qpi_outstanding_counter_reconstructed(self):
        tracer = EventTracer(capacity=64)
        tracer.on_store(0, 64)
        tracer.on_store(1, 64)
        tracer.on_mem_done(2)
        tracer.on_mem_done(3)
        # A complete with no issue in the ring (evicted) must clamp at 0.
        tracer.on_mem_done(4)
        events = tracer.chrome_trace()["traceEvents"]
        outstanding = [e["args"]["outstanding"] for e in events
                       if e["name"] == "qpi:outstanding"]
        assert outstanding == [1, 2, 1, 0, 0]

    def test_full_run_emits_all_three_counter_families(self):
        obs, _ = _observed_run()
        events = obs.tracer.chrome_trace()["traceEvents"]
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert any(name.startswith("queue:") for name in counters)
        assert any(name.startswith("lanes:") for name in counters)
        assert "qpi:outstanding" in counters
        # Occupancy counters never go negative.
        for event in events:
            if event["ph"] == "C":
                assert min(event["args"].values()) >= 0


class TestRingStorage:
    def test_slice_entries_are_untracked_and_events_match_the_trace(self):
        # SPEC-BFS at 8x bandwidth as `repro profile --trace-out` runs it:
        # its stage slices wrap the default 65,536-entry ring.
        spec = default_workloads(scale=0.5)["SPEC-BFS"].build_spec()
        obs = Observability(trace_capacity=DEFAULT_TRACE_CAPACITY)
        AcceleratorSim(spec, platform=EVAL_HARP.scaled(8.0), obs=obs).run()
        tracer = obs.tracer
        assert tracer.evicted > 0
        gc.collect()
        events = tracer.events()
        assert len(events) == len(tracer.ring) == tracer.capacity
        slice_kinds = (TraceEventKind.STAGE_FIRE, TraceEventKind.STAGE_STALL)
        slices = [(entry, event) for entry, event in zip(tracer.ring, events)
                  if event.kind in slice_kinds]
        assert slices
        # The collector traverses none of them.
        assert not any(gc.is_tracked(entry) for entry, _ in slices)

        assert all(type(event) is TraceEvent for event in events)
        assert all((event.reason is not None)
                   == (event.kind is TraceEventKind.STAGE_STALL)
                   for event in events)
        doc = tracer.chrome_trace()["traceEvents"]
        threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in doc
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert [(e["ts"], e["name"], threads[e["pid"], e["tid"]])
                for e in doc if e["ph"] == "X"] == [
            (event.cycle, "active" if event.reason is None
             else f"stall:{event.reason.value}", event.name)
            for _, event in slices]
        assert [(e["ts"], e["name"], e["args"]) for e in doc
                if e["ph"] == "i"] == [
            (event.cycle, event.kind.value, event.data or {})
            for event in events if event.kind not in slice_kinds
            and event.kind not in (TraceEventKind.TOKEN_ENQ,
                                   TraceEventKind.TOKEN_DEQ)]
        assert [(e["ts"], e["name"], e["args"]["occupancy"]) for e in doc
                if e["name"].startswith("queue:")] == [
            (event.cycle, f"queue:{event.name}", event.data["occupancy"])
            for event in events if event.kind in (TraceEventKind.TOKEN_ENQ,
                                                  TraceEventKind.TOKEN_DEQ)]


class TestDeterminism:
    def test_two_seeded_runs_emit_byte_identical_traces(self):
        first_obs, first = _observed_run()
        second_obs, second = _observed_run()
        assert first.cycles == second.cycles
        blob_a = json.dumps(first_obs.tracer.chrome_trace(), sort_keys=False)
        blob_b = json.dumps(second_obs.tracer.chrome_trace(), sort_keys=False)
        assert blob_a == blob_b
        assert first_obs.registry.snapshot() == second_obs.registry.snapshot()


# -- CLI ----------------------------------------------------------------------


class TestObservabilityCli:
    def test_profile_command(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "profile", "SPEC-CC", "--top", "4",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--store", str(tmp_path / "store"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "stall attribution over" in out
        assert "each row sums to total" in out
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert all("ph" in e and "pid" in e for e in doc["traceEvents"])
        snap = json.loads(metrics.read_text(encoding="utf-8"))
        assert snap["counters"]["sim.commits"] > 0
        assert "mem.load_latency" in snap["histograms"]

    def test_profile_rows_sum_to_total(self, capsys):
        assert main(["profile", "SPEC-CC", "--top", "5",
                     "--no-store"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header_idx = next(i for i, line in enumerate(lines)
                          if line.startswith("stall attribution over"))
        total_cycles = int(lines[header_idx].split()[3])
        rows = [line for line in lines[header_idx + 2:]
                if line and not line.startswith("...")]
        assert rows
        for row in rows:
            cells = row.split()
            assert int(cells[-1]) == total_cycles
            assert sum(int(c) for c in cells[1:-1]) == total_cycles

    def test_simulate_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "sim-trace.json"
        metrics = tmp_path / "sim-metrics.json"
        rc = main([
            "simulate", "SPEC-CC",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--store", str(tmp_path / "store"),
        ])
        assert rc == 0
        assert "VERIFIED" in capsys.readouterr().out
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        assert json.loads(metrics.read_text(encoding="utf-8"))["counters"]

    def test_fault_campaign_metrics_out(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.json"
        rc = main([
            "fault-campaign", "--apps", "SPEC-BFS", "--trials", "1",
            "--seed", "7", "--metrics-out", str(out_path),
            "--store", str(tmp_path / "store"),
        ])
        assert rc == 0
        assert "VERIFIED" in capsys.readouterr().out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["seed"] == 7
        assert len(payload["runs"]) == 1
        run = payload["runs"][0]
        assert run["app"] == "SPEC-BFS"
        assert run["metrics"]["counters"]["sim.commits"] > 0
        assert payload["aggregate"]["cycles"] == run["cycles"]


class TestRingAttachment:
    """A command attaches the trace ring exactly when ``--trace-out``
    exports it; storing or diagnosing a run never does."""

    @pytest.fixture
    def attached(self, monkeypatch):
        made = []

        def observability(*args, **kwargs):
            made.append(Observability(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "Observability", observability)
        return made

    @pytest.mark.parametrize("command", ["profile", "simulate", "critpath"])
    def test_trace_out_attaches_the_ring(self, command, attached, tmp_path,
                                         capsys):
        for exported in (False, True):
            attached.clear()
            args = [command, "SPEC-CC", "--no-store"]
            if command == "simulate":
                args += ["--metrics-out", str(tmp_path / "m.json")]
            if exported:
                args += ["--trace-out", str(tmp_path / "t.json")]
            assert main(args) == 0
            [obs] = attached
            assert (obs.tracer is not None) == exported, args

    @pytest.mark.parametrize("command", [
        ["diagnose", "SPEC-CC"],
        ["dashboard", "SPEC-CC", "--out", "dashboard.html"],
        ["simulate", "SPEC-CC"],
    ])
    def test_stored_and_diagnosed_runs_carry_no_ring(self, command, attached,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--store", str(tmp_path / "store")]) == 0
        [obs] = attached
        assert obs.tracer is None
