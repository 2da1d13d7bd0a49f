"""Fleet observability: span recording, trace merge, live progress."""

import io
import json
import os
import time

from repro.eval.platforms import HARP
from repro.exec import GraphAppSource, SimJob, SweepRunner
from repro.exec.chaos import find_dead_pid
from repro.obs.fleet import (
    SPANS_FILENAME,
    STATUS_FILENAME,
    FleetRecorder,
    SweepProgress,
    format_status,
    load_status,
    merge_fleet_trace,
    write_fleet_trace,
)
from repro.sim.accelerator import SimConfig


def grid_jobs(points: int = 8) -> list[SimJob]:
    """Distinct-digest jobs, enough of them to occupy several workers."""
    jobs = []
    for index in range(points):
        app = "SPEC-BFS" if index % 2 == 0 else "SPEC-SSSP"
        jobs.append(SimJob(
            source=GraphAppSource(
                app, 80, 240, seed=7 + index,
                start=0 if app == "SPEC-BFS" else None,
            ),
            platform=HARP,
            config=SimConfig(),
            tag=f"fleet:{app}#{index}",
        ))
    return jobs


class TestFleetTrace:
    def test_pool_sweep_merges_multi_worker_trace(self, tmp_path):
        fleet = FleetRecorder(tmp_path)
        runner = SweepRunner(jobs=4, fleet=fleet)
        runner.run(grid_jobs(8))

        doc = write_fleet_trace(tmp_path / "trace.json", fleet)
        reloaded = json.load(open(tmp_path / "trace.json"))
        assert reloaded["traceEvents"] == doc["traceEvents"]

        job_events = [e for e in doc["traceEvents"]
                      if e.get("cat") == "job"]
        assert len(job_events) == 8
        worker_pids = {e["pid"] for e in job_events}
        assert len(worker_pids) >= 2, "expected spans from >= 2 workers"
        assert os.getpid() not in worker_pids

        # Slice timestamps are monotonically ordered and all "X" events
        # carry the complete-event fields.
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all({"ts", "dur", "pid", "tid", "name"} <= set(e)
                   for e in slices)
        stamps = [e["ts"] for e in slices]
        assert stamps == sorted(stamps)

        # Job durations fit inside the sweep wall clock (with scheduler
        # slack), and the sweep-level span matches the report.
        wall_us = runner.report.wall_seconds * 1e6
        assert all(e["dur"] <= wall_us * 1.5 for e in job_events)
        sweep_events = [e for e in doc["traceEvents"]
                        if e.get("cat") == "fleet" and e["name"] == "sweep"]
        assert len(sweep_events) == 1
        assert sweep_events[0]["pid"] == os.getpid()
        assert sweep_events[0]["args"]["points"] == 8

        # Nested phase slices rode along from inside the workers.
        phase_names = {e["name"] for e in doc["traceEvents"]
                       if e.get("cat") == "phase"}
        assert "simulate" in phase_names
        assert "spec-rebuild" in phase_names

        assert sorted(doc["otherData"]["workers"]) == sorted(worker_pids)
        assert doc["otherData"]["sweeps"] != []

    def test_serial_sweep_records_spans_from_parent(self, tmp_path):
        fleet = FleetRecorder(tmp_path)
        SweepRunner(jobs=1, fleet=fleet).run(grid_jobs(2))
        doc = merge_fleet_trace(fleet)
        job_events = [e for e in doc["traceEvents"]
                      if e.get("cat") == "job"]
        assert len(job_events) == 2
        assert {e["pid"] for e in job_events} == {os.getpid()}
        # The parent is the master lane, so no separate workers remain.
        assert doc["otherData"]["workers"] == []

    def test_disabled_runner_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        SweepRunner(jobs=1).run(grid_jobs(1))
        assert not list(tmp_path.rglob(SPANS_FILENAME))

    def test_second_begin_appends_instead_of_truncating(self, tmp_path):
        fleet = FleetRecorder(tmp_path)
        runner = SweepRunner(jobs=1, fleet=fleet)
        runner.run(grid_jobs(1))
        runner.run(grid_jobs(2))
        doc = merge_fleet_trace(fleet)
        assert len(doc["otherData"]["sweeps"]) == 2
        job_events = [e for e in doc["traceEvents"]
                      if e.get("cat") == "job"]
        assert len(job_events) == 3

    def test_merge_tolerates_garbage_rows(self, tmp_path):
        path = tmp_path / SPANS_FILENAME
        rows = [
            {"kind": "meta", "t0": 100.0, "pid": 1, "sweep_id": "s"},
            {"kind": "job", "name": "a", "pid": 2,
             "start": 100.5, "end": 101.0},
            {"kind": "job", "name": "bad", "pid": 2, "start": "nope"},
            {"kind": "job", "name": "rev", "pid": 2,
             "start": 102.0, "end": 101.0},   # end < start -> clamped
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
            handle.write('{"torn')
        doc = merge_fleet_trace(path)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["a", "rev"]
        rev = [e for e in doc["traceEvents"] if e["name"] == "rev"][0]
        assert rev["dur"] == 0


class TestSweepProgress:
    def test_status_lifecycle(self, tmp_path):
        progress = SweepProgress(tmp_path)
        progress.begin("abc123", points=4, jobs=2, hits=1)
        status = load_status(tmp_path)
        assert status["state"] == "running"   # our own pid is alive
        assert status["done"] == 1 and status["points"] == 4

        progress.update(executed=2)
        status = load_status(tmp_path)
        assert status["done"] == 3   # hits + executed

        progress.finish("done")
        status = load_status(tmp_path)
        assert status["state"] == "done"
        assert "3/4 points" in format_status(status)
        assert "sweep id abc123" in format_status(status)

    def test_dead_pid_reads_as_crashed(self, tmp_path):
        progress = SweepProgress(tmp_path)
        progress.begin("dead99", points=8, jobs=4)
        # Rewrite the snapshot as if the writing process had vanished.
        raw = json.loads((tmp_path / STATUS_FILENAME).read_text())
        raw["pid"] = find_dead_pid()
        (tmp_path / STATUS_FILENAME).write_text(json.dumps(raw))
        status = load_status(tmp_path)
        assert status["state"] == "crashed"
        assert "--resume" in format_status(status)

    def test_heartbeat_stream_and_rootless_progress(self, tmp_path):
        stream = io.StringIO()
        progress = SweepProgress(tmp_path, heartbeat=True, stream=stream,
                                 interval=0.0)
        progress.begin("hb", points=2, jobs=1)
        progress.update(executed=2)
        progress.finish()
        text = stream.getvalue()
        assert "sweep running" in text
        assert "sweep done: 2/2 points, 0 cache hits, 2 simulated" in text
        assert text.endswith("\n")   # the final beat closes the line
        # A rootless progress (no store dir) only heartbeats.
        quiet = SweepProgress(None, heartbeat=False)
        quiet.begin("x", 1, 1)
        quiet.finish()

    def test_missing_and_corrupt_status(self, tmp_path):
        assert load_status(tmp_path) is None
        (tmp_path / STATUS_FILENAME).write_text("{not json")
        assert load_status(tmp_path) is None

    def test_runner_integration_updates_status(self, tmp_path):
        runner = SweepRunner(jobs=1, progress=SweepProgress(tmp_path))
        runner.run(grid_jobs(2))
        status = load_status(tmp_path)
        assert status["state"] == "done"
        assert status["executed"] == 2
        assert status["done"] == 2
        assert time.time() - status["updated"] < 60


class TestSweepStatusCli:
    def test_missing_status_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep-status", "--store", str(tmp_path)]) == 1
        assert "no sweep status" in capsys.readouterr().err

    def test_reports_finished_sweep(self, tmp_path, capsys):
        from repro.cli import main

        progress = SweepProgress(tmp_path)
        progress.begin("cli42", points=3, jobs=2, hits=3)
        progress.finish("done")
        assert main(["sweep-status", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep done" in out and "3/3 points" in out

        assert main(["sweep-status", "--store", str(tmp_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sweep_id"] == "cli42"
        assert doc["state"] == "done"
