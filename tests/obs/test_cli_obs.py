"""End-to-end tests for the run-store CLI surface.

``repro simulate`` appends records, ``repro runs list/show/diff``
queries them (including against golden baselines), ``repro diagnose``
reads findings off a stored critical path, and ``repro dashboard``
renders the HTML artifact.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.runstore import RunRecord, RunStore

GOLDEN_BFS = Path(__file__).parent.parent / "golden" / "bfs.json"


@pytest.fixture(scope="class")
def populated_store(tmp_path_factory):
    """A store holding SPEC-CC runs at 1x and 4x bandwidth."""
    store = tmp_path_factory.mktemp("obs-cli") / "store"
    assert main(["simulate", "SPEC-CC", "--store", str(store)]) == 0
    assert main(["simulate", "SPEC-CC", "--bandwidth", "4",
                 "--store", str(store)]) == 0
    return store


class TestRunStoreCli:
    def test_simulate_appends_valid_records(self, populated_store,
                                            capsys):
        lines = (populated_store / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["kind"] == "simulate"
        assert record["app"] == "SPEC-CC"
        assert record["verified"] is True
        assert record["stalls"] and record["timeline"]

    def test_runs_list(self, populated_store, capsys):
        assert main(["runs", "--store", str(populated_store),
                     "list"]) == 0
        out = capsys.readouterr().out
        assert "000001" in out and "000002" in out
        assert "SPEC-CC" in out

    def test_runs_show_latest(self, populated_store, capsys):
        assert main(["runs", "--store", str(populated_store),
                     "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "run 000002" in out
        assert "stall buckets" in out

    def test_runs_diff_two_runs(self, populated_store, capsys):
        assert main(["runs", "--store", str(populated_store),
                     "diff", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-bucket cycle deltas" in out
        assert "cycles:" in out

    def test_runs_diff_against_golden(self, populated_store, capsys):
        assert main(["runs", "--store", str(populated_store),
                     "diff", f"golden:{GOLDEN_BFS}", "latest"]) == 0
        out = capsys.readouterr().out
        assert "golden:" in out

    def test_runs_show_unknown_ref_fails(self, populated_store, capsys):
        assert main(["runs", "--store", str(populated_store),
                     "show", "424242"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_runs_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "--store", str(tmp_path / "none"),
                     "list"]) == 0
        assert "empty" in capsys.readouterr().out


@pytest.fixture(scope="class")
def diagnosed_store(tmp_path_factory):
    """A store holding one fresh `repro diagnose SPEC-CC` record."""
    store = tmp_path_factory.mktemp("obs-cli") / "store"
    assert main(["diagnose", "SPEC-CC", "--store", str(store)]) == 0
    return store


class TestDiagnoseCli:
    def test_diagnose_stored_run(self, diagnosed_store, capsys):
        assert main(["diagnose", "--run", "latest",
                     "--store", str(diagnosed_store)]) == 0
        out = capsys.readouterr().out
        assert "SPEC-CC:" in out
        assert "cycles" in out
        assert "1. [" in out and "path cycles" in out

    def test_diagnose_fresh_app_appends_to_store(self, diagnosed_store):
        record = json.loads(
            (diagnosed_store / "runs.jsonl").read_text().splitlines()[0]
        )
        assert record["kind"] == "diagnose"
        assert record["stalls"]
        # The run carried a ledger: its findings' path is stored.
        assert sum(record["critical_path"]["buckets"].values()) == \
            record["cycles"]

    def test_diagnose_simulate_record_fails(self, populated_store, capsys):
        # A stored `simulate` run carries no ledger, so no path to read.
        assert main(["diagnose", "--run", "latest",
                     "--store", str(populated_store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: run 000002 is a simulate record")
        assert "`repro diagnose APP` or `repro critpath APP`" in line

    def test_diagnose_without_target_fails(self, tmp_path, capsys):
        assert main(["diagnose", "--store",
                     str(tmp_path / "store")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_diagnose_missing_run_fails(self, tmp_path, capsys):
        assert main(["diagnose", "--run", "latest",
                     "--store", str(tmp_path / "none")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_diagnose_sweep_record_fails(self, tmp_path, capsys):
        # `experiment` and `dse` store a sweep-level record last; it has
        # no cycles, and its utilization is the workers' busy fraction.
        store = tmp_path / "store"
        RunStore(store).append(RunRecord(
            kind="sweep", app="SPEC-BFS", cycles=0, seconds=0.0,
            utilization=0.5, squash_fraction=0.0, verified=True,
            sim_mode="sweep",
        ))
        assert main(["diagnose", "--run", "latest",
                     "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and "sweep record" in line


class TestDashboardCli:
    def test_dashboard_from_store(self, populated_store, tmp_path,
                                  capsys):
        out_path = tmp_path / "dash.html"
        assert main(["dashboard", "--run", "latest",
                     "--store", str(populated_store),
                     "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "SPEC-CC" in html
        # Two bandwidth points stored -> the sweep chart renders.
        assert "speedup" in html
        # A stored simulate run has no path: the findings say so.
        assert "stored without a critical path" in html

    def test_dashboard_empty_store_fails(self, tmp_path, capsys):
        assert main(["dashboard", "--store", str(tmp_path / "none"),
                     "--out", str(tmp_path / "d.html")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_dashboard_simulates_app_when_given(self, tmp_path, capsys):
        store = tmp_path / "store"
        out_path = tmp_path / "dash.html"
        assert main(["dashboard", "SPEC-CC", "--store", str(store),
                     "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert (store / "runs.jsonl").exists()
        assert "path cycles" in out_path.read_text(encoding="utf-8")
