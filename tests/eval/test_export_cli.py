"""Tests for JSON export and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.eval.export import export_all, table1_to_dict
from repro.eval.experiments import run_figure9, run_table1
from repro.eval.workloads import default_workloads


@pytest.fixture(scope="module")
def small_table1():
    return run_table1(width=14, height=4, seed=1)


class TestExport:
    def test_table1_dict(self, small_table1):
        data = table1_to_dict(small_table1)
        assert data["seconds"]["OpenCL"] > 0
        assert data["ratios"]["opencl_vs_spec"] > 1
        assert data["paper_seconds"]["OpenCL"] == 124.1

    def test_export_all_writes_json(self, small_table1, tmp_path):
        workloads = default_workloads(scale=0.3)
        figure9 = run_figure9(apps=("COOR-LU",), workloads=workloads)
        path = export_all(tmp_path / "out.json", table1=small_table1,
                          figure9=figure9)
        document = json.loads(path.read_text())
        assert document["paper"].startswith("Li et al.")
        assert "table1" in document
        assert "COOR-LU" in document["figure9"]["rows"]

    def test_partial_export(self, tmp_path):
        path = export_all(tmp_path / "empty.json")
        document = json.loads(path.read_text())
        assert "table1" not in document


class TestExperimentRecords:
    """Experiment results adapt into run-store records (same schema)."""

    def test_figure10_series_becomes_per_bandwidth_records(self):
        from repro.eval.experiments import Figure10Point, Figure10Series
        from repro.eval.export import experiment_records
        from repro.eval.platforms import EVAL_HARP

        series = Figure10Series("SPEC-BFS", points=[
            Figure10Point(1.0, 1e-3, 1.0, 0.30, 0.01),
            Figure10Point(8.0, 5e-4, 2.0, 0.35, 0.02),
        ])
        records = experiment_records(figure10={"SPEC-BFS": series})
        assert [r.platform["bandwidth_scale"] for r in records] == \
            [1.0, 8.0]
        assert all(r.kind == "experiment" for r in records)
        assert records[0].cycles == int(round(1e-3 * EVAL_HARP.clock_hz))
        assert records[1].extra["speedup_over_baseline"] == 2.0
        # Scaled platform facts are captured per point.
        assert records[1].platform["qpi_bytes_per_cycle"] == \
            pytest.approx(8 * records[0].platform["qpi_bytes_per_cycle"])

    def test_table1_figure9_and_resources_adapt(self, small_table1):
        from repro.eval.experiments import (
            Figure9Result, Figure9Row, ResourceRow,
        )
        from repro.eval.export import experiment_records

        figure9 = Figure9Result(rows={
            "COOR-LU": Figure9Row("COOR-LU", 0.002, 0.006, 0.003, 0.1),
        })
        resources = {"SPEC-BFS": ResourceRow("SPEC-BFS", 8, 32, 0.07,
                                             0.2, 0.4, 0.05)}
        records = experiment_records(
            table1=small_table1, figure9=figure9, resources=resources,
        )
        kinds = [r.extra["experiment"] for r in records]
        assert kinds == ["table1", "table1", "figure9", "resources"]
        assert records[2].extra["speedup_vs_1core"] == 3.0
        assert records[3].cycles == 0  # structural row, no timing

    def test_store_experiment_results_appends(self, tmp_path):
        from repro.eval.experiments import Figure10Point, Figure10Series
        from repro.eval.export import store_experiment_results
        from repro.obs.runstore import RunStore

        store = RunStore(tmp_path / "store")
        series = Figure10Series("X", points=[
            Figure10Point(1.0, 1e-3, 1.0, 0.1, 0.0),
        ])
        count = store_experiment_results(store, figure10={"X": series})
        assert count == 1
        records = store.records()
        assert records[0].run_id == "000001"
        assert records[0].app == "X"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SPEC-BFS" in out
        assert "COOR-LU" in out

    def test_rules(self, capsys):
        assert main(["rules", "SPEC-SSSP"]) == 0
        out = capsys.readouterr().out
        assert "rule relax_conflict" in out
        assert "otherwise" in out

    def test_run(self, capsys):
        assert main(["run", "SPEC-CC", "--workers", "4"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_simulate_with_trace(self, capsys):
        code = main([
            "simulate", "SPEC-CC", "--trace", "--trace-cycles", "200",
            "--trace-width", "40", "--no-store",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "#" in out  # the timeline

    def test_resilient_simulate_prints_the_same_timeline(self, capsys):
        # The schedule tracer rides through run_resilient like obs does;
        # the timeline is read from the finishing simulator.
        flags = ["--trace", "--trace-cycles", "300", "--no-store"]
        assert main(["simulate", "SPEC-CC", *flags]) == 0
        plain = capsys.readouterr().out
        assert main(["simulate", "SPEC-CC", "--resilient", *flags]) == 0
        resilient = capsys.readouterr().out
        timeline = plain[plain.index("\n\n"):]
        assert "#" in timeline
        assert "(no activity recorded)" not in resilient
        assert resilient.endswith(timeline)

    def test_simulate_with_prefetch(self, capsys):
        assert main(["simulate", "SPEC-CC", "--prefetch",
                     "--no-store"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_event_is_the_default_engine(self, capsys):
        outputs = []
        for flags in ([], ["--engine", "event"], ["--engine", "dense"]):
            assert main(["simulate", "SPEC-BFS", *flags, "--no-store"]) == 0
            outputs.append(capsys.readouterr().out)
        default, event, dense = outputs
        assert default == event
        assert "event engine:" in default
        # The dense oracle prints the same run, minus the skip summary.
        assert [line for line in default.splitlines()
                if not line.startswith("event engine:")] == \
            dense.splitlines()

    def test_removed_fast_engine_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "SPEC-BFS", "--engine", "fast", "--no-store"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "SPEC-BFS", "--bandwidth", "0"],
        ["simulate", "SPEC-BFS", "--bandwidth", "-1"],
        ["simulate", "SPEC-BFS", "--trace", "--trace-width", "0"],
        ["profile", "SPEC-BFS", "--trace-capacity", "0"],
        ["profile", "SPEC-BFS", "--top", "-3"],
        ["critpath", "SPEC-BFS", "--top", "-1"],
        ["cache", "prune", "--max-entries", "-1"],
        ["fault-campaign", "--checkpoint-interval", "0"],
        ["run", "SPEC-BFS", "--workers", "0"],
        ["dse", "SPEC-BFS", "--lanes", "16", "0"],
        ["experiment", "figure10", "--scale", "-1"],
    ], ids=" ".join)
    def test_non_positive_numbers_are_usage_errors(self, capsys, argv):
        # Rejected while parsing: nothing runs and no store is touched.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert "must be positive" in err

    @pytest.mark.parametrize("argv", [
        ["rules", "NOPE"],
        ["run", "NOPE"],
        ["simulate", "NOPE"],
        ["profile", "NOPE"],
        ["diagnose", "NOPE"],
        ["critpath", "NOPE"],
        ["dashboard", "NOPE"],
        ["rtl", "NOPE"],
        ["dse", "NOPE"],
    ], ids=" ".join)
    def test_unknown_app_is_one_error_line(self, capsys, tmp_path, argv):
        store = ["--store", str(tmp_path / "store")] \
            if argv[0] in ("simulate", "profile", "diagnose", "critpath",
                           "dashboard", "dse") else []
        assert main([*argv, *store]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: unknown benchmark 'NOPE'; known: [")
        assert "SPEC-BFS" in line
        assert not (tmp_path / "store").exists()

    def test_unknown_experiment_app_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "figure9", "--apps", "NOPE", "--no-store"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'NOPE'" in capsys.readouterr().err

    def test_retired_fast_alias_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "SPEC-BFS", "--fast", "--no-store"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err

    def test_experiment_table1_with_json(self, capsys, tmp_path):
        # figure9 is the sweep branch's second table; it once crashed
        # after printing, before writing --json or the store.
        cases = [
            ("table1", [], "Table 1", 2,
             [("experiment", "SPEC-BFS"), ("experiment", "COOR-BFS")]),
            ("figure9", ["--scale", "0.1", "--apps", "COOR-LU"], "Figure 9",
             1, [("experiment", "COOR-LU"), ("sweep", "COOR-LU")]),
        ]
        for kind, flags, title, stored, records in cases:
            target = str(tmp_path / f"{kind}.json")
            store = tmp_path / f"store-{kind}"
            assert main(["experiment", kind, *flags, "--json", target,
                         "--store", str(store)]) == 0, kind
            out = capsys.readouterr().out
            assert title in out
            assert f"stored {stored} experiment records" in out
            assert json.loads(open(target).read())[kind]
            lines = (store / "runs.jsonl").read_text().splitlines()
            assert [(json.loads(l)["kind"], json.loads(l)["app"])
                    for l in lines] == records

    def test_dse(self, capsys):
        code = main([
            "dse", "SPEC-CC", "--replicas", "1", "--lanes", "16",
        ])
        assert code == 0
        assert "Pareto" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
