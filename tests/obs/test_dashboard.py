"""Tests for the zero-dependency HTML dashboard (repro.obs.dashboard)."""

from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.diagnose import Finding

from tests.obs.test_runstore import make_record


def full_record(**overrides):
    defaults = dict(
        run_id="000001",
        timestamp="2026-01-01T00:00:00Z",
        timeline={"bucket_cycles": 4,
                  "utilization": [0.1, 0.4, 0.3, 0.0, 0.2]},
        metrics={
            "counters": {"sim.commits": 500, "mem.loads_issued": 400},
            "histograms": {
                "mem.load_latency": {"count": 400, "mean": 12.5,
                                     "p50": 8.0, "p95": 55.0,
                                     "p99": 60.0, "max": 64},
            },
        },
    )
    defaults.update(overrides)
    return make_record(**defaults)


class TestSelfContainment:
    def test_single_file_no_scripts_no_external_assets(self):
        html = render_dashboard(full_record())
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "src=" not in html  # no images/iframes/fonts
        assert "<style>" in html  # CSS inline

    def test_write_dashboard(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard(path, full_record())
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE")

    def test_html_escapes_untrusted_strings(self):
        record = full_record(app="<script>alert(1)</script>")
        html = render_dashboard(record, findings=[
            Finding("x", 'title with <b> & "quotes"', 0.5, ["<ev>"]),
        ])
        assert "<script" not in html
        assert "&lt;script&gt;" in html
        assert "&lt;ev&gt;" in html


class TestSections:
    def test_stall_waterfall_draws_every_bucket_with_tooltips(self):
        html = render_dashboard(full_record())
        assert html.count("<svg") >= 2  # waterfall + timeline
        assert "p.load — memory: 500 cycles (50.0%)" in html
        assert "p.alu — backpressure: 250 cycles (25.0%)" in html
        # Legend present; idle rendered as the neutral, not a series hue.
        assert 'class="legend"' in html
        assert "#c9c8c2" in html

    def test_timeline_renders_polyline_and_hover_titles(self):
        html = render_dashboard(full_record())
        assert "<polyline" in html
        assert "cycles 4–8: 40.00% utilized" in html
        assert "bucket width 4 cycles" in html

    def test_critpath_panel_renders_bar_whatifs_and_segments(self):
        html = render_dashboard(full_record(critical_path={
            "total_cycles": 1000,
            "dominant": "memory",
            "path_tokens": 12,
            "path_segments": 20,
            "buckets": {"memory": 700, "compute": 200,
                        "speculation": 100},
            "wasted_speculation": {"tokens": 3, "cycles": 90},
            "what_if": {"qpi_latency_x0.5":
                        {"saved_cycles": 350, "speedup_bound": 1.538}},
            "segments": [{"start": 0, "end": 700, "cycles": 700,
                          "bucket": "memory", "token": 5,
                          "detail": "load wait"}],
        }))
        assert "Critical path" in html
        assert "dominant bucket <strong>memory</strong>" in html
        assert "<title>memory: 700 cycles (70.0%)</title>" in html
        assert "qpi_latency_x0.5" in html and "1.538x" in html
        assert "longest segments" in html and "load wait" in html

    def test_unledgered_record_gets_critpath_placeholder(self):
        html = render_dashboard(full_record())
        assert "without a token ledger" in html

    def test_missing_telemetry_degrades_to_messages(self):
        html = render_dashboard(make_record(stalls=None, metrics=None))
        assert "without stall attribution" in html
        assert "stored without a critical path" in html
        assert "no utilization timeline" in html
        assert "no metrics snapshot" in html

    def test_metrics_tables_show_percentiles(self):
        html = render_dashboard(full_record())
        assert "mem.load_latency" in html
        assert "<th class=\"num\">p95</th>" in html
        assert "55.0" in html

    def test_findings_ranked_with_severity_badges(self):
        html = render_dashboard(full_record(), findings=[
            Finding("memory-bound", "slow memory", 0.8, ["ev"]),
            Finding("queue-backpressure", "full queues", 0.3, []),
        ])
        assert "critical 0.80" in html
        assert "warning 0.30" in html
        assert html.index("memory-bound") < html.index("queue-backpressure")


class TestBandwidthSweep:
    def test_sweep_plots_speedup_per_app_with_legend(self):
        history = [
            full_record(run_id="1", app="SPEC-BFS", cycles=1000,
                        platform={"bandwidth_scale": 1.0}),
            full_record(run_id="2", app="SPEC-BFS", cycles=500,
                        platform={"bandwidth_scale": 2.0}),
            full_record(run_id="3", app="COOR-LU", cycles=2000,
                        platform={"bandwidth_scale": 1.0}),
            full_record(run_id="4", app="COOR-LU", cycles=900,
                        platform={"bandwidth_scale": 2.0}),
        ]
        html = render_dashboard(history[-1], history=history)
        assert "SPEC-BFS @ 2x bandwidth: 2.00x speedup" in html
        assert "COOR-LU @ 2x bandwidth: 2.22x speedup" in html
        # Two series: legend entries for both, distinct fixed hues.
        assert "#2a78d6" in html and "#eb6834" in html

    def test_latest_run_per_point_wins(self):
        history = [
            full_record(run_id="1", app="A", cycles=1000,
                        platform={"bandwidth_scale": 1.0}),
            full_record(run_id="2", app="A", cycles=400,
                        platform={"bandwidth_scale": 2.0}),
            full_record(run_id="3", app="A", cycles=500,
                        platform={"bandwidth_scale": 2.0}),
        ]
        html = render_dashboard(history[-1], history=history)
        assert "A @ 2x bandwidth: 2.00x speedup" in html

    def test_sweep_needs_two_bandwidth_points(self):
        history = [full_record(run_id="1")]
        html = render_dashboard(full_record(), history=history)
        assert "two or more" in html

    def test_golden_records_excluded_from_sweep(self):
        history = [
            full_record(run_id="1", app="A", cycles=1000,
                        platform={"bandwidth_scale": 1.0}),
            full_record(run_id="golden:bfs", app="A", kind="golden",
                        cycles=10, platform={"bandwidth_scale": 2.0}),
        ]
        html = render_dashboard(full_record(), history=history)
        assert "two or more" in html


class TestHistoryTable:
    def test_recent_runs_listed_newest_first(self):
        history = [full_record(run_id=f"{i:06d}") for i in range(1, 4)]
        html = render_dashboard(history[-1], history=history)
        assert "Recent runs" in html
        assert html.index("000003") < html.index("000001")
