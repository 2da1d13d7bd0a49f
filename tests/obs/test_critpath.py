"""Tests for critical-path extraction: the exact-decomposition
invariant, engine invariance, regime pins, what-if projection bounds,
and the diagnose cross-check."""

from dataclasses import replace

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP, HARP
from repro.obs.critpath import (
    BUCKETS,
    critpath_trace_events,
    extract_critical_path,
    format_critpath,
    result_saturation,
    summary_block,
)
from repro.obs.diagnose import EXPECTED_DOMINANT, cross_check, \
    diagnose_record
from repro.obs.runstore import record_from_result
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.ledger import TokenLedger
from repro.substrates.graphs import random_graph

GRAPH = random_graph(300, 900, seed=7)


def _spec(app):
    return build_app(app, GRAPH, 0) if app == "SPEC-BFS" \
        else build_app(app, GRAPH)


def _run(app, platform, *, engine="event"):
    config = SimConfig(engine=engine)
    sim = AcceleratorSim(_spec(app), platform=platform, config=config,
                         ledger=TokenLedger())
    result = sim.run()
    return result, config


def _extract(result, platform, config, **kwargs):
    return extract_critical_path(
        result.ledger, result.cycles,
        rule_lanes=config.rule_lanes,
        saturation=result_saturation(result, platform),
        **kwargs,
    )


class TestDecomposition:
    @pytest.mark.parametrize("app,bandwidth", [
        ("SPEC-BFS", 1.0),
        ("SPEC-BFS", 8.0),
        ("SPEC-SSSP", 0.05),
        ("SPEC-SSSP", 1.0),
    ])
    def test_buckets_sum_exactly_to_total_cycles(self, app, bandwidth):
        platform = EVAL_HARP.scaled(bandwidth)
        result, config = _run(app, platform)
        critpath = _extract(result, platform, config)
        assert sum(critpath["buckets"].values()) == result.cycles
        assert set(critpath["buckets"]) == set(BUCKETS)

    def test_chain_covers_the_run_contiguously(self):
        platform = EVAL_HARP.scaled(0.5)
        result, config = _run("SPEC-BFS", platform)
        chain = _extract(result, platform, config)["chain"]
        assert chain[0].start == 0
        assert chain[-1].end == result.cycles
        for left, right in zip(chain, chain[1:]):
            assert left.end == right.start

    def test_summary_block_drops_only_the_chain(self):
        platform = HARP
        result, config = _run("SPEC-BFS", platform)
        critpath = _extract(result, platform, config)
        summary = summary_block(critpath)
        assert "chain" not in summary
        assert set(summary) == set(critpath) - {"chain"}

    def test_extraction_is_deterministic(self):
        platform = EVAL_HARP.scaled(0.5)
        result, config = _run("SPEC-SSSP", platform)
        first = summary_block(_extract(result, platform, config))
        second = summary_block(_extract(result, platform, config))
        assert first == second


class TestEngineInvariance:
    @pytest.mark.parametrize("app,bandwidth", [
        ("SPEC-BFS", 8.0),
        ("SPEC-SSSP", 0.05),
    ])
    def test_identical_chain_across_engines(self, app, bandwidth):
        platform = EVAL_HARP.scaled(bandwidth)
        summaries = {}
        for engine in ("dense", "event"):
            result, config = _run(app, platform, engine=engine)
            summaries[engine] = summary_block(
                _extract(result, platform, config))
        assert summaries["event"] == summaries["dense"]


class TestRegimePins:
    def test_starved_sssp_is_memory_bound(self):
        platform = EVAL_HARP.scaled(0.05)
        result, config = _run("SPEC-SSSP", platform)
        critpath = _extract(result, platform, config)
        assert critpath["dominant"] == "memory"
        assert result_saturation(result, platform) > 0.9

    def test_overprovisioned_bfs_is_speculation_bound(self):
        platform = EVAL_HARP.scaled(8.0)
        result, config = _run("SPEC-BFS", platform)
        critpath = _extract(result, platform, config)
        assert critpath["dominant"] == "speculation"
        assert result_saturation(result, platform) < 0.5


class TestWhatIf:
    def test_bounds_are_sound_speedups(self):
        platform = EVAL_HARP.scaled(0.5)
        result, config = _run("SPEC-SSSP", platform)
        what_if = _extract(result, platform, config)["what_if"]
        for name in ("qpi_latency_x0.5", "rule_lanes_plus1",
                     "zero_launch_overhead", "perfect_speculation"):
            proj = what_if[name]
            assert proj["speedup_bound"] >= 1.0, name
            assert 0 <= proj["saved_cycles"] <= result.cycles, name

    def test_qpi_half_latency_bound_holds_against_resimulation(self):
        # The projection is an upper bound: actually halving the QPI
        # latencies must not beat it.  At 5% bandwidth the channel
        # (not latency) binds, so the measured win is small — the
        # bound just has to stay on the right side.
        platform = EVAL_HARP.scaled(0.05)
        result, config = _run("SPEC-SSSP", platform)
        bound = _extract(result, platform, config)[
            "what_if"]["qpi_latency_x0.5"]["speedup_bound"]
        halved = replace(
            platform,
            cache_hit_cycles=platform.cache_hit_cycles // 2,
            miss_extra_cycles=platform.miss_extra_cycles // 2,
        )
        faster, _ = _run("SPEC-SSSP", halved)
        assert result.cycles / faster.cycles <= bound + 1e-9


class TestCrossCheck:
    def _record(self, app, platform):
        config = SimConfig(engine="event")
        sim = AcceleratorSim(_spec(app), platform=platform,
                             config=config, ledger=TokenLedger())
        return record_from_result(
            "run", sim.spec, sim.run(), platform=platform, config=config)

    def test_agrees_on_the_memory_bound_regime(self):
        record = self._record("SPEC-SSSP", EVAL_HARP.scaled(0.05))
        check = cross_check(diagnose_record(record),
                            record.critical_path)
        assert check is not None
        assert check["dominant"] == "memory"
        assert check["agrees"] is True

    def test_agrees_on_the_squash_bound_regime(self):
        record = self._record("SPEC-BFS", EVAL_HARP.scaled(8.0))
        check = cross_check(diagnose_record(record),
                            record.critical_path)
        assert check is not None
        assert check["dominant"] == "speculation"
        assert check["agrees"] is True

    def test_disagreement_says_trust_the_path(self):
        record = self._record("SPEC-SSSP", EVAL_HARP.scaled(0.05))
        fake = dict(record.critical_path)
        fake["dominant"] = "compute"
        check = cross_check(diagnose_record(record), fake)
        assert check["agrees"] is False
        assert check["note"].endswith("trust the path")

    def test_mapping_covers_every_bucket_it_names(self):
        for code, buckets in EXPECTED_DOMINANT.items():
            assert buckets, code
            assert set(buckets) <= set(BUCKETS), code

    def test_none_without_findings_or_path(self):
        record = self._record("SPEC-SSSP", EVAL_HARP.scaled(0.05))
        assert cross_check([], record.critical_path) is None
        assert cross_check(diagnose_record(record), None) is None


class TestSurfaces:
    def test_format_critpath_reports_every_bucket(self):
        platform = EVAL_HARP.scaled(0.05)
        result, config = _run("SPEC-SSSP", platform)
        critpath = _extract(result, platform, config)
        text = format_critpath(critpath, "SPEC-SSSP")
        for bucket in BUCKETS:
            assert bucket in text
        assert f"{result.cycles} cycles" in text

    def test_trace_events_chain_with_flow_arrows(self):
        platform = HARP
        result, config = _run("SPEC-BFS", platform)
        critpath = _extract(result, platform, config)
        rows = critpath_trace_events(critpath)
        slices = [r for r in rows if r.get("ph") == "X"]
        assert len(slices) == len(critpath["chain"])
        starts = {r["ph"] for r in rows if r["ph"] in ("s", "f")}
        assert starts == {"s", "f"}
        with pytest.raises(ValueError):
            critpath_trace_events(summary_block(critpath))

    def test_record_auto_extracts_for_ledgered_runs(self):
        platform = EVAL_HARP.scaled(0.05)
        config = SimConfig(engine="event")
        sim = AcceleratorSim(_spec("SPEC-SSSP"), platform=platform,
                             config=config, ledger=TokenLedger())
        record = record_from_result("run", sim.spec, sim.run(),
                                    platform=platform, config=config)
        assert record.critical_path is not None
        assert record.critical_path["dominant"] == "memory"
        assert "chain" not in record.critical_path
