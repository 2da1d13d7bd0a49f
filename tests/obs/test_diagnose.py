"""Tests for the bottleneck diagnosis (repro.obs.diagnose).

Findings are a rendering of a record's measured critical path: one per
path bucket holding at least ``MIN_PATH_SHARE`` of the cycles, its
severity that bucket's share.  The path-reading tests check that on
ledgered records of all six Figure 9 apps (plus SPEC-BFS at 8x and
0.05x bandwidth), on both engines.  The regime tests pin the readings
EXPERIMENTS.md narrates: SPEC-BFS at 8x bandwidth is squash-bound (the
Figure 10 anomaly: utilization rises, speedup does not), SPEC-SSSP is
memory-bound, and SPEC-MST and SPEC-DMR are bound by the saturated QPI
channel.  Each record comes from a real simulation at scale 0.3.
"""

from functools import lru_cache

import pytest

from repro.eval.platforms import EVAL_HARP
from repro.eval.workloads import APP_NAMES, default_workloads
from repro.obs import Observability
from repro.obs.critpath import BUCKETS
from repro.obs.diagnose import (
    BANDWIDTH_MIN_SATURATION,
    EXPECTED_DOMINANT,
    MIN_PATH_SHARE,
    Finding,
    cross_check,
    diagnose_record,
    format_findings,
)
from repro.obs.runstore import record_from_result
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.ledger import TokenLedger

WORKLOADS = default_workloads(scale=0.3)

POINTS = [(app, 1.0) for app in APP_NAMES] + [
    ("SPEC-BFS", 8.0), ("SPEC-BFS", 0.05),
]


@lru_cache(maxsize=None)
def ledgered_record(app: str, bandwidth: float = 1.0,
                    engine: str = "event"):
    spec = WORKLOADS[app].build_spec()
    platform = EVAL_HARP.scaled(bandwidth)
    config = SimConfig(engine=engine)
    sim = AcceleratorSim(spec, platform=platform, config=config,
                         obs=Observability(), ledger=TokenLedger())
    result = sim.run()
    names = [s.name for p in sim.pipelines for s in p.stages]
    return record_from_result(
        "diagnose", spec, result, platform=platform, config=config,
        stage_names=names,
    )


def findings_at(app: str, bandwidth: float = 1.0, engine: str = "event"):
    return diagnose_record(ledgered_record(app, bandwidth, engine))


def codes(findings):
    return [f.code for f in findings]


def listed_buckets(path):
    """The path's buckets at or above the listing share, largest first."""
    total = path["total_cycles"]
    ranked = sorted(BUCKETS, key=lambda b: -path["buckets"][b])
    return [b for b in ranked if path["buckets"][b] / total >= MIN_PATH_SHARE]


@pytest.mark.parametrize("app,bandwidth", POINTS)
class TestPathReading:
    def test_severities_are_path_shares(self, app, bandwidth):
        path = ledgered_record(app, bandwidth).critical_path
        findings = findings_at(app, bandwidth)
        buckets = listed_buckets(path)
        assert [f.severity for f in findings] == [
            path["buckets"][b] / path["total_cycles"] for b in buckets
        ]
        for finding, bucket in zip(findings, buckets):
            assert bucket in EXPECTED_DOMINANT[finding.code]

    def test_top_finding_reads_the_dominant_bucket(self, app, bandwidth):
        path = ledgered_record(app, bandwidth).critical_path
        assert listed_buckets(path)[0] == path["dominant"]
        top = findings_at(app, bandwidth)[0]
        assert path["dominant"] in EXPECTED_DOMINANT[top.code]

    def test_cross_check_agrees(self, app, bandwidth):
        record = ledgered_record(app, bandwidth)
        check = cross_check(diagnose_record(record), record.critical_path)
        assert check is not None and check["agrees"] is True

    def test_engines_give_identical_findings(self, app, bandwidth):
        assert findings_at(app, bandwidth, "dense") == \
            findings_at(app, bandwidth)


class TestRegimes:
    def test_spec_bfs_8x_is_squash_bound(self):
        # EXP-F10: at 8x QPI the extra bandwidth floods the pipelines
        # with speculative updates that get squashed or guard-dropped.
        findings = findings_at("SPEC-BFS", 8.0)
        assert findings[0].code == "squash-bound"
        assert "qpi-bandwidth-bound" not in codes(findings)
        evidence = " ".join(findings[0].evidence)
        assert "guard-dropped" in evidence
        assert "what-if perfect_speculation" in evidence

    def test_spec_bfs_constrained_bw_is_not_squash_bound(self):
        # Same app, same waste — but with the channel constrained to
        # 0.5x, doomed tokens' waits fold to memory on the path.
        assert "squash-bound" not in codes(findings_at("SPEC-BFS", 0.5))

    def test_coor_lu_is_bandwidth_then_rule_lane_bound(self):
        findings = findings_at("COOR-LU")
        assert codes(findings)[:2] == ["qpi-bandwidth-bound",
                                       "rule-lane-bound"]

    def test_spec_mst_is_bandwidth_bound(self):
        assert findings_at("SPEC-MST")[0].code == "qpi-bandwidth-bound"

    def test_spec_dmr_is_bandwidth_bound_not_host_bound(self):
        findings = findings_at("SPEC-DMR")
        assert findings[0].code == "qpi-bandwidth-bound"
        assert "host-launch-bound" not in codes(findings)

    def test_spec_sssp_is_memory_bound(self):
        findings = findings_at("SPEC-SSSP")
        assert findings[0].code == "memory-bound"
        assert "squash-bound" not in codes(findings)
        assert "host-launch-bound" not in codes(findings)

    def test_rankings_are_sorted_by_severity(self):
        for app in ("COOR-LU", "SPEC-SSSP", "COOR-BFS"):
            severities = [f.severity for f in findings_at(app)]
            assert severities == sorted(severities, reverse=True)
            assert all(0.0 <= s <= 1.0 for s in severities)


def synthetic_path(**buckets):
    """A critical-path summary holding ``buckets`` (cycles per bucket)."""
    cycles = {bucket: buckets.get(bucket, 0) for bucket in BUCKETS}
    total = sum(cycles.values())
    return {
        "total_cycles": total,
        "buckets": cycles,
        "dominant": max(BUCKETS, key=lambda b: cycles[b]),
        "segments": [],
        "wasted_speculation": {"tokens": 0, "cycles": 0},
        "what_if": {},
    }


class TestMechanics:
    """Path reading on synthetic records (no simulation)."""

    def record(self, **overrides):
        from tests.obs.test_runstore import make_record

        return make_record(**overrides)

    def test_pure_backpressure_raises_queue_finding(self):
        record = self.record(critical_path=synthetic_path(
            backpressure=600, compute=400))
        findings = diagnose_record(record)
        assert codes(findings) == ["queue-backpressure", "compute-bound"]
        assert findings[0].severity == 0.6

    def test_record_without_stalls_still_diagnoses(self):
        record = self.record(
            stalls=None,
            memory={"bytes": 34_900, "loads": 500, "hit_rate": 0.0},
            critical_path=synthetic_path(memory=950, compute=50),
        )
        # Findings read the path; the stall table is not needed.
        assert codes(diagnose_record(record)) == ["qpi-bandwidth-bound",
                                                  "compute-bound"]

    def test_record_without_path_has_no_findings(self):
        assert diagnose_record(self.record()) == []

    def test_buckets_below_the_listing_share_are_not_listed(self):
        cycles = round(MIN_PATH_SHARE * 1000)
        record = self.record(critical_path=synthetic_path(
            memory=1000 - 2 * cycles + 1, rule=cycles, host=cycles - 1))
        assert "rule-lane-bound" in codes(diagnose_record(record))
        assert "host-launch-bound" not in codes(diagnose_record(record))

    def test_memory_splits_at_channel_saturation(self):
        path = synthetic_path(memory=1000)
        capacity = 35.0
        saturated = round(BANDWIDTH_MIN_SATURATION * capacity * 1000)
        at_gate = self.record(critical_path=path,
                              memory={"bytes": saturated, "hit_rate": 0.5})
        below = self.record(critical_path=path,
                            memory={"bytes": saturated - 1, "hit_rate": 0.5})
        assert codes(diagnose_record(at_gate)) == ["qpi-bandwidth-bound"]
        assert codes(diagnose_record(below)) == ["memory-bound"]

    def test_every_bucket_has_a_code(self):
        read = {b for buckets in EXPECTED_DOMINANT.values() for b in buckets}
        assert read == set(BUCKETS)

    def test_finding_to_dict(self):
        finding = Finding("memory-bound", "t", 0.51234, ["e1", "e2"])
        data = finding.to_dict()
        assert data["severity"] == 0.5123
        assert data["evidence"] == ["e1", "e2"]


class TestFormatting:
    def test_findings_render_with_rank_and_evidence(self):
        from tests.obs.test_runstore import make_record

        record = make_record()
        findings = [
            Finding("memory-bound", "memory is slow", 0.8, ["evidence A"]),
            Finding("queue-backpressure", "queues full", 0.3, []),
        ]
        text = format_findings(record, findings)
        assert "1. [0.80] memory-bound" in text
        assert "2. [0.30] queue-backpressure" in text
        assert "- evidence A" in text

    def test_no_findings_message(self):
        from tests.obs.test_runstore import make_record

        text = format_findings(make_record(), [])
        assert "stores no critical path" in text
        assert "repro critpath APP" in text
