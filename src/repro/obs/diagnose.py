"""Bottleneck diagnosis: a stored run's measured critical path, read out
as ranked findings.

A :class:`~repro.obs.runstore.RunRecord` whose run carried a
:class:`~repro.sim.ledger.TokenLedger` stores its critical path
(:mod:`repro.obs.critpath`): seven buckets that sum exactly to the
cycle count.  :func:`diagnose_record` renders one :class:`Finding` per
bucket holding at least :data:`MIN_PATH_SHARE` of the path, ranked
like the path itself.  A finding's severity is its bucket's share of
the path, and its evidence comes from the path's own segments and
what-if bounds, plus the record's counters where they explain the
bucket.  The root-cause folding and the waste-vs-saturation gate that
decide which bucket a wait lands in live in :mod:`repro.obs.critpath`
alone, so the findings cannot disagree with the path.

The codes are the regimes Section 6 of the paper narrates by hand:
``squash-bound`` is the SPEC-BFS high-bandwidth anomaly (extra
bandwidth floods the pipelines with speculative updates that get
squashed or guard-dropped), ``qpi-bandwidth-bound`` the Figure 10
channel regime.  A record without a path yields no findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.critpath import BUCKETS
from repro.obs.runstore import RunRecord

# A memory-bound path whose channel runs at least this full (bytes/cycle
# vs QPI capacity) is bound by the link itself, not by miss latency.
BANDWIDTH_MIN_SATURATION = 0.75
# Path buckets below this share of the cycles are not listed.
MIN_PATH_SHARE = 0.05

# Where to point a reader whose record stores no path.
STORES_A_PATH = "`repro diagnose APP` or `repro critpath APP` stores one"

# Path bucket -> (code, title).  ``memory`` is split by channel
# saturation (:data:`_SATURATED_MEMORY`).
_FINDINGS: dict[str, tuple[str, str]] = {
    "speculation": (
        "squash-bound",
        "Speculative work floods the pipelines and is squashed or "
        "guard-dropped; utilization rises while speedup does not "
        "(the SPEC-BFS high-bandwidth anomaly)",
    ),
    "rule": (
        "rule-lane-bound",
        "Rule-engine lanes (or the ordered-admission window they size) "
        "throttle task issue",
    ),
    "queue": (
        "queue-backpressure",
        "Tasks wait on a workset queue for a pop grant or for room",
    ),
    "backpressure": (
        "queue-backpressure",
        "Decided tokens wait on a full downstream FIFO with no single "
        "resource to blame",
    ),
    "host": (
        "host-launch-bound",
        "End-to-end time is dominated by the host streaming the task "
        "list into the accelerator",
    ),
    "compute": (
        "compute-bound",
        "Stages and function units are busy doing the path's own work",
    ),
    "memory": (
        "memory-bound",
        "Pipelines stall on the memory system (load stations full of "
        "outstanding misses)",
    ),
}
_SATURATED_MEMORY = (
    "qpi-bandwidth-bound",
    "The QPI channel is saturated; more bandwidth would move the "
    "needle (Figure 10 regime)",
)

# The what-if bound that deletes (part of) each bucket.
_WHAT_IF = {
    "memory": "qpi_latency_x0.5",
    "rule": "rule_lanes_plus1",
    "host": "zero_launch_overhead",
    "speculation": "perfect_speculation",
}

# The path buckets each code reads (what :func:`cross_check` expects
# to dominate when that code ranks first).
_TABLE = (*_FINDINGS.items(), ("memory", _SATURATED_MEMORY))
EXPECTED_DOMINANT: dict[str, tuple[str, ...]] = {
    code: tuple(b for b, (c, _) in _TABLE if c == code)
    for _, (code, _) in _TABLE
}


@dataclass
class Finding:
    """One ranked diagnosis: what binds the run, and why we think so."""

    code: str
    title: str
    severity: float                # 0..1, ranks findings
    evidence: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "title": self.title,
            "severity": round(self.severity, 4),
            "evidence": list(self.evidence),
        }


def _saturation(record: RunRecord) -> float:
    """Sustained QPI load: ``bytes/cycle / qpi_bytes_per_cycle``."""
    capacity = record.platform.get("qpi_bytes_per_cycle", 0.0)
    if not capacity or not record.cycles:
        return 0.0
    return record.memory.get("bytes", 0) / record.cycles / capacity


def _evidence(record: RunRecord, path: dict[str, Any], bucket: str,
              saturation: float) -> list[str]:
    total = path["total_cycles"]
    cycles = path["buckets"][bucket]
    evidence = [f"{cycles} of {total} path cycles ({cycles / total:.1%})"]
    longest = next((s for s in path.get("segments", [])
                    if s["bucket"] == bucket), None)
    if longest is not None:
        evidence.append(
            f"longest segment {longest['cycles']} cycles "
            f"[{longest['start']}, {longest['end']}): {longest['detail']}"
        )
    bound = path.get("what_if", {}).get(_WHAT_IF.get(bucket, ""))
    if bound is not None:
        evidence.append(
            f"what-if {_WHAT_IF[bucket]}: saves <= "
            f"{bound['saved_cycles']} cycles "
            f"(speedup <= {bound['speedup_bound']:.3f}x)"
        )
    if bucket == "memory":
        capacity = record.platform.get("qpi_bytes_per_cycle", 0.0)
        evidence.append(
            f"cache hit rate {record.memory.get('hit_rate', 1.0):.1%}; "
            f"sustained {saturation * capacity:.1f} bytes/cycle of "
            f"{capacity:.1f} available ({saturation:.0%} of channel "
            "capacity)"
        )
    elif bucket == "speculation":
        waste = path.get("wasted_speculation", {})
        evidence.append(
            f"wasted speculation: {waste.get('tokens', 0)} doomed tokens, "
            f"{waste.get('cycles', 0)} token-cycles off the path"
        )
        counters = (record.metrics or {}).get("counters")
        if counters is not None:
            squashes = counters.get("sim.squashes", 0)
            drops = counters.get("sim.guard_drops", 0)
            verdicts = counters.get("sim.commits", 0) + squashes + drops
            evidence.append(
                f"{squashes + drops} of {verdicts} verdicts rejected: "
                f"{squashes} squashed, {drops} guard-dropped"
            )
    elif bucket == "host":
        evidence.append(
            f"pipeline utilization {record.utilization:.2%}"
        )
    return evidence


def diagnose_record(record: RunRecord) -> list[Finding]:
    """Ranked findings (largest path bucket first) for one stored run.

    Ties keep :data:`~repro.obs.critpath.BUCKETS` order (a stable
    sort), so the top finding reads the path's ``dominant`` bucket.
    """
    path = record.critical_path
    if not path or not path.get("total_cycles"):
        return []
    total, buckets = path["total_cycles"], path["buckets"]
    saturation = _saturation(record)
    findings = []
    for bucket in sorted(BUCKETS, key=lambda b: -buckets[b]):
        share = buckets[bucket] / total
        if share < MIN_PATH_SHARE:
            break
        code, title = _FINDINGS[bucket]
        if bucket == "memory" and saturation >= BANDWIDTH_MIN_SATURATION:
            code, title = _SATURATED_MEMORY
        findings.append(Finding(code, title, share,
                                _evidence(record, path, bucket, saturation)))
    return findings


def cross_check(findings: list[Finding],
                critpath: dict[str, Any]) -> dict[str, Any] | None:
    """Compare the top finding against a measured critical path.

    Returns None when there is nothing to check (no findings, or a
    critpath without a dominant bucket); otherwise a verdict dict whose
    ``agrees`` says whether the path's dominant bucket is one the top
    finding reads, with a human-readable ``note`` either way.  Findings
    rendered from the same path always agree.
    """
    dominant = (critpath or {}).get("dominant")
    if not findings or not dominant:
        return None
    top = findings[0]
    expected = EXPECTED_DOMINANT.get(top.code, ())
    agrees = dominant in expected
    if agrees:
        note = (f"finding '{top.code}' and the critical path agree: "
                f"the dominant bucket is '{dominant}'")
    else:
        note = (f"finding '{top.code}' reads "
                f"{' or '.join(repr(e) for e in expected) or 'nothing'} "
                f"as dominant, but the measured path is bound by "
                f"'{dominant}' — the findings come from another run; "
                "trust the path")
    return {
        "classifier": top.code,
        "expected": list(expected),
        "dominant": dominant,
        "agrees": agrees,
        "note": note,
    }


def format_findings(record: RunRecord, findings: list[Finding]) -> str:
    """The ``repro diagnose`` rendering."""
    head = (
        f"{record.app}: {record.cycles} cycles, utilization "
        f"{record.utilization * 100:.1f}%, bandwidth "
        f"x{record.platform.get('bandwidth_scale', 1)}"
    )
    if not findings:
        return (f"{head}\n  no findings: the run stores no critical "
                f"path; {STORES_A_PATH}")
    lines = [head]
    for rank, finding in enumerate(findings, 1):
        lines.append(
            f"  {rank}. [{finding.severity:4.2f}] {finding.code}: "
            f"{finding.title}"
        )
        for item in finding.evidence:
            lines.append(f"       - {item}")
    return "\n".join(lines)
