"""Cross-run telemetry store: every CLI run leaves a queryable record.

PR 2's tracer/metrics/stall profiler answer "where did the cycles go?"
for one process; this module makes the answer *persist*.  Every
``repro simulate / profile / experiment / fault-campaign`` invocation
appends one :class:`RunRecord` — app, platform, config digest, seed,
metrics snapshot, exact stall-attribution table, verification result,
wall clock, engine — to an append-only JSONL store
(``.repro/runs.jsonl`` by default), so regression questions become
``repro runs diff`` instead of re-running simulations by hand.

The schema is versioned (:data:`SCHEMA_VERSION`); records with an
unknown schema or corrupt lines are skipped on read, never fatal, so an
old store survives upgrades.  Records are plain sorted-key JSON and the
store is append-only; writes go through :mod:`repro.io.safety` — each
record is one line, written + flushed + fsynced under the store file's
advisory lock (run-id assignment happens inside the same critical
section), so concurrent writers never interleave or duplicate ids, and
a writer killed mid-append leaves at most one torn trailing line, which
reads skip with a warning and :meth:`RunStore.compact` removes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.io.safety import FileLock, append_line, read_jsonl, replace_file
from repro.obs.profile import COLUMNS

SCHEMA_VERSION = 1
DEFAULT_STORE_DIR = ".repro"
STORE_FILENAME = "runs.jsonl"

# Stall buckets a diff aggregates across stages (profiler column order).
STALL_BUCKETS = COLUMNS[1:]


def config_digest(config) -> str:
    """A stable short digest of a :class:`SimConfig` (field-order free)."""
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def platform_to_dict(platform) -> dict[str, Any]:
    """The platform facts diagnosis needs, JSON-ready."""
    return {
        "clock_hz": platform.clock_hz,
        "cache_bytes": platform.cache_bytes,
        "bandwidth_scale": platform.bandwidth_scale,
        "qpi_bytes_per_cycle": round(platform.qpi_bytes_per_cycle, 6),
    }


@dataclass
class RunRecord:
    """One stored run.  ``stalls``/``timeline`` are present when the run

    was observed (an :class:`~repro.obs.Observability` bundle attached);
    ``extra`` carries kind-specific payloads (experiment rows, campaign
    recovery counts).
    """

    kind: str                      # simulate | profile | fault-campaign |
    app: str                       # experiment | bench
    cycles: int
    seconds: float
    utilization: float
    squash_fraction: float
    verified: bool
    run_id: str = ""
    schema: int = SCHEMA_VERSION
    timestamp: str = ""
    app_mode: str = ""             # speculative | coordinative
    host_fed: bool = False
    sim_mode: str = "dense"        # dense | event | sweep
    seed: int | None = None
    wall_seconds: float = 0.0
    platform: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    config_digest: str = ""
    memory: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None
    stalls: dict[str, dict[str, int]] | None = None
    timeline: dict[str, Any] | None = None
    # Critical-path summary (obs/critpath.summary_block) when the run
    # carried a TokenLedger: bucket decomposition, dominant bucket,
    # top segments, what-if projections.  None for unledgered runs.
    critical_path: dict[str, Any] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    # -- derived views used by diff/diagnose/dashboard -----------------------

    def stall_totals(self) -> dict[str, int]:
        """Cycles per stall bucket, aggregated over every stage.

        ``stalled`` is the undifferentiated bucket golden fixtures use
        (they keep per-stage totals, not the per-reason split).
        """
        buckets = ("active",) + STALL_BUCKETS + ("idle", "stalled")
        totals = dict.fromkeys(buckets, 0)
        for row in (self.stalls or {}).values():
            for bucket in buckets:
                totals[bucket] += row.get(bucket, 0)
        if not totals["stalled"]:
            del totals["stalled"]
        return totals

    def stage_stalled(self) -> dict[str, int]:
        """Stalled cycles per stage (all reasons summed)."""
        return {
            stage: sum(row.get(bucket, 0)
                       for bucket in STALL_BUCKETS + ("stalled",))
            for stage, row in (self.stalls or {}).items()
        }

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in data.items() if k in known})


def _run_record(
    kind: str,
    run,
    *,
    platform,
    config,
    app_mode: str,
    host_fed: bool,
    verified: bool,
    seed: int | None,
    wall_seconds: float,
    metrics: dict[str, Any] | None,
    extra: dict[str, Any] | None,
    **observed: Any,
) -> RunRecord:
    """The one mapping of a run's scalar fields to a record.

    ``run`` is a :class:`~repro.sim.accelerator.SimResult` or a
    :class:`~repro.exec.job.JobOutcome`: both carry the app, cycle,
    time, utilization, squash and memory scalars under the same names.
    ``observed`` holds the fields only a live run can fill (stalls,
    timeline, critical path).
    """
    return RunRecord(
        kind=kind,
        app=run.app,
        app_mode=app_mode,
        host_fed=host_fed,
        sim_mode=config.engine,
        cycles=run.cycles,
        seconds=run.seconds,
        utilization=run.utilization,
        squash_fraction=run.squash_fraction,
        verified=verified,
        seed=seed,
        wall_seconds=round(wall_seconds, 6),
        platform=platform_to_dict(platform),
        config=asdict(config),
        config_digest=config_digest(config),
        memory={
            "bytes": run.memory_bytes,
            "loads": run.memory_loads,
            "hit_rate": round(run.memory_hit_rate, 6),
        },
        metrics=metrics,
        extra=extra or {},
        **observed,
    )


def record_from_result(
    kind: str,
    spec,
    result,
    *,
    platform,
    config,
    stage_names: Iterable[str] | None = None,
    seed: int | None = None,
    verified: bool = True,
    wall_seconds: float = 0.0,
    critical_path: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> RunRecord:
    """Reduce a :class:`~repro.sim.accelerator.SimResult` to a record.

    ``critical_path`` takes an :func:`repro.obs.critpath.summary_block`;
    when omitted but the result carries a ledger, the summary is
    extracted here so every ledgered run stores its bottleneck chain.
    """
    obs = result.obs
    stalls = timeline = None
    if obs is not None and stage_names is not None:
        stalls = obs.profiler.accounting(list(stage_names), result.cycles)
        timeline = obs.timeline.to_dict(result.stats.total_stages)
    if critical_path is None and getattr(result, "ledger", None) is not None:
        from repro.obs.critpath import (
            extract_critical_path,
            result_saturation,
            summary_block,
        )

        critical_path = summary_block(extract_critical_path(
            result.ledger, result.cycles,
            rule_lanes=getattr(config, "rule_lanes", 32),
            saturation=result_saturation(result, platform),
        ))
    return _run_record(
        kind, result, platform=platform, config=config,
        app_mode=spec.mode, host_fed=spec.host_feed is not None,
        verified=verified, seed=seed, wall_seconds=wall_seconds,
        metrics=result.metrics.snapshot() if result.metrics else None,
        extra=extra, stalls=stalls, timeline=timeline,
        critical_path=critical_path,
    )


def record_from_outcome(
    kind: str,
    outcome,
    *,
    platform,
    config,
    seed: int | None = None,
    extra: dict[str, Any] | None = None,
) -> RunRecord:
    """Reduce a :class:`~repro.exec.job.JobOutcome` to a record.

    The sweep-runner counterpart of :func:`record_from_result`: outcomes
    are plain data (they may have crossed a process boundary or come out
    of the result cache), so everything a record needs is already a
    field — no spec or live metrics registry required.
    """
    return _run_record(
        kind, outcome, platform=platform, config=config,
        app_mode=outcome.app_mode, host_fed=outcome.host_fed,
        verified=outcome.verified, seed=seed,
        wall_seconds=outcome.wall_seconds, metrics=outcome.metrics,
        extra=extra,
    )


def record_from_sweep(
    runner,
    *,
    command: str = "sweep",
    apps: Iterable[str] = (),
    max_job_spans: int = 200,
    extra: dict[str, Any] | None = None,
) -> RunRecord:
    """Reduce a finished :class:`~repro.exec.runner.SweepRunner` run to a
    sweep-level record (``kind="sweep"``).

    Carries the runner's exec metrics snapshot (queue-wait/run-wall
    histograms, cache economics, lock contention) plus per-job worker
    spans in ``extra["jobs"]`` — the fleet dashboard's raw material.
    Per-point wall clocks are host-dependent by nature, which is why
    sweep records are only stored by commands whose run-store output is
    not part of a byte-stability contract (``repro experiment``, not
    ``repro fault-campaign``).
    """
    report = runner.report
    snapshot = runner.metrics.snapshot()
    app_list = sorted(set(apps))
    spans = list(runner.job_spans)
    if len(spans) > max_job_spans:
        spans = spans[:max_job_spans]
    payload = {
        "command": command,
        "sweep": {
            "points": report.points,
            "hits": report.hits,
            "executed": report.executed,
            "retried": report.retried,
            "errors": report.errors,
            "quarantined": report.quarantined,
            "jobs": report.jobs,
            "hit_rate": round(report.hit_rate, 6),
            "points_per_sec": round(
                report.points / report.wall_seconds, 3
            ) if report.wall_seconds else 0.0,
            "fallback": report.fallback,
        },
        "jobs": spans,
        **(extra or {}),
    }
    return RunRecord(
        kind="sweep",
        app="+".join(app_list)[:48] or command,
        cycles=0,
        seconds=0.0,
        utilization=snapshot["gauges"].get(
            "exec.workers.busy_fraction", 0.0
        ),
        squash_fraction=0.0,
        verified=report.errors == 0,
        sim_mode="sweep",
        wall_seconds=round(report.wall_seconds, 6),
        metrics=snapshot,
        extra=payload,
    )


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` documents."""

    def __init__(
        self,
        root: str | Path = DEFAULT_STORE_DIR,
        lock_timeout: float = 10.0,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / STORE_FILENAME
        self.lock_timeout = lock_timeout
        self.skipped = 0   # corrupt lines seen by the last records() read

    # -- writing --------------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Assign a run id and persist the record; returns it.

        Id assignment and the append happen under the store file's
        advisory lock, so concurrent writers cannot race to the same id
        or interleave lines; the line is fsynced before the lock drops.
        """
        if not record.timestamp:
            record.timestamp = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        with FileLock(self.path, timeout=self.lock_timeout):
            if not record.run_id:
                record.run_id = f"{self._next_id():06d}"
            line = json.dumps(record.to_dict(), sort_keys=True)
            append_line(self.path, line, lock=False)
        return record

    def _next_id(self) -> int:
        """One past the highest id in use (not the line count, which
        shrinks under compaction and would recycle ids)."""
        if not self.path.exists():
            return 1
        highest = lines = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                lines += 1
                try:
                    run_id = json.loads(line).get("run_id", "")
                except (json.JSONDecodeError, AttributeError):
                    continue
                if isinstance(run_id, str) and run_id.isdigit():
                    highest = max(highest, int(run_id))
        return max(highest, lines) + 1

    # -- reading --------------------------------------------------------------

    def records(self) -> list[RunRecord]:
        """Every readable record, oldest first.

        Corrupt lines — including a torn trailing line from a writer
        killed mid-append — are skipped with a warning naming the file
        and line number; the count lands in :attr:`skipped`.
        """
        read = read_jsonl(self.path)
        self.skipped = len(read.skipped)
        out: list[RunRecord] = []
        for _, data in read.rows:
            if data.get("schema", 0) > SCHEMA_VERSION:
                continue
            try:
                out.append(RunRecord.from_dict(data))
            except TypeError:
                self.skipped += 1
        return out

    def ensure_readable(self) -> list[RunRecord]:
        """Records, or a KeyError whose message says in one line why
        there are none (missing file / empty / entirely corrupt)."""
        if not self.path.exists():
            raise KeyError(f"run store {self.path} does not exist — "
                           "run e.g. `repro simulate SPEC-BFS` first")
        records = self.records()
        if not records:
            if self.skipped:
                raise KeyError(
                    f"run store {self.path} has no readable records "
                    f"({self.skipped} corrupt lines — "
                    "try `repro runs compact`)")
            raise KeyError(f"run store {self.path} is empty")
        return records

    def get(self, ref: str) -> RunRecord:
        """Resolve ``ref``: a run id (zero-padding optional), an id

        prefix, or ``latest`` / a negative index counted from the end.
        """
        records = self.ensure_readable()
        if ref in ("latest", "-1"):
            return records[-1]
        if ref.startswith("-") and ref[1:].isdigit():
            index = int(ref)
            if -len(records) <= index:
                return records[index]
            raise KeyError(f"run index {ref} out of range "
                           f"({len(records)} records)")
        matches = [r for r in records if r.run_id == ref]
        if not matches and ref.isdigit():
            matches = [r for r in records if r.run_id == f"{int(ref):06d}"]
        if not matches:
            matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise KeyError(f"no run {ref!r} in {self.path}")
        return matches[-1]

    # -- maintenance (repro runs compact) -------------------------------------

    def compact(self) -> dict:
        """Rewrite the store dropping corrupt/torn lines only.

        Run ids are preserved (they are stored in the records, not
        derived from line numbers on read), and records from *newer*
        schemas are kept verbatim — compaction must never destroy data
        a future version could still read.  Atomic under the lock.
        """
        with FileLock(self.path, timeout=self.lock_timeout):
            read = read_jsonl(self.path, warn=False)
            text = "".join(
                json.dumps(data, sort_keys=True) + "\n"
                for _, data in read.rows
            )
            if not read.missing:
                replace_file(self.path, text)
        return {
            "before_lines": read.lines,
            "after_lines": len(read.rows),
            "dropped_corrupt": len(read.skipped),
        }


# -- diffing ----------------------------------------------------------------


def diff_records(a: RunRecord, b: RunRecord) -> dict[str, Any]:
    """Structured b-minus-a delta: cycles, per-stall-bucket totals,

    per-stage stalled-cycle movers, and ``sim.*`` counter deltas.
    """
    diff: dict[str, Any] = {
        "a": a.run_id or a.app,
        "b": b.run_id or b.app,
        "apps": [a.app, b.app],
        "cycles": {"a": a.cycles, "b": b.cycles,
                   "delta": b.cycles - a.cycles},
        "utilization_delta": round(b.utilization - a.utilization, 6),
        "squash_fraction_delta": round(
            b.squash_fraction - a.squash_fraction, 6
        ),
    }
    if a.stalls is not None and b.stalls is not None:
        totals_a, totals_b = a.stall_totals(), b.stall_totals()
        diff["stall_buckets"] = {
            bucket: {
                "a": totals_a.get(bucket, 0),
                "b": totals_b.get(bucket, 0),
                "delta": totals_b.get(bucket, 0) - totals_a.get(bucket, 0),
            }
            for bucket in {**totals_a, **totals_b}
        }
        stalled_a, stalled_b = a.stage_stalled(), b.stage_stalled()
        movers = {
            stage: stalled_b.get(stage, 0) - stalled_a.get(stage, 0)
            for stage in set(stalled_a) | set(stalled_b)
        }
        diff["stage_movers"] = dict(sorted(
            ((s, d) for s, d in movers.items() if d),
            key=lambda item: -abs(item[1]),
        )[:10])
    if a.critical_path is not None and b.critical_path is not None:
        cp_a, cp_b = a.critical_path, b.critical_path
        buckets_a = cp_a.get("buckets", {})
        buckets_b = cp_b.get("buckets", {})
        diff["critical_path"] = {
            "dominant": {"a": cp_a.get("dominant", "?"),
                         "b": cp_b.get("dominant", "?")},
            "buckets": {
                bucket: {
                    "a": buckets_a.get(bucket, 0),
                    "b": buckets_b.get(bucket, 0),
                    "delta": (buckets_b.get(bucket, 0)
                              - buckets_a.get(bucket, 0)),
                }
                for bucket in {**buckets_a, **buckets_b}
            },
        }
    counters_a = (a.metrics or {}).get("counters", {})
    counters_b = (b.metrics or {}).get("counters", {})
    if counters_a and counters_b:
        deltas = {
            name: counters_b.get(name, 0) - counters_a.get(name, 0)
            for name in sorted(set(counters_a) | set(counters_b))
            if counters_b.get(name, 0) != counters_a.get(name, 0)
        }
        diff["counters"] = deltas
    return diff


def golden_record(golden: dict[str, Any]) -> RunRecord:
    """Adapt a golden fixture (``tests/golden/*.json``) into a record

    diffable against stored runs.  Goldens carry per-stage stall totals
    but no per-reason split, so only cycles/counter deltas and stage
    movers are available against them.
    """
    stats = golden.get("stats", {})
    cycles = golden.get("cycles", 0)
    per_stage_stalls = stats.get("per_stage_stalls", {})
    stalls = {
        stage: {"active": stats.get("per_stage_active", {}).get(stage, 0),
                "stalled": stalled}
        for stage, stalled in per_stage_stalls.items()
    } or None
    return RunRecord(
        kind="golden",
        app=golden.get("app", "?"),
        run_id=f"golden:{golden.get('scenario', '?')}",
        cycles=cycles,
        seconds=0.0,
        utilization=0.0,
        squash_fraction=0.0,
        verified=True,
        platform={"bandwidth_scale": golden.get("bandwidth_scale", 1.0)},
        metrics={"counters": {
            f"sim.{name}": value for name, value in stats.items()
            if isinstance(value, int)
        }},
        stalls=stalls,
    )


def format_records_table(records: list[RunRecord]) -> str:
    """The ``repro runs list`` table."""
    if not records:
        return "(run store is empty)"
    header = (f"{'id':>8s}  {'kind':14s} {'app':10s} {'bw':>4s} "
              f"{'mode':5s} {'cycles':>10s} {'util':>6s} {'squash':>6s} "
              f"{'verified':8s} {'when':20s}")
    lines = [header]
    for r in records:
        bw = r.platform.get("bandwidth_scale", 1.0)
        lines.append(
            f"{r.run_id:>8s}  {r.kind:14s} {r.app:10s} {bw:4.1f} "
            f"{r.sim_mode:5s} {r.cycles:>10d} "
            f"{r.utilization * 100:5.1f}% {r.squash_fraction * 100:5.1f}% "
            f"{'yes' if r.verified else 'NO':8s} {r.timestamp:20s}"
        )
    return "\n".join(lines)


def format_record(record: RunRecord) -> str:
    """The ``repro runs show`` rendering: headline plus stall totals."""
    lines = [
        f"run {record.run_id} [{record.kind}] {record.app} "
        f"({record.app_mode or 'n/a'}"
        + (", host-fed" if record.host_fed else "") + ")",
        f"  schema v{record.schema}  recorded {record.timestamp or 'n/a'}"
        f"  wall {record.wall_seconds:.3f}s",
        f"  platform: bandwidth x{record.platform.get('bandwidth_scale', 1)}"
        f"  config {record.config_digest or 'n/a'}"
        + (f"  seed {record.seed}" if record.seed is not None else ""),
        f"  cycles {record.cycles}  utilization "
        f"{record.utilization * 100:.1f}%  squash "
        f"{record.squash_fraction * 100:.1f}%  "
        f"{'VERIFIED' if record.verified else 'NOT VERIFIED'}",
    ]
    if record.memory:
        lines.append(
            f"  memory: {record.memory.get('bytes', 0)} bytes, "
            f"{record.memory.get('loads', 0)} loads, hit rate "
            f"{record.memory.get('hit_rate', 0.0) * 100:.0f}%"
        )
    if record.stalls is not None:
        totals = record.stall_totals()
        cells = "  ".join(f"{k}={v}" for k, v in totals.items())
        lines.append(f"  stall buckets (cycles x stages): {cells}")
    if record.critical_path is not None:
        buckets = record.critical_path.get("buckets", {})
        cells = "  ".join(f"{k}={v}" for k, v in buckets.items() if v)
        lines.append(
            f"  critical path (dominant "
            f"{record.critical_path.get('dominant', '?')}): {cells}"
        )
    if record.extra:
        lines.append("  extra: "
                     + json.dumps(record.extra, sort_keys=True)[:200])
    return "\n".join(lines)


def format_diff(diff: dict[str, Any]) -> str:
    """Render a :func:`diff_records` result for the terminal."""
    cycles = diff["cycles"]
    lines = [
        f"diff {diff['a']} -> {diff['b']} "
        f"({diff['apps'][0]} vs {diff['apps'][1]})",
        f"  cycles: {cycles['a']} -> {cycles['b']} "
        f"({cycles['delta']:+d})",
        f"  utilization: {diff['utilization_delta']:+.4f}  "
        f"squash fraction: {diff['squash_fraction_delta']:+.4f}",
    ]
    buckets = diff.get("stall_buckets")
    if buckets:
        lines.append("  per-bucket cycle deltas (summed over stages):")
        for bucket, cells in buckets.items():
            lines.append(
                f"    {bucket:14s} {cells['a']:>10d} -> {cells['b']:>10d} "
                f"({cells['delta']:+d})"
            )
    critpath = diff.get("critical_path")
    if critpath:
        dominant = critpath["dominant"]
        shift = (" (BOTTLENECK SHIFTED)"
                 if dominant["a"] != dominant["b"] else "")
        lines.append(f"  critical path: dominant {dominant['a']} -> "
                     f"{dominant['b']}{shift}")
        for bucket, cells in sorted(critpath["buckets"].items(),
                                    key=lambda kv: -abs(kv[1]["delta"])):
            if cells["delta"]:
                lines.append(
                    f"    {bucket:14s} {cells['a']:>10d} -> "
                    f"{cells['b']:>10d} ({cells['delta']:+d})"
                )
    movers = diff.get("stage_movers")
    if movers:
        lines.append("  top stage movers (stalled cycles):")
        for stage, delta in movers.items():
            lines.append(f"    {stage:40s} {delta:+d}")
    counters = diff.get("counters")
    if counters:
        lines.append("  counter deltas:")
        for name, delta in list(counters.items())[:12]:
            lines.append(f"    {name:40s} {delta:+d}")
    return "\n".join(lines)
