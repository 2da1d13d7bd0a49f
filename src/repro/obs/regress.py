"""Rule-based regression detection over run-store series and benchmarks.

``repro runs diff`` answers "what changed between these two runs?";
this module answers the question CI actually asks: *did anything get
worse, and why?*  Two comparators share one finding type:

* :func:`regress_store` — walks a run store, groups records into series
  (same kind, app, seed, config digest, bandwidth, sim mode), and
  applies the rules to each series' trajectory.  Running it twice on an
  unchanged store reports the same (possibly empty) findings — it never
  mutates anything.
* :func:`regress_bench` — compares a freshly generated ``BENCH_*.json``
  against a committed baseline: exact cycle equality, warm-cache hit
  rate, and machine-normalized speedup floors (the same gates
  ``scripts/bench_check.py`` has enforced since PR 3, now with a
  diagnosis attached to every failure).

Rules and noise bands:

===============  ========  ==================================================
rule             severity  trigger
===============  ========  ==================================================
cycle-drift      fail      exact cycle count changed within a series /
                           differs from the benchmark baseline (cycles are
                           fully deterministic — any drift is a behaviour
                           change, not noise)
hit-rate         fail      warm-cache sweep hit rate below 1.0
speedup-floor    fail      engine-matrix or parallel-sweep
                           speedup below ``baseline * (1 - tolerance)``,
                           or an event-engine speedup below its row's
                           absolute ``event_floor``
wall-clock       warn      latest wall clock above the series median by
                           more than ``wall_band`` (needs >=
                           ``min_wall_samples`` records — thin series are
                           all noise)
points-per-sec   warn      sweep throughput below baseline by more than
                           the band (wall-clock rules warn, never fail:
                           they are host-dependent)
critpath-shift   warn      the dominant critical-path bucket changed
                           between the two latest ledgered runs of a
                           series — the bottleneck regime moved even if
                           the cycle count did not
===============  ========  ==================================================

``regress_bench`` additionally understands the ``ledger`` section of
``BENCH_*.json`` (zero-cost contract): ledger-off cycles must match the
baseline exactly, ledger-on must finish at the same cycle as ledger-off
(both fail), and the ledger-off wall clock / recording overhead get the
usual warn-only noise band.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

DEFAULT_WALL_BAND = 0.5        # +50% over the series median
DEFAULT_MIN_WALL_SAMPLES = 4
DEFAULT_SPEEDUP_TOLERANCE = 0.2
DEFAULT_SWEEP_TOLERANCE = 0.35

_CYCLE_DIAGNOSIS = (
    "cycle counts are deterministic: any drift is a behaviour change, "
    "not noise. Localize it with `repro runs diff` / `repro diagnose`; "
    "if the change is intentional, re-record the baseline "
    "(scripts/bench_smoke.py) and commit it."
)
_SPEEDUP_DIAGNOSIS = (
    "machine-normalized speedup regressed beyond its tolerance band — "
    "profile the affected path (`repro profile --engine event`, or the "
    "sweep fleet page in `repro dashboard`) before re-recording "
    "baselines."
)
_WALL_DIAGNOSIS = (
    "wall clock is host-dependent, so this is a warning: check the "
    "fleet page (worker timeline, lock contention, cache economics) "
    "to see where the time went."
)
_CRITPATH_DIAGNOSIS = (
    "the dominant critical-path bucket moved between runs of the same "
    "configuration: the bottleneck regime changed even if the cycle "
    "count did not. Compare the chains with `repro runs diff` or "
    "`repro critpath APP --json`."
)
_LEDGER_DIAGNOSIS = (
    "a disabled TokenLedger must be zero-cost: ledger-off cycles must "
    "match the committed baseline exactly, and ledger-on runs must "
    "finish at the same cycle. Any drift means the provenance hooks "
    "leaked into simulated behaviour."
)


@dataclass
class Regression:
    """One rule violation, with enough context to act on it."""

    rule: str                 # cycle-drift | hit-rate | speedup-floor | ...
    where: str                # series / benchmark section it fired in
    message: str
    severity: str = "fail"    # "fail" (exit non-zero) | "warn"
    diagnosis: str = ""
    current: float | None = None
    baseline: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Run-store series
# ---------------------------------------------------------------------------


def series_key(record) -> tuple | None:
    """The identity under which runs are comparable, or None to skip.

    Everything that legitimately changes cycles is part of the key:
    app, seed, config digest, platform bandwidth, sim mode (event is
    cycle-exact vs dense by contract, but regress keeps them separate so
    an event-engine bug reads as *its* series drifting, not as noise in
    a mixed one).  Sweep and golden records are handled separately.
    """
    if record.kind in ("golden", "sweep") or record.cycles <= 0:
        return None
    return (
        record.kind,
        record.app,
        record.seed,
        record.config_digest,
        record.platform.get("bandwidth_scale", 1.0),
        record.sim_mode,
        bool(record.extra.get("faults")) if record.extra else False,
    )


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def regress_store(
    records: Iterable,
    *,
    wall_band: float = DEFAULT_WALL_BAND,
    min_wall_samples: int = DEFAULT_MIN_WALL_SAMPLES,
) -> list[Regression]:
    """Apply the rules to every series in a run store's records."""
    series: dict[tuple, list] = {}
    sweeps: dict[tuple, list] = {}
    for record in records:
        key = series_key(record)
        if key is not None:
            series.setdefault(key, []).append(record)
            continue
        if record.kind == "sweep":
            sweep = (record.extra or {}).get("sweep", {})
            skey = (record.app, (record.extra or {}).get("command", ""),
                    sweep.get("jobs", 1))
            sweeps.setdefault(skey, []).append(record)

    findings: list[Regression] = []
    for key, runs in sorted(series.items()):
        kind, app, seed, digest, bandwidth, mode = key[:6]
        where = (f"{kind}/{app} bw={bandwidth:g} mode={mode}"
                 + (f" seed={seed}" if seed is not None else ""))
        latest = runs[-1]
        prior = runs[:-1]
        if prior and latest.cycles != prior[-1].cycles:
            delta = latest.cycles - prior[-1].cycles
            pct = 100.0 * delta / prior[-1].cycles
            findings.append(Regression(
                rule="cycle-drift",
                where=where,
                severity="fail",
                message=(f"cycles {prior[-1].cycles} -> {latest.cycles} "
                         f"({delta:+d}, {pct:+.1f}%) between runs "
                         f"{prior[-1].run_id} and {latest.run_id}"),
                diagnosis=_CYCLE_DIAGNOSIS,
                current=float(latest.cycles),
                baseline=float(prior[-1].cycles),
            ))
        paths = [r for r in runs
                 if getattr(r, "critical_path", None) is not None]
        if len(paths) >= 2:
            want = paths[-2].critical_path.get("dominant", "?")
            have = paths[-1].critical_path.get("dominant", "?")
            if want != have:
                findings.append(Regression(
                    rule="critpath-shift",
                    where=where,
                    severity="warn",
                    message=(f"dominant critical-path bucket {want} -> "
                             f"{have} between runs "
                             f"{paths[-2].run_id} and {paths[-1].run_id}"),
                    diagnosis=_CRITPATH_DIAGNOSIS,
                ))
        walls = [r.wall_seconds for r in prior if r.wall_seconds > 0]
        if (len(walls) + 1 >= min_wall_samples and walls
                and latest.wall_seconds > 0):
            median = _median(walls)
            if median > 0 and latest.wall_seconds > median * (1 + wall_band):
                findings.append(Regression(
                    rule="wall-clock",
                    where=where,
                    severity="warn",
                    message=(f"wall {latest.wall_seconds:.3f}s vs series "
                             f"median {median:.3f}s "
                             f"(+{100 * (latest.wall_seconds / median - 1):.0f}%"
                             f" > {wall_band:.0%} band, "
                             f"{len(walls)} prior runs)"),
                    diagnosis=_WALL_DIAGNOSIS,
                    current=latest.wall_seconds,
                    baseline=median,
                ))

    for skey, runs in sorted(sweeps.items()):
        app, command, jobs = skey
        where = f"sweep/{command or app} jobs={jobs}"
        rates = [
            (r.extra or {}).get("sweep", {}).get("points_per_sec", 0.0)
            for r in runs
        ]
        prior = [rate for rate in rates[:-1] if rate > 0]
        latest = rates[-1]
        if len(prior) + 1 >= min_wall_samples and latest > 0:
            median = _median(prior)
            if median > 0 and latest < median / (1 + wall_band):
                findings.append(Regression(
                    rule="points-per-sec",
                    where=where,
                    severity="warn",
                    message=(f"throughput {latest:.2f} points/s vs median "
                             f"{median:.2f} ({wall_band:.0%} band)"),
                    diagnosis=_WALL_DIAGNOSIS,
                    current=latest,
                    baseline=median,
                ))
    return findings


# ---------------------------------------------------------------------------
# BENCH_*.json trajectories
# ---------------------------------------------------------------------------


def _cycle_drift(where: str, want, have) -> Regression | None:
    if have is None:
        return Regression(
            rule="cycle-drift", where=where, severity="fail",
            message="present in baseline, missing from current result",
            diagnosis=_CYCLE_DIAGNOSIS,
            baseline=float(want) if isinstance(want, (int, float)) else None,
        )
    if want is not None and have != want:
        return Regression(
            rule="cycle-drift", where=where, severity="fail",
            message=(f"cycles {want} -> {have} ({have - want:+d}, "
                     f"{100.0 * (have - want) / want:+.1f}%)"),
            diagnosis=_CYCLE_DIAGNOSIS,
            current=float(have), baseline=float(want),
        )
    return None


def _speedup_floor(where: str, want, have, tolerance: float,
                   label: str) -> Regression | None:
    """Multiplicative floor, matching bench_check's historical gate:
    ``floor = baseline * (1 - tolerance)``."""
    if not isinstance(want, (int, float)) \
            or not isinstance(have, (int, float)):
        return None
    floor = want * (1.0 - tolerance)
    if have >= floor:
        return None
    return Regression(
        rule="speedup-floor", where=where, severity="fail",
        message=(f"{label} regressed to {have:.2f}x "
                 f"(baseline {want:.2f}x, floor {floor:.2f}x)"),
        diagnosis=_SPEEDUP_DIAGNOSIS,
        current=float(have), baseline=float(want),
    )


def regress_bench(
    current: dict,
    baseline: dict,
    *,
    speedup_tolerance: float = DEFAULT_SPEEDUP_TOLERANCE,
    sweep_tolerance: float = DEFAULT_SWEEP_TOLERANCE,
    wall_band: float = DEFAULT_WALL_BAND,
) -> list[Regression]:
    """Compare a fresh benchmark document against a committed baseline.

    Understands every ``bench_smoke.py`` shape: ``--sweep`` documents
    (``points`` tag->cycles, ``sweep`` serial/parallel/warm_cache), the
    default document (``runs`` app->{cycles,...}, plus ``ledger``
    app->{cycles, off, on, overhead} under ``--ledger``), and
    ``--events`` documents (``engines`` profile->app->{cycles,
    event_speedup}, where rows may carry an absolute ``event_floor``).
    """
    findings: list[Regression] = []

    # points: tag -> cycles (int), exact.
    cur_points = current.get("points") or {}
    for tag, want in sorted((baseline.get("points") or {}).items()):
        finding = _cycle_drift(f"points[{tag}]", want, cur_points.get(tag))
        if finding:
            findings.append(finding)

    # runs: app -> {"cycles": int, ...}, exact.
    cur_runs = current.get("runs") or {}
    for app, base_row in sorted((baseline.get("runs") or {}).items()):
        row = cur_runs.get(app)
        finding = _cycle_drift(
            f"runs[{app}]",
            base_row.get("cycles") if isinstance(base_row, dict) else None,
            row.get("cycles") if isinstance(row, dict) else None,
        )
        if finding:
            findings.append(finding)

    # engines: profile -> app -> {"cycles", "event_speedup"[,
    # "event_floor"]}.  Cycles are exact; the event-engine speedup gets
    # the relative floor against the baseline, and rows that declare an
    # absolute "event_floor" (the memory-bound 10x contract) are
    # additionally gated against it with no tolerance.
    cur_engines = current.get("engines") or {}
    for profile, base_apps in sorted(
        (baseline.get("engines") or {}).items()
    ):
        cur_apps = cur_engines.get(profile) or {}
        for app, base_row in sorted(base_apps.items()):
            if not isinstance(base_row, dict):
                continue
            row = cur_apps.get(app)
            where = f"engines[{profile}][{app}]"
            if not isinstance(row, dict):
                findings.append(Regression(
                    rule="cycle-drift", where=where, severity="fail",
                    message="present in baseline, missing from current "
                            "result",
                    diagnosis=_CYCLE_DIAGNOSIS,
                ))
                continue
            finding = _cycle_drift(where, base_row.get("cycles"),
                                   row.get("cycles"))
            if finding:
                findings.append(finding)
            finding = _speedup_floor(
                where, base_row.get("event_speedup"),
                row.get("event_speedup"), speedup_tolerance,
                "event-engine speedup",
            )
            if finding:
                findings.append(finding)
            floor = base_row.get("event_floor")
            have = row.get("event_speedup")
            if (isinstance(floor, (int, float))
                    and isinstance(have, (int, float)) and have < floor):
                findings.append(Regression(
                    rule="speedup-floor", where=where, severity="fail",
                    message=(f"event-engine speedup {have:.2f}x below "
                             f"the absolute {floor:.2f}x floor"),
                    diagnosis=_SPEEDUP_DIAGNOSIS,
                    current=float(have), baseline=float(floor),
                ))

    # ledger: app -> {"cycles", "off": {...}, "on": {...}, "overhead"}.
    # The zero-cost contract: ledger-off cycles match the baseline
    # exactly AND ledger-on finishes at the same cycle (both fail);
    # ledger-off wall clock and recording overhead are warn-band gated
    # like every other host-dependent number.
    cur_ledger = current.get("ledger") or {}
    for app, base_row in sorted((baseline.get("ledger") or {}).items()):
        if not isinstance(base_row, dict):
            continue
        row = cur_ledger.get(app)
        where = f"ledger[{app}]"
        if not isinstance(row, dict):
            findings.append(Regression(
                rule="cycle-drift", where=where, severity="fail",
                message="present in baseline, missing from current "
                        "result",
                diagnosis=_LEDGER_DIAGNOSIS,
            ))
            continue
        finding = _cycle_drift(where, base_row.get("cycles"),
                               row.get("cycles"))
        if finding:
            finding.diagnosis = _LEDGER_DIAGNOSIS
            findings.append(finding)
        on_cycles = (row.get("on") or {}).get("cycles")
        off_cycles = (row.get("off") or {}).get("cycles")
        if (isinstance(on_cycles, int) and isinstance(off_cycles, int)
                and on_cycles != off_cycles):
            findings.append(Regression(
                rule="cycle-drift", where=f"{where}/on-vs-off",
                severity="fail",
                message=(f"ledger-on run finished at {on_cycles} cycles "
                         f"vs {off_cycles} ledger-off — recording "
                         "perturbed the simulation"),
                diagnosis=_LEDGER_DIAGNOSIS,
                current=float(on_cycles), baseline=float(off_cycles),
            ))
        want_wall = (base_row.get("off") or {}).get("wall_seconds")
        have_wall = (row.get("off") or {}).get("wall_seconds")
        if (isinstance(want_wall, (int, float)) and want_wall > 0
                and isinstance(have_wall, (int, float))
                and have_wall > want_wall * (1 + wall_band)):
            findings.append(Regression(
                rule="wall-clock", where=f"{where}/off",
                severity="warn",
                message=(f"ledger-off wall {have_wall:.2f}s vs baseline "
                         f"{want_wall:.2f}s (> {wall_band:.0%} band) — "
                         "the disabled ledger should cost nothing"),
                diagnosis=_WALL_DIAGNOSIS,
                current=float(have_wall), baseline=float(want_wall),
            ))
        want_over = base_row.get("overhead")
        have_over = row.get("overhead")
        if (isinstance(want_over, (int, float)) and want_over > 0
                and isinstance(have_over, (int, float))
                and have_over > want_over * (1 + wall_band)):
            findings.append(Regression(
                rule="wall-clock", where=f"{where}/overhead",
                severity="warn",
                message=(f"ledger recording overhead {have_over:.2f}x vs "
                         f"baseline {want_over:.2f}x "
                         f"(> {wall_band:.0%} band)"),
                diagnosis=_WALL_DIAGNOSIS,
                current=float(have_over), baseline=float(want_over),
            ))

    # sweep: warm-cache hit rate (exact), parallel speedup (floor),
    # wall clocks (warn-only noise band).
    base_sweep = baseline.get("sweep") or {}
    cur_sweep = current.get("sweep") or {}
    if base_sweep and cur_sweep:
        hit_rate = (cur_sweep.get("warm_cache") or {}).get("hit_rate", 0.0)
        if isinstance(hit_rate, (int, float)) and hit_rate < 1.0:
            findings.append(Regression(
                rule="hit-rate", where="sweep/warm_cache",
                severity="fail",
                message=(f"warm-cache hit rate {hit_rate:.2f} < 1.00 — "
                         "digests are unstable or the cache dropped "
                         "entries"),
                diagnosis=("a warm rerun of an identical sweep must hit "
                           "on every point; check JOB_SCHEMA bumps and "
                           "`repro cache verify`"),
                current=float(hit_rate), baseline=1.0,
            ))
        finding = _speedup_floor(
            "sweep/parallel_speedup", base_sweep.get("parallel_speedup"),
            cur_sweep.get("parallel_speedup"), sweep_tolerance,
            "parallel speedup",
        )
        if finding:
            findings.append(finding)
        for leg in ("serial", "parallel"):
            want = (base_sweep.get(leg) or {}).get("wall_seconds")
            have = (cur_sweep.get(leg) or {}).get("wall_seconds")
            if (isinstance(want, (int, float)) and want > 0
                    and isinstance(have, (int, float))
                    and have > want * (1 + wall_band)):
                findings.append(Regression(
                    rule="points-per-sec", where=f"sweep/{leg}",
                    severity="warn",
                    message=(f"{leg} wall {have:.2f}s vs baseline "
                             f"{want:.2f}s (> {wall_band:.0%} band)"),
                    diagnosis=_WALL_DIAGNOSIS,
                    current=float(have), baseline=float(want),
                ))
    return findings


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def format_regressions(findings: list[Regression],
                       quiet_message: str = "no regressions found") -> str:
    if not findings:
        return quiet_message
    fails = [f for f in findings if f.severity == "fail"]
    warns = [f for f in findings if f.severity != "fail"]
    lines = [f"{len(fails)} regression(s), {len(warns)} warning(s):"]
    for finding in fails + warns:
        marker = "FAIL" if finding.severity == "fail" else "warn"
        lines.append(f"  {marker} [{finding.rule}] {finding.where}: "
                     f"{finding.message}")
        if finding.diagnosis:
            lines.append(f"       -> {finding.diagnosis}")
    return "\n".join(lines)
