"""Rule-based regression detection over run-store series.

``repro runs diff`` answers "what changed between these two runs?";
this module answers the question CI actually asks of a run store: *did
anything get worse, and why?*  :func:`regress_store` walks a run store,
groups records into series (same kind, app, seed, config digest,
bandwidth, sim mode), and applies the rules to each series' trajectory.
Running it twice on an unchanged store reports the same (possibly
empty) findings — it never mutates anything.

Host time only ever warns here, because a stored wall clock is one noisy
sample.  Speed across commits is the job of the benchmark of record
(``python3 -m bench.run``, compared with ``python3 -m bench.compare``).

Rules and noise bands:

===============  ========  ==================================================
rule             severity  trigger
===============  ========  ==================================================
cycle-drift      fail      exact cycle count changed within a series (cycles
                           are fully deterministic — any drift is a
                           behaviour change, not noise)
wall-clock       warn      latest wall clock above the series median by
                           more than ``wall_band`` (needs >=
                           ``min_wall_samples`` records — thin series are
                           all noise)
points-per-sec   warn      sweep throughput below the series median by
                           more than the band (wall-clock rules warn,
                           never fail: they are host-dependent)
critpath-shift   warn      the dominant critical-path bucket changed
                           between the two latest ledgered runs of a
                           series — the bottleneck regime moved even if
                           the cycle count did not
===============  ========  ==================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

DEFAULT_WALL_BAND = 0.5        # +50% over the series median
DEFAULT_MIN_WALL_SAMPLES = 4

_CYCLE_DIAGNOSIS = (
    "cycle counts are deterministic: any drift is a behaviour change, "
    "not noise. Localize it with `repro runs diff` / `repro diagnose`; "
    "if the change is intentional, regenerate the goldens "
    "(scripts/update_goldens.py) and commit them."
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


@dataclass
class Regression:
    """One rule violation, with enough context to act on it."""

    rule: str                 # cycle-drift | wall-clock | points-per-sec | ...
    where: str                # the series it fired in
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
    # An unseeded run's key holds seed None: order None before any value.
    for key, runs in sorted(
        series.items(),
        key=lambda item: [(part is not None, part) for part in item[0]],
    ):
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
