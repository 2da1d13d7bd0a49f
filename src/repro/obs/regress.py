"""Rule-based regression detection over run-store series.

``repro runs diff`` answers "what changed between these two runs?";
this module answers the question CI actually asks of a run store: *did
anything get worse, and why?*  :func:`regress_store` walks a run store,
groups records into series (same kind, app, seed, config digest,
bandwidth, sim mode), and applies the rules to each series' trajectory.
Running it twice on an unchanged store reports the same (possibly
empty) findings — it never mutates anything.

Host time is not judged here: a stored wall clock is one noisy sample.
Speed across commits is the job of the benchmark of record
(``python3 -m bench.run``, compared with ``python3 -m bench.compare``).

Rules and noise bands:

===============  ========  ==================================================
rule             severity  trigger
===============  ========  ==================================================
cycle-drift      fail      exact cycle count changed within a series (cycles
                           are fully deterministic — any drift is a
                           behaviour change, not noise)
critpath-shift   warn      the dominant critical-path bucket changed
                           between the two latest ledgered runs of a
                           series — the bottleneck regime moved even if
                           the cycle count did not
===============  ========  ==================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

_CYCLE_DIAGNOSIS = (
    "cycle counts are deterministic: any drift is a behaviour change, "
    "not noise. Localize it with `repro runs diff` / `repro diagnose`; "
    "if the change is intentional, regenerate the goldens "
    "(scripts/update_goldens.py) and commit them."
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

    rule: str                 # cycle-drift | critpath-shift
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
    a mixed one).  Sweep and golden records form no series.
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


def regress_store(records: Iterable) -> list[Regression]:
    """Apply the rules to every series in a run store's records."""
    series: dict[tuple, list] = {}
    for record in records:
        key = series_key(record)
        if key is not None:
            series.setdefault(key, []).append(record)

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
