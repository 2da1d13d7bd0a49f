"""Fleet observability: cross-process sweep tracing and live progress.

The per-sim tracer (PR 2) sees one simulation from the inside; this
module sees the *sweep* from the outside — which worker ran which job
when, what each job spent rebuilding its spec vs simulating, and how far
a running (or crashed) sweep has progressed.

Three cooperating pieces:

* :class:`FleetRecorder` — span collection.  The sweep's parent
  process writes every row of ``fleet-spans.jsonl``: a meta line per
  sweep, the sweep span, and one job span per executed attempt, built
  from the :class:`~repro.exec.job.JobOutcome` that attempt returned
  (its worker pid, start, wall clock and phase windows cross the pool
  boundary with the result).  Rows go through the crash-safe
  :func:`append_line` primitive (lock held, no fsync — telemetry rides
  the same torn-tolerant reader as everything else, and a lost tail
  costs one span, not a result).  No worker touches the file.
* :func:`merge_fleet_trace` — post-hoc merge of the span file into one
  Chrome ``trace_event`` JSON, one lane per real worker pid, with
  nested spec-rebuild/simulate phase slices under each job span and the
  sweep-level span on the master lane.  Opens directly in Perfetto;
  per-sim tracer documents can be merged alongside.
* :class:`SweepProgress` — live progress.  A throttled stderr heartbeat
  plus a machine-readable ``sweep-status.json`` rewritten atomically
  (:func:`replace_file`) on every completed point, so ``repro
  sweep-status`` can read a consistent snapshot while the sweep runs —
  or after it crashed (the dead pid tells the reader which).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any

from repro.io.safety import append_line, pid_alive, read_jsonl, replace_file

SPANS_FILENAME = "fleet-spans.jsonl"
STATUS_FILENAME = "sweep-status.json"
SPAN_SCHEMA = 1
STATUS_SCHEMA = 1


# ---------------------------------------------------------------------------
# Span recording
# ---------------------------------------------------------------------------


class FleetRecorder:
    """One file of spans covering every process of a sweep, written by
    the sweep's parent."""

    def __init__(self, root: str | Path = ".repro") -> None:
        self.root = Path(root)
        self.path = self.root / SPANS_FILENAME
        self._begun = False

    def begin(self, sweep_id: str, points: int) -> None:
        """Start (or extend) recording.

        The first ``begin`` of a recorder truncates any stale span file;
        later ones (a command running several sweeps back to back, e.g.
        a fault campaign's baselines then trials) append a fresh meta
        line so the merged trace keeps every sweep.
        """
        meta = json.dumps({
            "schema": SPAN_SCHEMA,
            "kind": "meta",
            "sweep_id": sweep_id,
            "points": points,
            "t0": time.time(),
            "pid": os.getpid(),
        }, sort_keys=True)
        if not self._begun:
            self.root.mkdir(parents=True, exist_ok=True)
            replace_file(self.path, meta + "\n")
            self._begun = True
        else:
            append_line(self.path, meta, fsync=False)

    def record_span(self, name: str, start: float, end: float,
                    **args: Any) -> None:
        """Parent-side span (sweep, store-commit, ...)."""
        self._write({
            "kind": "span",
            "name": name,
            "pid": os.getpid(),
            "start": start,
            "end": end,
            **({"args": args} if args else {}),
        })

    def record_job(self, job, outcome, key: str) -> None:
        """One job span for an executed attempt, from its outcome: the
        pid that ran it, its start and wall clock, its phase windows."""
        start = outcome.started or time.time()
        self._write({
            "kind": "job",
            "name": job.tag or job.app,
            "app": job.app,
            "key": key,
            "pid": outcome.worker_pid or os.getpid(),
            "start": start,
            "end": start + outcome.wall_seconds,
            "phases": outcome.phases or {},
            "error": bool(outcome.error),
        })

    def spans(self) -> list[dict]:
        return read_jsonl(self.path, warn=False).dicts

    def _write(self, row: dict) -> None:
        # fsync=False: spans are telemetry, not results — a torn tail
        # after a crash loses at most one span and read_jsonl skips it.
        try:
            append_line(self.path, json.dumps(
                {"schema": SPAN_SCHEMA, **row}, sort_keys=True
            ), fsync=False)
        except OSError:
            pass  # never let telemetry take down a sweep


# ---------------------------------------------------------------------------
# Chrome-trace merge
# ---------------------------------------------------------------------------


def merge_fleet_trace(
    source: FleetRecorder | str | Path | list,
    sim_traces: list[dict] | tuple = (),
) -> dict:
    """Merge recorded spans into one Chrome ``trace_event`` document.

    One trace process per real worker pid (the sweep master's lane is
    labelled as such), "X" complete events for jobs with nested phase
    slices, all timestamps in microseconds relative to the earliest
    sweep ``t0``.  ``sim_traces`` (documents from the per-sim
    :class:`~repro.obs.tracer.EventTracer`) are appended untouched —
    their synthetic pids 1–5 never collide with real worker pids.
    """
    if isinstance(source, FleetRecorder):
        rows = source.spans()
    elif isinstance(source, (str, Path)):
        rows = read_jsonl(source, warn=False).dicts
    else:
        rows = list(source)

    metas = [r for r in rows if r.get("kind") == "meta"]
    spans = [r for r in rows if r.get("kind") in ("job", "span")]
    starts = [r["start"] for r in spans
              if isinstance(r.get("start"), (int, float))]
    t0 = min(
        [m["t0"] for m in metas if isinstance(m.get("t0"), (int, float))]
        + starts,
        default=0.0,
    )
    master_pids = {m.get("pid") for m in metas}

    events: list[dict] = []
    seen_pids: list[int] = []

    def lane(pid: int) -> None:
        if pid in seen_pids:
            return
        seen_pids.append(pid)
        label = ("sweep master" if pid in master_pids
                 else f"worker {pid}")
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })

    def us(seconds: float) -> int:
        return max(0, int(round((seconds - t0) * 1e6)))

    for row in spans:
        start, end = row.get("start"), row.get("end")
        if not isinstance(start, (int, float)):
            continue
        if not isinstance(end, (int, float)) or end < start:
            end = start
        pid = row.get("pid") or 0
        lane(pid)
        args = dict(row.get("args") or {})
        if row.get("kind") == "job":
            args.update({
                "app": row.get("app", ""),
                "key": row.get("key", ""),
                "error": bool(row.get("error")),
            })
        events.append({
            "name": row.get("name", "?"),
            "cat": "fleet" if row.get("kind") == "span" else "job",
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "ts": us(start),
            "dur": max(0, int(round((end - start) * 1e6))),
            "args": args,
        })
        phases = row.get("phases") or {}
        for phase, window in sorted(phases.items()):
            if (not isinstance(window, (list, tuple)) or len(window) != 2
                    or not all(isinstance(v, (int, float))
                               for v in window)):
                continue
            offset, duration = window
            events.append({
                "name": phase,
                "cat": "phase",
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": us(start + offset),
                "dur": max(0, int(round(duration * 1e6))),
                "args": {"job": row.get("name", "?")},
            })

    # Metadata first, then slices in timestamp order — Perfetto does not
    # require the sort, but it makes the document diffable and lets the
    # tests assert monotonicity.
    meta_events = [e for e in events if e["ph"] == "M"]
    slice_events = sorted(
        (e for e in events if e["ph"] != "M"),
        key=lambda e: (e["ts"], e["pid"], e["name"]),
    )
    merged = meta_events + slice_events
    for doc in sim_traces:
        merged.extend(doc.get("traceEvents", []))
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro fleet",
            "sweeps": [m.get("sweep_id", "") for m in metas],
            "workers": sorted(p for p in seen_pids
                              if p not in master_pids),
        },
    }


def write_fleet_trace(
    path: str | Path,
    source: FleetRecorder | str | Path | list,
    sim_traces: list[dict] | tuple = (),
) -> dict:
    doc = merge_fleet_trace(source, sim_traces)
    replace_file(path, json.dumps(doc, indent=1, sort_keys=True))
    return doc


# ---------------------------------------------------------------------------
# Live progress
# ---------------------------------------------------------------------------


class SweepProgress:
    """Heartbeat + crash-readable status file for one sweep.

    The status file is rewritten atomically on every update, so a reader
    never sees a torn snapshot; the heartbeat goes to stderr (stdout of
    every sweep-running command is byte-stable and diffed in CI).
    """

    def __init__(
        self,
        root: str | Path | None,
        *,
        heartbeat: bool = False,
        stream=None,
        interval: float = 0.5,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.path = (self.root / STATUS_FILENAME
                     if self.root is not None else None)
        self.heartbeat = heartbeat
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._state: dict[str, Any] = {}
        self._last_beat = 0.0

    def begin(self, sweep_id: str, points: int, jobs: int,
              hits: int = 0) -> None:
        self._state = {
            "schema": STATUS_SCHEMA,
            "sweep_id": sweep_id,
            "state": "running",
            "points": points,
            "done": hits,
            "hits": hits,
            "executed": 0,
            "retried": 0,
            "errors": 0,
            "quarantined": 0,
            "jobs": jobs,
            "pid": os.getpid(),
            "started": time.time(),
            "updated": time.time(),
        }
        self._write()
        self._beat(force=True)

    def update(self, **counts: int) -> None:
        if not self._state:
            return
        self._state.update(counts)
        self._state["done"] = (
            self._state["hits"] + self._state["executed"]
        )
        self._state["updated"] = time.time()
        self._write()
        self._beat()

    def finish(self, state: str = "done") -> None:
        if not self._state:
            return
        self._state["state"] = state
        self._state["updated"] = time.time()
        self._write()
        self._beat(force=True)

    # -- internals ---------------------------------------------------------

    def _write(self) -> None:
        if self.path is None:
            return
        try:
            replace_file(
                self.path, json.dumps(self._state, sort_keys=True) + "\n"
            )
        except OSError:
            pass  # progress must never take down the sweep

    def _beat(self, force: bool = False) -> None:
        if not self.heartbeat:
            return
        now = time.monotonic()
        if not force and now - self._last_beat < self.interval:
            return
        self._last_beat = now
        print(f"\r{format_status(self._state, brief=True)}",
              end="" if self._state.get("state") == "running" else "\n",
              file=self.stream, flush=True)


def load_status(root: str | Path) -> dict | None:
    """Read ``sweep-status.json`` from a store directory, or None."""
    path = Path(root) / STATUS_FILENAME
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "state" not in data:
        return None
    # A "running" sweep whose recorded pid is gone crashed (or was
    # killed) between updates — report that instead of a live sweep.
    if data.get("state") == "running" and not pid_alive(data.get("pid")):
        data["state"] = "crashed"
    return data


def format_status(status: dict, brief: bool = False) -> str:
    done = status.get("done", 0)
    points = status.get("points", 0)
    state = status.get("state", "?")
    parts = [
        f"{done}/{points} points",
        f"{status.get('hits', 0)} cache hits",
        f"{status.get('executed', 0)} simulated",
    ]
    if status.get("retried"):
        parts.append(f"{status['retried']} retried")
    if status.get("errors"):
        parts.append(f"{status['errors']} errors")
    if status.get("quarantined"):
        parts.append(f"{status['quarantined']} quarantined")
    started = status.get("started")
    updated = status.get("updated")
    if isinstance(started, (int, float)) and isinstance(
            updated, (int, float)):
        parts.append(f"{max(0.0, updated - started):.1f}s")
    line = f"sweep {state}: " + ", ".join(parts)
    if brief:
        return line
    details = [line]
    if state == "crashed":
        details.append(
            f"  pid {status.get('pid', '?')} is gone; resume with "
            f"--resume to keep completed points"
        )
    elif state == "running":
        details.append(f"  pid {status.get('pid', '?')} alive, "
                       f"{status.get('jobs', 1)} workers")
    if status.get("sweep_id"):
        details.append(f"  sweep id {status['sweep_id']}")
    return "\n".join(details)
