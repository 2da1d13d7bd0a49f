"""Zero-dependency HTML dashboard over stored run telemetry.

``render_dashboard`` turns one :class:`~repro.obs.runstore.RunRecord`
(plus optional diagnosis findings and store history) into a single
self-contained static HTML page — inline CSS, inline SVG, no JavaScript,
no external assets — so ``repro dashboard`` output can be opened from a
CI artifact or mailed around as one file.

Sections: run headline, ranked diagnosis findings (read off the
record's critical path), the stall-attribution waterfall (stacked
per-stage bars with a numeric table view), the critical path, the
pipeline-utilization timeline reconstructed from the trace, metrics
tables (counters and latency/occupancy histograms with p50/p95/p99), and
a Figure-10-style bandwidth-sweep chart over every stored run of the
same store (speedup vs the app's own 1x baseline).

Chart conventions follow the repo's dataviz rules: categorical hues in a
fixed order (color follows the bucket/app, never its rank), idle drawn
as neutral gray, 2px gaps between stacked fills, 2px lines, a legend for
two or more series, values and labels in ink — never in the series
color — and native ``<title>`` tooltips so the page stays script-free.
"""

from __future__ import annotations

import html
from typing import Any, Iterable, Sequence

from repro.obs.diagnose import STORES_A_PATH
from repro.obs.runstore import RunRecord, STALL_BUCKETS

# Categorical palette, fixed assignment order (light-mode steps).
PALETTE = (
    "#2a78d6",  # 1 blue
    "#eb6834",  # 2 orange
    "#1baf7a",  # 3 aqua
    "#eda100",  # 4 yellow
    "#e87ba4",  # 5 magenta
    "#008300",  # 6 green
    "#4a3aa7",  # 7 violet
    "#e34948",  # 8 red
)
NEUTRAL = "#c9c8c2"           # idle — absence of work, not a series
SURFACE = "#fcfcfb"
INK = "#21201c"
INK_2 = "#5f5e58"
GRID = "#e8e7e3"

# Stall-bucket colors: fixed by bucket identity (active is always blue,
# memory always aqua, ...), idle always the neutral.
BUCKET_COLORS = {
    "active": PALETTE[0],
    "queue": PALETTE[1],
    "memory": PALETTE[2],
    "rule": PALETTE[3],
    "backpressure": PALETTE[4],
    "stalled": PALETTE[7],
    "idle": NEUTRAL,
}

# Critical-path buckets: shared buckets keep their stall colors, the
# path-only buckets (compute / host / speculation) extend the palette.
CRITPATH_COLORS = {
    "compute": PALETTE[0],
    "queue": PALETTE[1],
    "memory": PALETTE[2],
    "rule": PALETTE[3],
    "backpressure": PALETTE[4],
    "host": PALETTE[5],
    "speculation": PALETTE[7],
}

# Severity → status step (never reused for data series) + text label.
_STATUS = (
    (0.75, "#d03b3b", "critical"),
    (0.50, "#ec835a", "serious"),
    (0.25, "#fab219", "warning"),
    (0.00, "#0ca30c", "minor"),
)

_CSS = """
:root { color-scheme: light; }
body { margin: 0; padding: 24px; background: %(surface)s; color: %(ink)s;
       font: 14px/1.5 system-ui, sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: %(ink2)s; }
.card { background: #fff; border: 1px solid %(grid)s; border-radius: 8px;
        padding: 16px; margin: 12px 0; max-width: 860px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { text-align: left; padding: 3px 12px 3px 0; }
th { color: %(ink2)s; font-weight: 600; border-bottom: 1px solid %(grid)s; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 6px 0;
          color: %(ink2)s; }
.legend span { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 3px;
          display: inline-block; }
.finding { margin: 10px 0; }
.badge { display: inline-block; padding: 0 8px; border-radius: 9px;
         color: #fff; font-size: 12px; }
.evidence { margin: 4px 0 0; color: %(ink2)s; }
details summary { cursor: pointer; color: %(ink2)s; }
svg text { fill: %(ink2)s; font: 11px system-ui, sans-serif; }
""" % {"surface": SURFACE, "ink": INK, "ink2": INK_2, "grid": GRID}


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _severity_badge(severity: float) -> str:
    for floor, color, label in _STATUS:
        if severity >= floor:
            return (f'<span class="badge" style="background:{color}">'
                    f'{label} {severity:.2f}</span>')
    return ""  # pragma: no cover - the 0.0 floor always matches


def _legend(entries: Iterable[tuple[str, str]]) -> str:
    spans = "".join(
        f'<span><i class="swatch" style="background:{color}"></i>'
        f'{_esc(name)}</span>'
        for name, color in entries
    )
    return f'<div class="legend">{spans}</div>'


# ---------------------------------------------------------------------------
# SVG helpers
# ---------------------------------------------------------------------------


def _stall_waterfall(record: RunRecord) -> str:
    """Stacked horizontal bars: one row per stage, cycles by bucket."""
    stalls = record.stalls or {}
    if not stalls:
        return '<p class="sub">run was stored without stall attribution ' \
               '(observability off)</p>'
    buckets = ("active",) + STALL_BUCKETS + ("stalled", "idle")
    rows = sorted(
        stalls.items(),
        key=lambda item: -sum(item[1].get(b, 0) for b in buckets[1:-1]),
    )
    label_w, chart_w, bar_h, gap = 230, 560, 14, 8
    height = len(rows) * (bar_h + gap) + 24
    parts = [
        f'<svg viewBox="0 0 {label_w + chart_w + 8} {height}" '
        f'width="{label_w + chart_w + 8}" role="img" '
        'aria-label="stall attribution per stage">'
    ]
    for i, (stage, cells) in enumerate(rows):
        y = i * (bar_h + gap)
        total = cells.get("total", record.cycles) or 1
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 3}" '
            f'text-anchor="end">{_esc(stage)}</text>'
        )
        x = float(label_w)
        for bucket in buckets:
            cycles = cells.get(bucket, 0)
            if not cycles:
                continue
            width = cycles / total * chart_w
            # 2px surface gap between stacked fills.
            draw_w = max(width - 2, 0.5)
            share = cycles / total * 100
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{draw_w:.1f}" '
                f'height="{bar_h}" rx="2" '
                f'fill="{BUCKET_COLORS[bucket]}">'
                f'<title>{_esc(stage)} — {bucket}: {cycles} cycles '
                f'({share:.1f}%)</title></rect>'
            )
            x += width
    parts.append("</svg>")
    legend = _legend(
        (b, BUCKET_COLORS[b]) for b in buckets
        if any(r.get(b, 0) for r in stalls.values())
    )
    table = _stall_table(rows, buckets)
    return legend + "".join(parts) + table


def _stall_table(rows, buckets) -> str:
    head = "".join(f'<th class="num">{_esc(b)}</th>' for b in buckets)
    body = []
    for stage, cells in rows:
        nums = "".join(
            f'<td class="num">{cells.get(b, 0)}</td>' for b in buckets
        )
        body.append(f"<tr><td>{_esc(stage)}</td>{nums}</tr>")
    return (
        '<details><summary>table view</summary><table>'
        f"<tr><th>stage</th>{head}</tr>{''.join(body)}</table></details>"
    )


def _critpath_section(record: RunRecord) -> str:
    """The measured critical path: one stacked bar over ``[0, cycles]``,
    the what-if projection table, and the longest segments."""
    critpath = record.critical_path
    if not critpath:
        return ('<p class="sub">run was stored without a token ledger — '
                'simulate with <code>repro critpath APP</code> to '
                'extract the path</p>')
    total = critpath.get("total_cycles", 0) or 1
    buckets = critpath.get("buckets", {})
    order = [b for b in CRITPATH_COLORS if buckets.get(b, 0)]
    w, bar_h = 760, 18
    parts = [
        f'<svg viewBox="0 0 {w} {bar_h + 20}" width="{w}" role="img" '
        'aria-label="critical path bucket decomposition">'
    ]
    x = 0.0
    for bucket in order:
        cycles = buckets[bucket]
        width = cycles / total * w
        parts.append(
            f'<rect x="{x:.1f}" y="0" width="{max(width - 2, 0.5):.1f}" '
            f'height="{bar_h}" rx="2" fill="{CRITPATH_COLORS[bucket]}">'
            f'<title>{bucket}: {cycles} cycles '
            f'({cycles / total * 100:.1f}%)</title></rect>'
        )
        x += width
    parts.append(
        f'<text x="0" y="{bar_h + 14}">cycle 0</text>'
        f'<text x="{w}" y="{bar_h + 14}" text-anchor="end">'
        f'cycle {total}</text></svg>'
    )
    legend = _legend((b, CRITPATH_COLORS[b]) for b in order)
    waste = critpath.get("wasted_speculation", {})
    headline = (
        f'<p class="sub">dominant bucket <strong>'
        f'{_esc(critpath.get("dominant", "?"))}</strong> · '
        f'{critpath.get("path_tokens", 0)} tokens, '
        f'{critpath.get("path_segments", 0)} segments on the path · '
        f'{waste.get("tokens", 0)} doomed tokens '
        f'({waste.get("cycles", 0)} token-cycles) off it</p>'
    )
    what_if = critpath.get("what_if", {})
    projections = "<table><tr><th>what-if</th>" \
        '<th class="num">saves &le;</th><th class="num">speedup &le;' \
        "</th></tr>" + "".join(
            f"<tr><td>{_esc(name)}</td>"
            f'<td class="num">{proj.get("saved_cycles", 0)}</td>'
            f'<td class="num">{proj.get("speedup_bound", 1.0):.3f}x'
            "</td></tr>"
            for name, proj in sorted(what_if.items())
        ) + "</table>"
    segments = critpath.get("segments", [])
    seg_rows = "".join(
        f'<tr><td class="num">{s.get("cycles", 0)}</td>'
        f'<td class="num">[{s.get("start", 0)}, {s.get("end", 0)})</td>'
        f'<td>{_esc(s.get("bucket", "?"))}</td>'
        f'<td>{_esc(s.get("detail", ""))}</td></tr>'
        for s in segments
    )
    seg_table = (
        '<details><summary>longest segments</summary><table>'
        '<tr><th class="num">cycles</th><th class="num">span</th>'
        f"<th>bucket</th><th>detail</th></tr>{seg_rows}</table></details>"
        if segments else ""
    )
    return headline + legend + "".join(parts) + projections + seg_table


def _line_points(
    values: Sequence[float], width: float, height: float, pad: float,
    y_max: float,
) -> list[tuple[float, float]]:
    n = len(values)
    span = width - 2 * pad
    step = span / max(n - 1, 1)
    return [
        (pad + i * step,
         height - pad - (v / y_max) * (height - 2 * pad))
        for i, v in enumerate(values)
    ]


def _utilization_timeline(record: RunRecord) -> str:
    timeline = record.timeline or {}
    series = timeline.get("utilization") or []
    if not series:
        return '<p class="sub">no utilization timeline in this record</p>'
    bucket = timeline.get("bucket_cycles", 1)
    w, h, pad = 760, 180, 28
    y_max = max(max(series), 0.001)
    pts = _line_points(series, w, h, pad, y_max)
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    grid = "".join(
        f'<line x1="{pad}" y1="{h - pad - frac * (h - 2 * pad):.1f}" '
        f'x2="{w - pad}" y2="{h - pad - frac * (h - 2 * pad):.1f}" '
        f'stroke="{GRID}"/>'
        f'<text x="{pad - 6}" y="{h - pad - frac * (h - 2 * pad) + 4:.1f}" '
        f'text-anchor="end">{frac * y_max * 100:.0f}%</text>'
        for frac in (0.0, 0.5, 1.0)
    )
    # Invisible per-bucket hover strips give native tooltips without JS.
    strip_w = (w - 2 * pad) / len(series)
    hovers = "".join(
        f'<rect x="{pad + i * strip_w:.1f}" y="{pad}" '
        f'width="{strip_w:.2f}" height="{h - 2 * pad}" fill="transparent">'
        f'<title>cycles {i * bucket}–{(i + 1) * bucket}: '
        f'{v * 100:.2f}% utilized</title></rect>'
        for i, v in enumerate(series)
    )
    return (
        f'<svg viewBox="0 0 {w} {h}" width="{w}" role="img" '
        'aria-label="pipeline utilization over time">'
        f"{grid}"
        f'<polyline points="{path}" fill="none" stroke="{PALETTE[0]}" '
        'stroke-width="2"/>'
        f"{hovers}"
        f'<text x="{pad}" y="{h - 6}">cycle 0</text>'
        f'<text x="{w - pad}" y="{h - 6}" text-anchor="end">'
        f'cycle {len(series) * bucket}</text>'
        "</svg>"
        f'<p class="sub">bucket width {bucket} cycles; utilization = '
        "active stage-cycles / (stages × cycles)</p>"
    )


def _bandwidth_sweep(history: Sequence[RunRecord]) -> str:
    """Figure-10-style speedup-vs-bandwidth lines from the run store."""
    by_app: dict[str, dict[float, RunRecord]] = {}
    for rec in history:
        if rec.kind == "golden" or not rec.cycles:
            continue
        bw = rec.platform.get("bandwidth_scale", 1.0)
        by_app.setdefault(rec.app, {})[bw] = rec  # latest run wins
    series: list[tuple[str, list[tuple[float, float]]]] = []
    for app, points in by_app.items():  # first-seen order = color order
        if len(points) < 2:
            continue
        baseline = points.get(1.0) or points[min(points)]
        pts = sorted(
            (bw, baseline.cycles / rec.cycles)
            for bw, rec in points.items()
        )
        series.append((app, pts))
    if not series:
        return ('<p class="sub">need runs of one app at two or more '
                'bandwidth scales to draw the sweep — e.g. '
                '<code>repro simulate SPEC-BFS --bandwidth 2</code></p>')
    w, h, pad = 760, 220, 36
    bws = sorted({bw for _, pts in series for bw, _ in pts})
    y_max = max(max(s for _, s in pts) for _, pts in series) * 1.1
    x_min, x_max = min(bws), max(bws)

    def sx(bw: float) -> float:
        span = (x_max - x_min) or 1.0
        return pad + (bw - x_min) / span * (w - 2 * pad)

    def sy(speedup: float) -> float:
        return h - pad - (speedup / y_max) * (h - 2 * pad)

    grid = "".join(
        f'<line x1="{sx(bw):.1f}" y1="{pad}" x2="{sx(bw):.1f}" '
        f'y2="{h - pad}" stroke="{GRID}"/>'
        f'<text x="{sx(bw):.1f}" y="{h - pad + 14}" text-anchor="middle">'
        f'{bw:g}x</text>'
        for bw in bws
    ) + "".join(
        f'<line x1="{pad}" y1="{sy(v):.1f}" x2="{w - pad}" '
        f'y2="{sy(v):.1f}" stroke="{GRID}"/>'
        f'<text x="{pad - 6}" y="{sy(v) + 4:.1f}" text-anchor="end">'
        f'{v:g}</text>'
        for v in (1.0, y_max / 1.1)
    )
    marks = []
    for index, (app, pts) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        path = " ".join(f"{sx(bw):.1f},{sy(s):.1f}" for bw, s in pts)
        marks.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for bw, speedup in pts:
            marks.append(
                f'<circle cx="{sx(bw):.1f}" cy="{sy(speedup):.1f}" r="4" '
                f'fill="{color}" stroke="#fff" stroke-width="2">'
                f'<title>{_esc(app)} @ {bw:g}x bandwidth: '
                f'{speedup:.2f}x speedup</title></circle>'
            )
    legend = _legend(
        (app, PALETTE[i % len(PALETTE)]) for i, (app, _) in
        enumerate(series)
    )
    rows = "".join(
        f"<tr><td>{_esc(app)}</td>"
        + "".join(f'<td class="num">{s:.2f}</td>' for _, s in pts)
        + "</tr>"
        for app, pts in series
    )
    table = (
        '<details><summary>table view</summary><table>'
        "<tr><th>app</th>"
        + "".join(f'<th class="num">{bw:g}x</th>' for bw in bws)
        + f"</tr>{rows}</table></details>"
    )
    return (
        legend
        + f'<svg viewBox="0 0 {w} {h}" width="{w}" role="img" '
        'aria-label="speedup versus bandwidth scale">'
        f'{grid}{"".join(marks)}'
        f'<text x="{w - pad}" y="{h - 4}" text-anchor="end">'
        "QPI bandwidth scale</text></svg>"
        '<p class="sub">speedup relative to each app\'s own 1x-bandwidth '
        "run (cycle ratio), latest stored run per (app, bandwidth)</p>"
        + table
    )


def _fleet_timeline(record: RunRecord) -> str:
    """Worker-timeline SVG: one lane per pid, one bar per executed job."""
    spans = (record.extra or {}).get("jobs") or []
    spans = [
        s for s in spans
        if isinstance(s.get("start"), (int, float))
        and isinstance(s.get("end"), (int, float))
    ]
    if not spans:
        return ('<p class="sub">no per-job spans in this record (all '
                "points were cache hits, or the sweep stored none)</p>")
    t0 = min(s["start"] for s in spans)
    t1 = max(max(s["end"], s["start"]) for s in spans)
    span_s = max(t1 - t0, 1e-6)
    pids = sorted({s.get("pid", 0) for s in spans})
    label_w, chart_w, bar_h, gap = 120, 640, 16, 8
    height = len(pids) * (bar_h + gap) + 24
    parts = [
        f'<svg viewBox="0 0 {label_w + chart_w + 8} {height}" '
        f'width="{label_w + chart_w + 8}" role="img" '
        'aria-label="worker timeline">'
    ]
    lane = {pid: i for i, pid in enumerate(pids)}
    for pid in pids:
        y = lane[pid] * (bar_h + gap)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 4}" '
            f'text-anchor="end">pid {pid}</text>'
        )
    for index, s in enumerate(sorted(spans, key=lambda s: s["start"])):
        y = lane[s.get("pid", 0)] * (bar_h + gap)
        x = label_w + (s["start"] - t0) / span_s * chart_w
        width = max((s["end"] - s["start"]) / span_s * chart_w, 0.5)
        # Errors in the status red, healthy jobs cycling the palette;
        # 2px surface gaps between adjacent fills.
        color = "#d03b3b" if s.get("error") else \
            PALETTE[index % len(PALETTE)]
        dur = s["end"] - s["start"]
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{max(width - 2, 0.5):.1f}" '
            f'height="{bar_h}" rx="2" fill="{color}">'
            f'<title>{_esc(s.get("tag", "?"))} on pid '
            f'{s.get("pid", "?")}: {dur:.3f}s'
            f'{" — FAILED" if s.get("error") else ""}</title></rect>'
        )
    parts.append(
        f'<text x="{label_w}" y="{height - 4}">0s</text>'
        f'<text x="{label_w + chart_w}" y="{height - 4}" '
        f'text-anchor="end">{span_s:.2f}s</text></svg>'
    )
    return "".join(parts)


def _fleet_section(record: RunRecord) -> str:
    """Sweep-level "fleet" page: worker timeline, cache economics,
    lock contention — rendered only for ``kind == "sweep"`` records."""
    sweep = (record.extra or {}).get("sweep") or {}
    metrics = record.metrics or {}
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    gauges = metrics.get("gauges", {})

    facts = [
        ("points", sweep.get("points", 0)),
        ("cache hits", sweep.get("hits", 0)),
        ("simulated", sweep.get("executed", 0)),
        ("retried", sweep.get("retried", 0)),
        ("errors", sweep.get("errors", 0)),
        ("quarantined", sweep.get("quarantined", 0)),
        ("workers", sweep.get("jobs", 1)),
        ("hit rate", f"{sweep.get('hit_rate', 0.0) * 100:.0f}%"),
        ("points/s", f"{sweep.get('points_per_sec', 0.0):.2f}"),
        ("busy fraction",
         f"{gauges.get('exec.workers.busy_fraction', 0.0) * 100:.0f}%"),
    ]
    summary = "<table>" + "".join(
        f"<tr><th>{_esc(k)}</th><td class=\"num\">{_esc(v)}</td></tr>"
        for k, v in facts
    ) + "</table>"

    lookup = histograms.get("exec.cache.lookup_us", {})
    commit = histograms.get("exec.store.commit_us", {})
    economics = "<table><tr><th>cache economics</th>" \
        "<th class=\"num\">value</th></tr>" + "".join(
            f"<tr><td>{_esc(name)}</td><td class=\"num\">{_esc(v)}</td></tr>"
            for name, v in (
                ("lookups (hit)", counters.get("exec.cache.hits", 0)),
                ("lookups (miss)", counters.get("exec.cache.misses", 0)),
                ("uncacheable", counters.get("exec.cache.uncacheable", 0)),
                ("lookup p95", f"{lookup.get('p95', 0.0):.0f} µs"),
                ("commit p95", f"{commit.get('p95', 0.0):.0f} µs"),
            )
        ) + "</table>"

    contention = "<table><tr><th>lock contention</th>" \
        "<th class=\"num\">value</th></tr>" + "".join(
            f"<tr><td>{_esc(name)}</td><td class=\"num\">{_esc(v)}</td></tr>"
            for name, v in (
                ("acquires", counters.get("io.lock.acquires", 0)),
                ("contended", counters.get("io.lock.contended", 0)),
                ("total wait", f"{counters.get('io.lock.wait_ms', 0)} ms"),
                ("stale broken", counters.get("io.lock.stale_broken", 0)),
                ("timeouts", counters.get("io.lock.timeouts", 0)),
            )
        ) + "</table>"

    return summary + _fleet_timeline(record) + economics + contention


# ---------------------------------------------------------------------------
# Non-chart sections
# ---------------------------------------------------------------------------


def _headline(record: RunRecord) -> str:
    facts = [
        ("cycles", f"{record.cycles}"),
        ("time", f"{record.seconds * 1e6:.1f} µs"),
        ("utilization", f"{record.utilization * 100:.1f}%"),
        ("squash", f"{record.squash_fraction * 100:.1f}%"),
        ("hit rate",
         f"{record.memory.get('hit_rate', 0.0) * 100:.0f}%"),
        ("bandwidth",
         f"x{record.platform.get('bandwidth_scale', 1):g}"),
        ("mode", record.sim_mode),
        ("verified", "yes" if record.verified else "NO"),
    ]
    cells = "".join(
        f"<tr><th>{_esc(k)}</th><td class=\"num\">{_esc(v)}</td></tr>"
        for k, v in facts
    )
    meta = (
        f"run {record.run_id or 'unsaved'} · {record.kind} · "
        f"{record.app_mode or 'n/a'}"
        + (" · host-fed" if record.host_fed else "")
        + f" · config {record.config_digest or 'n/a'}"
        + (f" · seed {record.seed}" if record.seed is not None else "")
        + (f" · {record.timestamp}" if record.timestamp else "")
    )
    return (f'<p class="sub">{_esc(meta)}</p><table>{cells}</table>')


def _findings_section(record: RunRecord, findings) -> str:
    if not findings:
        if record.critical_path is None:
            return ('<p class="sub">no findings: the run was stored '
                    f"without a critical path; {_esc(STORES_A_PATH)}</p>")
        return '<p class="sub">no findings</p>'
    blocks = []
    for rank, finding in enumerate(findings, 1):
        evidence = "".join(
            f"<li>{_esc(line)}</li>" for line in finding.evidence
        )
        blocks.append(
            f'<div class="finding">{rank}. '
            f"{_severity_badge(finding.severity)} "
            f"<strong>{_esc(finding.code)}</strong> — "
            f"{_esc(finding.title)}"
            f'<ul class="evidence">{evidence}</ul></div>'
        )
    return "".join(blocks)


def _metrics_tables(record: RunRecord) -> str:
    metrics = record.metrics or {}
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    parts = []
    if counters:
        rows = "".join(
            f"<tr><td>{_esc(name)}</td><td class=\"num\">{value}</td></tr>"
            for name, value in sorted(counters.items())
        )
        parts.append(
            "<table><tr><th>counter</th><th class=\"num\">value</th></tr>"
            f"{rows}</table>"
        )
    if histograms:
        rows = "".join(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class=\"num\">{h.get('count', 0)}</td>"
            f"<td class=\"num\">{h.get('mean', 0.0):.2f}</td>"
            f"<td class=\"num\">{h.get('p50', 0.0):.1f}</td>"
            f"<td class=\"num\">{h.get('p95', 0.0):.1f}</td>"
            f"<td class=\"num\">{h.get('p99', 0.0):.1f}</td>"
            f"<td class=\"num\">{h.get('max', 0)}</td></tr>"
            for name, h in sorted(histograms.items())
        )
        parts.append(
            "<table><tr><th>histogram</th><th class=\"num\">count</th>"
            "<th class=\"num\">mean</th><th class=\"num\">p50</th>"
            "<th class=\"num\">p95</th><th class=\"num\">p99</th>"
            "<th class=\"num\">max</th></tr>"
            f"{rows}</table>"
        )
    if not parts:
        return '<p class="sub">record carries no metrics snapshot</p>'
    return "".join(parts)


def _history_table(history: Sequence[RunRecord]) -> str:
    recent = list(history)[-12:]
    rows = "".join(
        f"<tr><td>{_esc(r.run_id)}</td><td>{_esc(r.kind)}</td>"
        f"<td>{_esc(r.app)}</td>"
        f"<td class=\"num\">{r.platform.get('bandwidth_scale', 1):g}x</td>"
        f"<td class=\"num\">{r.cycles}</td>"
        f"<td class=\"num\">{r.utilization * 100:.1f}%</td>"
        f"<td>{'yes' if r.verified else 'NO'}</td>"
        f"<td>{_esc(r.timestamp)}</td></tr>"
        for r in reversed(recent)
    )
    return (
        "<table><tr><th>id</th><th>kind</th><th>app</th>"
        "<th class=\"num\">bw</th><th class=\"num\">cycles</th>"
        "<th class=\"num\">util</th><th>verified</th><th>when</th></tr>"
        f"{rows}</table>"
    )


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------


def render_dashboard(
    record: RunRecord,
    findings=None,
    history: Sequence[RunRecord] | None = None,
) -> str:
    """The whole page as one HTML string."""
    history = list(history or [])
    if record.kind == "sweep" or (record.extra or {}).get("sweep"):
        sections = [
            ("Fleet (sweep execution)", _fleet_section(record)),
            ("Metrics", _metrics_tables(record)),
        ]
    else:
        sections = [
            ("Diagnosis", _findings_section(record, findings)),
            ("Stall attribution", _stall_waterfall(record)),
            ("Critical path", _critpath_section(record)),
            ("Pipeline utilization", _utilization_timeline(record)),
            ("Bandwidth sweep (Figure 10)", _bandwidth_sweep(history)),
            ("Metrics", _metrics_tables(record)),
        ]
    if history:
        sections.append(("Recent runs", _history_table(history)))
    body = "".join(
        f'<div class="card"><h2>{_esc(title)}</h2>{content}</div>'
        for title, content in sections
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>repro dashboard — {_esc(record.app)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{_esc(record.app)} run telemetry</h1>"
        f"{_headline(record)}{body}"
        "</body></html>"
    )


def write_dashboard(
    path,
    record: RunRecord,
    findings=None,
    history: Sequence[RunRecord] | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(record, findings, history))
