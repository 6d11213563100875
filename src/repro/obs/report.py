"""Self-contained HTML run reports.

One HTML file, zero external assets (no scripts, no fonts, no
stylesheets, no network fetches of any kind): styling is an inline
``<style>`` block and every chart is inline SVG, so the file renders
identically from a file URL on an air-gapped machine and can be
attached to CI runs as a single artifact.

The report is assembled from whatever observability surfaces the run
produced -- each section degrades to an explanatory note when its data
source is absent:

- **wall time by layer** from the span tracer's layer table, the one
  ``--profile`` prints;
- **sweep cells** from the metrics registry's sweep counters;
- **auto-tuner** decisions and latency sparklines from an adaptive
  run's decision log.

A report describes its own run and nothing else: it reads no file and
compares with no earlier run.

Charts follow the repo's chart conventions: one series-identity color
per role (validated categorical slots 1-2), text in text tokens only,
light and dark from the same markup via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Validated palette (reference instance): categorical slots 1-2 plus
# chrome tokens, each with its dark-surface step.
_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e1e0d9;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --series-1: #3987e5;
    --series-2: #d95926;
    --border: rgba(255, 255, 255, 0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 2rem;
  background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
  line-height: 1.5;
}
main { max-width: 72rem; margin: 0 auto; }
h1 { font-size: 1.4rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 0.5rem; }
section {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 1rem 1.25rem;
  margin-top: 1rem;
}
.subtitle { color: var(--text-secondary); margin-bottom: 1rem; }
.note { color: var(--text-secondary); font-style: italic; }
table { border-collapse: collapse; width: 100%; margin-top: 0.5rem; }
th, td {
  text-align: left;
  padding: 0.3rem 0.75rem 0.3rem 0;
  border-bottom: 1px solid var(--grid);
}
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar-row { display: flex; align-items: center; gap: 0.6rem; margin: 0.2rem 0; }
.bar-label { flex: 0 0 14rem; color: var(--text-secondary); text-align: right; }
.bar-track { flex: 1; }
.bar-fill {
  height: 14px;
  background: var(--series-1);
  border-radius: 0 4px 4px 0;
  min-width: 2px;
}
.bar-value {
  flex: 0 0 7rem;
  color: var(--text-primary);
  font-variant-numeric: tabular-nums;
}
.legend { display: flex; gap: 1.25rem; margin: 0.4rem 0; color: var(--text-secondary); }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 0.35rem;
}
figure { margin: 0; }
figcaption { color: var(--text-secondary); margin-top: 0.25rem; }
svg .spark { stroke: var(--series-1); stroke-width: 2; fill: none; }
svg .spark-dot { fill: var(--series-2); }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _section(title: str, body: str) -> str:
    return f"<section><h2>{_esc(title)}</h2>\n{body}\n</section>"


def _meta_section(meta: Dict[str, object], metrics) -> str:
    rows = [(str(k), str(v)) for k, v in (meta or {}).items()]
    if metrics is not None:
        try:
            rows.append(("native_loaded", f"{metrics.value('native_loaded'):g}"))
        except ValueError:
            pass
    if not rows:
        return ""
    cells = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return _section(
        "Run environment", f"<table><tbody>{cells}</tbody></table>"
    )


def _layer_section(tracer) -> str:
    rows = tracer.table() if tracer is not None else []
    if not rows:
        return _section(
            "Wall time by layer",
            '<p class="note">No span data: run with tracing enabled '
            "(--profile / --trace-out) to populate this section.</p>",
        )
    top = max(own for _, _, own, _ in rows) or 1.0
    bars = []
    for name, total, own, calls in rows:
        width = max(100.0 * own / top, 0.5)
        bars.append(
            '<div class="bar-row">'
            f'<span class="bar-label">{_esc(name)}</span>'
            '<span class="bar-track">'
            f'<div class="bar-fill" style="width:{width:.1f}%"></div></span>'
            f'<span class="bar-value">{_fmt_seconds(own)} self of '
            f"{_fmt_seconds(total)} &middot; {calls}&times;</span>"
            "</div>"
        )
    return _section(
        "Wall time by layer",
        "<p class=\"subtitle\">Self time per span: its wall time less its "
        "child spans'; the self times sum to the driver span's total "
        f"(span_coverage_ratio {tracer.span_coverage_ratio():.3f}).</p>"
        + "".join(bars),
    )


def sweep_cells(metrics) -> Tuple[int, int, List[Tuple[str, int, float]]]:
    """``(computed, cached, [(dataset, cells, wall seconds), ...])``."""
    per_dataset: List[Tuple[str, int, float]] = []
    for name, _kind, _help, series in metrics.families():
        if name == "sweep_cell_seconds":
            per_dataset = sorted(
                (dict(labelset).get("dataset", ""), metric.count, metric.sum)
                for labelset, metric in series
            )
    return (
        int(metrics.value("sweep_cells_total", status="computed")),
        int(metrics.value("sweep_cells_total", status="cached")),
        per_dataset,
    )


def _sweep_section(metrics) -> str:
    if metrics is None:
        return _section(
            "Sweep cells",
            '<p class="note">No metrics registry captured for this run.</p>',
        )
    computed, cached, per_dataset = sweep_cells(metrics)
    if not per_dataset and not (computed or cached):
        return _section(
            "Sweep cells",
            '<p class="note">This run went through no sweep engine cells '
            "(single driver run, or metrics were off).</p>",
        )
    body = (
        f"<p class=\"subtitle\">{computed} cells computed, "
        f"{cached} requests served from cache.</p>"
    )
    if per_dataset:
        rows = "".join(
            f"<tr><td>{_esc(dataset)}</td>"
            f'<td class="num">{count}</td>'
            f'<td class="num">{_fmt_seconds(total)}</td>'
            f'<td class="num">{_fmt_seconds(total / count if count else 0.0)}</td>'
            "</tr>"
            for dataset, count, total in per_dataset
        )
        body += (
            '<table><thead><tr><th>dataset</th><th class="num">cells</th>'
            '<th class="num">wall total</th><th class="num">wall mean</th>'
            f"</tr></thead><tbody>{rows}</tbody></table>"
        )
    return _section("Sweep cells", body)


def _autotune_section(autotune: Optional[dict]) -> str:
    if not autotune or not autotune.get("decisions"):
        return _section(
            "Auto-tuner",
            '<p class="note">Not an adaptive run: use '
            "structures=('adaptive',) (repro autotune) to populate this "
            "section.</p>",
        )
    summary = autotune.get("summary", {})
    decisions = autotune["decisions"]
    predicted = [float(d.get("predicted_seconds", 0.0)) for d in decisions]
    actual = [float(d.get("actual_seconds", 0.0)) for d in decisions]
    body = (
        "<p class=\"subtitle\">Per-batch (structure, model) decisions of "
        f"the online auto-tuner over {_esc(autotune.get('dataset', '?'))}: "
        f"{summary.get('batches', len(decisions))} batches, "
        f"{summary.get('switches', 0)} live migrations costing "
        f"{_fmt_seconds(float(summary.get('migration_seconds', 0.0)))}, "
        "estimated regret vs the best candidate "
        f"{_fmt_seconds(float(summary.get('est_regret_seconds', 0.0)))}.</p>"
    )
    if len(actual) >= 2:
        body += (
            '<div class="legend">'
            '<span><span class="swatch" '
            'style="background:var(--series-1)"></span>actual</span>'
            '<span><span class="swatch" '
            'style="background:var(--series-2)"></span>predicted (dot: '
            "last)</span></div>"
            f"<figure>{_sparkline(actual, width=420)}"
            "<figcaption>actual per-batch latency</figcaption></figure>"
            f"<figure>{_sparkline(predicted, width=420)}"
            "<figcaption>predicted per-batch latency</figcaption></figure>"
        )
    switch_rows = [
        d for d in decisions
        if d.get("reason") in ("switch", "explore", "forced", "start")
        or float(d.get("migration_seconds", 0.0)) > 0.0
    ]
    rows = "".join(
        f"<tr><td class=\"num\">{int(d.get('batch', 0))}</td>"
        f"<td>{_esc(d.get('structure', ''))}</td>"
        f"<td>{_esc(d.get('reason', ''))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('predicted_seconds', 0.0)))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('actual_seconds', 0.0)))}</td>"
        f"<td class=\"num\">"
        f"{_fmt_seconds(float(d.get('migration_seconds', 0.0)))}</td></tr>"
        for d in switch_rows
    )
    if rows:
        body += (
            "<p class=\"subtitle\">Decisions that placed or moved the live "
            "structure (steady-state holds omitted).</p>"
            '<table><thead><tr><th class="num">batch</th>'
            '<th>structure</th><th>reason</th>'
            '<th class="num">predicted</th><th class="num">actual</th>'
            '<th class="num">migration</th></tr></thead>'
            f"<tbody>{rows}</tbody></table>"
        )
    return _section("Auto-tuner", body)


def _sparkline(values: Sequence[float], width: int = 140, height: int = 28) -> str:
    if len(values) < 2:
        return ""
    v_max = max(values) or 1.0
    v_min = min(values)
    span = (v_max - v_min) or 1.0
    step = (width - 8) / (len(values) - 1)
    points = " ".join(
        f"{4 + i * step:.1f},{4 + (height - 8) * (1 - (v - v_min) / span):.1f}"
        for i, v in enumerate(values)
    )
    last_x = 4 + (len(values) - 1) * step
    last_y = 4 + (height - 8) * (1 - (values[-1] - v_min) / span)
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="trend">'
        f'<polyline class="spark" points="{points}"/>'
        f'<circle class="spark-dot" cx="{last_x:.1f}" cy="{last_y:.1f}" r="3"/>'
        "</svg>"
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def render_report(
    title: str = "SAGA-Bench run report",
    meta: Optional[Dict[str, object]] = None,
    tracer=None,
    metrics=None,
    autotune: Optional[dict] = None,
) -> str:
    """The full report as one self-contained HTML string.

    Every input is optional; omitted surfaces render as explanatory
    notes so a report is always complete and honest about what the run
    did and did not observe.
    """
    sections = [
        _meta_section(meta or {}, metrics),
        _layer_section(tracer),
        _autotune_section(autotune),
        _sweep_section(metrics),
    ]
    body = "\n".join(part for part in sections if part)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        f"<h1>{_esc(title)}</h1>\n"
        '<p class="subtitle">Single-file report: inline styles and inline '
        "SVG only, no external assets.</p>\n"
        f"{body}\n</main>\n</body>\n</html>\n"
    )


def write_report(path, **kwargs) -> str:
    """Render and write the report; returns the path written."""
    Path(path).write_text(render_report(**kwargs))
    return str(path)
