"""Tests for the self-contained HTML run report (repro.obs.report).

The hard guarantee is self-containment: a report must render with zero
network access, so it may not contain a single ``http`` substring (no
scripts, fonts, stylesheets, xmlns declarations).  Sections must be
present whether their data source is populated or absent, and the
``repro report`` CLI must produce such a file end to end.  A report
describes its own run only: nothing in the working directory reaches it.
"""

import json

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report, write_report
from repro.obs.tracer import SpanTracer
from repro.streaming.autotune import load_samples

SECTIONS = (
    "Wall time by layer",
    "Auto-tuner",
    "Sweep cells",
)


def _fixture_inputs():
    tracer = SpanTracer()
    tracer.enable()
    with tracer.span("update"):
        pass
    with tracer.span("compute"):
        pass
    tracer.disable()

    metrics = MetricsRegistry()
    metrics.enable()
    metrics.gauge("native_loaded", "native library loaded").set(1.0)
    metrics.histogram("sweep_cell_seconds", "cell wall", dataset="RMAT").observe(0.5)
    metrics.counter("sweep_cells_total", "cells", status="computed").inc(3)
    metrics.disable()

    autotune = {
        "dataset": "RMAT",
        "summary": {"batches": 2, "switches": 1},
        "decisions": [
            {"batch": batch, "structure": structure, "reason": reason,
             "predicted_seconds": 1e-3, "actual_seconds": actual}
            for batch, structure, reason, actual in (
                (0, "AS", "start", 1.2e-3), (1, "DAH", "switch", 0.8e-3)
            )
        ],
    }
    return dict(
        tracer=tracer,
        metrics=metrics,
        autotune=autotune,
        meta={"command": "test"},
    )


def test_full_report_is_self_contained():
    html = render_report(**_fixture_inputs())
    assert "http" not in html
    assert "<!DOCTYPE html>" in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    # Populated sections actually render their data, not the fallback.
    assert "<td>native_loaded</td>" in html
    assert 'class="bar-fill"' in html            # layer bars
    assert "RMAT" in html                        # sweep cell table
    assert 'class="spark"' in html               # auto-tuner sparkline
    # All text is escaped through one path; no stray raw angle brackets
    # from data values (the fixture has none, so count must balance).
    assert html.count("<section>") == html.count("</section>")


def test_empty_report_degrades_gracefully():
    html = render_report()
    assert "http" not in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    assert "No span data" in html
    assert "Not an adaptive run" in html


def test_escaping():
    html = render_report(meta={"cmd": '<script>alert("x")</script>'})
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_write_report(tmp_path):
    path = tmp_path / "report.html"
    written = write_report(path, meta={"command": "unit"})
    assert written == str(path)
    assert "http" not in path.read_text()


def test_cli_report_end_to_end(tmp_path):
    """``repro report`` on a tiny live run: self-contained HTML with a
    populated layer table, plus the optional update-sample file."""
    out = tmp_path / "report.html"
    model_out = tmp_path / "samples.json"
    rc = main([
        "report",
        "--out", str(out),
        "--dataset", "RMAT",
        "--size-factor", "0.05",
        "--batch-size", "250",
        "--algorithms", "BFS",
        "--model-out", str(model_out),
    ])
    assert rc == 0
    html = out.read_text()
    assert "http" not in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    # The live run populated the layer table.
    assert 'class="bar-fill"' in html
    assert '<span class="bar-label">driver</span>' in html
    assert "span_coverage_ratio" in html
    assert "No span data" not in html
    # One update sample per structure per batch, as versioned JSON.
    samples = load_samples(model_out)
    assert {structure for structure, _, _ in samples} == {"AS", "AC", "Stinger", "DAH"}
    assert len(samples) % 4 == 0
    assert all(ops > 0 and seconds > 0 for _, ops, seconds in samples)


def test_report_depends_only_on_its_run(tmp_path, monkeypatch):
    """A history file in the working directory -- here one whose last
    record is a 2x slowdown, in the record layout the removed history
    writer used -- must not reach a ``--report-out`` report."""
    records = [
        {
            "schema": 1,
            "bench": "kernels",
            "sha": f"abc{i}",
            "ts": 1700000000.0 + i,
            "fingerprint": "0123456789abcdef",
            "workload": {"batch": 500},
            "timings": {"total_seconds": seconds},
            "env": {},
        }
        for i, seconds in enumerate((1.0, 1.0, 1.0, 1.0, 2.0))
    ]
    (tmp_path / "BENCH_history.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )
    monkeypatch.chdir(tmp_path)
    assert main(["stream", "--quick", "--no-cache", "--report-out", "R"]) == 0
    html = (tmp_path / "R").read_text()
    assert "<h2>Wall time by layer</h2>" in html
    assert "&#9888;" not in html
    assert "Regression verdicts" not in html
    assert "Bench history" not in html
