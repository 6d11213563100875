"""Tests for the self-contained HTML run report (repro.obs.report).

The hard guarantee is self-containment: a report must render with zero
network access, so it may not contain a single ``http`` substring (no
scripts, fonts, stylesheets, xmlns declarations).  Sections must be
present whether their data source is populated or absent, and the
``repro report`` CLI must produce such a file end to end.
"""

import json

import pytest

from repro.bench.harness import make_record
from repro.cli import main
from repro.obs.baseline import detect_regressions, inject_slowdown
from repro.obs.metrics import MetricsRegistry
from repro.obs.model import fit_cost_model
from repro.obs.report import render_report, write_report
from repro.obs.tracer import SpanTracer

SECTIONS = (
    "Phase breakdown",
    "Cost model",
    "Sweep cells",
    "Regression verdicts",
    "Bench history",
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
    metrics.gauge("ckernel_loaded", "compiled kernels active").set(1.0)
    metrics.gauge("sim_ckernel_loaded", "sim library active").set(1.0)
    metrics.histogram("sweep_cell_seconds", "cell wall", dataset="RMAT").observe(0.5)
    metrics.counter("sweep_cells_total", "cells", status="computed").inc(3)
    metrics.disable()

    features = [
        {"phase": "compute", "structure": "AC", "algorithm": "PR",
         "model": "INC", "t_seconds": 0.1 + 1e-6 * ops, "ops": float(ops),
         "batch_edges": 500.0}
        for ops in (1000, 2000, 4000)
    ]
    model = fit_cost_model(features)

    base = [
        make_record("kernels", {"batch": 500}, {"total_seconds": 1.0 + 0.01 * i},
                    sha="abc", ts=1700000000.0 + i)
        for i in range(4)
    ]
    history = base + [inject_slowdown(base[-1], factor=2.0)]
    verdicts = detect_regressions(history)
    assert verdicts  # the fixture really carries a regression
    return dict(
        tracer=tracer,
        metrics=metrics,
        features=features,
        model=model,
        verdicts=verdicts,
        history=history,
        meta={"command": "test"},
    )


def test_full_report_is_self_contained():
    html = render_report(**_fixture_inputs())
    assert "http" not in html
    assert "<!DOCTYPE html>" in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    # Populated sections actually render their data, not the fallback.
    assert "<td>ckernel_loaded</td>" in html
    assert "<td>sim_ckernel_loaded</td>" in html
    assert 'class="bar-fill"' in html            # phase bars
    assert 'aria-label="fit vs observed"' in html  # model chart
    assert "RMAT" in html                        # sweep cell table
    assert "&#9888;" in html                     # regression warning mark
    assert 'class="spark"' in html               # history sparkline
    # All text is escaped through one path; no stray raw angle brackets
    # from data values (the fixture has none, so count must balance).
    assert html.count("<section>") == html.count("</section>")


def test_empty_report_degrades_gracefully():
    html = render_report()
    assert "http" not in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    assert "No span data" in html
    assert "No fitted cost model" in html
    assert "No bench history" in html


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
    populated cost model, plus the optional model JSON artifact."""
    out = tmp_path / "report.html"
    model_out = tmp_path / "cost_model.json"
    history = tmp_path / "history.jsonl"
    records = [
        make_record("kernels", {"batch": 500}, {"total_seconds": 1.0},
                    sha="abc", ts=1700000000.0 + i)
        for i in range(2)
    ]
    with open(history, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    rc = main([
        "report",
        "--out", str(out),
        "--dataset", "RMAT",
        "--size-factor", "0.05",
        "--batch-size", "250",
        "--algorithms", "BFS",
        "--history", str(history),
        "--model-out", str(model_out),
    ])
    assert rc == 0
    html = out.read_text()
    assert "http" not in html
    for section in SECTIONS:
        assert f"<h2>{section}</h2>" in html
    # The live run populated spans, features, and the fitted model.
    assert 'class="bar-fill"' in html
    assert "No fitted cost model" not in html
    assert "No span data" not in html
    # History flowed through: two identical records, no regression.
    assert "No regressions" in html
    # The fitted model persisted as versioned, reloadable JSON.
    from repro.obs.model import FittedCostModel

    loaded = FittedCostModel.load(model_out)
    assert loaded.groups
    assert ("update", "AS", "", "") in loaded.groups
