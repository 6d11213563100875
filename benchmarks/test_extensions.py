"""Benches for the beyond-the-paper studies: memory footprint,
batch-size sensitivity, deletions, the multi-snapshot store and the
fifth structure.  Each times and checks what the
:mod:`repro.analysis.extensions` function behind its ``ext_*``
artefact returns."""

from repro.analysis import extensions


def test_memory_footprint(benchmark):
    """Bytes/edge per structure on a short- and a heavy-tailed stream."""
    reports = benchmark.pedantic(extensions.memory_footprint, rounds=1, iterations=1)
    for report in reports:
        per_edge = report.final_bytes_per_edge()
        # Stinger's 16-slot blocks waste the most space on sparse
        # vertices; AS/AC vectors are the leanest.
        assert per_edge["Stinger"] > per_edge["AS"], per_edge


def test_batch_size_sensitivity(benchmark):
    results = benchmark.pedantic(
        extensions.batch_size_sensitivity, rounds=1, iterations=1
    )
    for result in results:
        # Chunked routing amortizes with batch size everywhere.
        for name in ("AC", "DAH"):
            series = result.totals[name]
            assert series[4500] < series[500], (result.dataset, name, series)


def test_deletion_churn(benchmark):
    """A churn workload: ingest, delete the first batch, re-insert it."""
    rows = benchmark.pedantic(extensions.run_deletion_churn, rounds=1, iterations=1)
    assert list(rows) == list(extensions.CHURN_STRUCTURES)
    for name, (ingest, delete, reinsert) in rows.items():
        # Deleting or re-inserting one batch costs a fraction of the
        # whole stream's ingest.
        assert 0.0 < delete < ingest, (name, rows[name])
        assert 0.0 < reinsert < ingest, (name, rows[name])


def test_snapshot_store(benchmark):
    """Multi-snapshot commit throughput and historical query check."""
    store = benchmark.pedantic(extensions.run_snapshot_store, rounds=1, iterations=1)
    edges = [row[2] for row in store.history()]
    assert edges == sorted(edges)
    assert store.snapshot(0).num_edges < store.latest().num_edges


def test_fifth_structure_positioning(benchmark):
    """Where the post-paper Hornet-style BA lands among the four.

    BA pairs AC's lockless chunking and AS-grade contiguous traversal
    with pooled power-of-two segments, so it should track AC on both
    tails while avoiding AS's heavy-tailed collapse.
    """
    rows = benchmark.pedantic(extensions.run_fifth_structure, rounds=1, iterations=1)
    # Short-tailed: BA stays within AC's neighborhood (same chunking).
    assert rows["LJ"]["BA"] <= rows["LJ"]["AC"] * 1.2
    # Heavy-tailed: BA, like AC, sails past AS's lock convoy.
    assert rows["Talk"]["BA"] < 0.6
