"""The conformance report: every paper claim checked at full scale.

Reuses the session's software and hardware sweeps, so the marginal
cost is just the reduction.  The report is the reproduction's
bottom line: which of the paper's findings this codebase upholds.
"""

from repro.analysis.conformance import conformance_report, render_conformance


def test_conformance_report(benchmark, software_profile, hardware_profile):
    results = benchmark.pedantic(
        conformance_report,
        args=(software_profile, hardware_profile),
        rounds=1,
        iterations=1,
    )
    assert results
    failed = [r for r in results if not r.passed]
    assert not failed, render_conformance(failed)
