"""Conformance report: every paper claim, checked programmatically.

EXPERIMENTS.md narrates the paper-vs-measured comparison; this module
*computes* it.  Each :class:`Claim` encodes one qualitative finding
from the paper's evaluation as a predicate over the profiling sweeps;
the report lists, for every claim, the measured value and whether the
reproduction upholds it.  Used by ``python -m repro conformance`` and
the benchmark suite's summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.analysis.hardware_profile import HardwareProfile
from repro.analysis.software_profile import SoftwareProfile
from repro.datasets.catalog import HEAVY_TAILED, SHORT_TAILED


@dataclass(frozen=True)
class ClaimResult:
    """One checked claim."""

    claim_id: str
    source: str  # paper location, e.g. "Fig. 6(b)"
    statement: str
    measured: str
    passed: bool


def _datasets(profile: SoftwareProfile, group) -> List[str]:
    return [name for name in group if name in profile.results]


def _update_ratio(profile: SoftwareProfile, dataset: str, structure: str) -> float:
    base = profile._stats(dataset, "update", "AS")[2].mean
    other = profile._stats(dataset, "update", structure)[2].mean
    return other / base


def check_software_claims(profile: SoftwareProfile) -> List[ClaimResult]:
    """Section V's findings against a software profile."""
    results: List[ClaimResult] = []
    short = _datasets(profile, SHORT_TAILED)
    heavy = _datasets(profile, HEAVY_TAILED)
    algorithms = next(iter(profile.results.values())).algorithms

    # -- Table III / Fig. 6 -------------------------------------------
    if short:
        ratios = {d: _update_ratio(profile, d, "DAH") for d in short}
        results.append(
            ClaimResult(
                claim_id="short-tail-dah-worst",
                source="Fig. 6(b)",
                statement="DAH has the highest update latency on "
                          "short-tailed graphs (paper: 2.3-3.2x AS)",
                measured=", ".join(f"{d}: {r:.2f}x" for d, r in ratios.items()),
                passed=all(r > 1.3 for r in ratios.values()),
            )
        )
        orderings = {}
        for d in short:
            row = {
                s: _update_ratio(profile, d, s) for s in ("AC", "Stinger", "DAH")
            }
            orderings[d] = row["Stinger"] < row["AC"] < row["DAH"]
        results.append(
            ClaimResult(
                claim_id="short-tail-ordering",
                source="Fig. 6(b)",
                statement="short-tailed update ordering AS < Stinger < AC < DAH",
                measured=", ".join(
                    f"{d}: {'ok' if ok else 'violated'}" for d, ok in orderings.items()
                ),
                passed=sum(orderings.values()) >= max(len(short) - 1, 1),
            )
        )
    if heavy:
        dah = float(np.mean([1 / _update_ratio(profile, d, "DAH") for d in heavy]))
        stinger = float(
            np.mean([1 / _update_ratio(profile, d, "Stinger") for d in heavy])
        )
        ac = float(np.mean([1 / _update_ratio(profile, d, "AC") for d in heavy]))
        results.append(
            ClaimResult(
                claim_id="heavy-tail-flip",
                source="Fig. 6(b)",
                statement="heavy-tailed update flips: AS slowest, DAH fastest "
                          "(paper: AS/DAH 12.6x, AS/Stinger 3.9x, AS/AC 2.6x)",
                measured=f"AS/DAH {dah:.1f}x, AS/Stinger {stinger:.1f}x, AS/AC {ac:.1f}x",
                passed=dah > stinger > ac > 1.0,
            )
        )

    # -- compute model (Fig. 7) ----------------------------------------
    def p3_benefit(dataset):
        return float(
            np.mean([profile.fig7(a, dataset)[2] for a in algorithms if a != "MC"])
        )

    if "RMAT" in profile.results and heavy:
        rmat = p3_benefit("RMAT")
        small = float(np.mean([p3_benefit(d) for d in heavy]))
        results.append(
            ClaimResult(
                claim_id="inc-scales-with-size",
                source="Fig. 7 / Section V-C",
                statement="larger graphs benefit more from INC "
                          "(RMAT largest, Wiki/Talk smallest)",
                measured=f"RMAT P3 FS/INC {rmat:.1f}x vs heavy-tailed {small:.1f}x",
                passed=rmat > small,
            )
        )

    # -- latency breakdown (Fig. 8) -------------------------------------
    shares = []
    for dataset, result in profile.results.items():
        for algorithm in result.algorithms:
            shares.append(max(profile.fig8(algorithm, dataset)))
    above_40 = sum(1 for share in shares if share >= 0.40)
    results.append(
        ClaimResult(
            claim_id="update-share-40pc",
            source="Fig. 8 / Section V-D",
            statement="the update phase reaches >=40% of batch latency "
                      "for many workloads",
            measured=f"{above_40}/{len(shares)} workloads reach 40%",
            passed=above_40 >= len(shares) / 3,
        )
    )

    # -- best model (Table III) -----------------------------------------
    table = profile.table3()
    inc_wins = sum(1 for cells in table.values() if cells[2].best.model == "INC")
    results.append(
        ClaimResult(
            claim_id="inc-predominant",
            source="Table III / Section V-A",
            statement="the incremental compute model is predominantly optimal",
            measured=f"INC best in {inc_wins}/{len(table)} P3 cells",
            passed=inc_wins > len(table) / 2,
        )
    )
    return results


def check_hardware_claims(profile: HardwareProfile) -> List[ClaimResult]:
    """Section VI's findings against a hardware profile."""
    results: List[ClaimResult] = []
    top = {
        (g, p): max(profile[g].scaling_performance(p).values())
        for g in profile.groups
        for p in ("update", "compute")
    }
    results.append(
        ClaimResult(
            claim_id="update-scales-worse",
            source="Fig. 9(a) / Section VI-A",
            statement="the update phase scales worse with cores than compute",
            measured=", ".join(
                f"{g}: upd {top[(g, 'update')]:.1f}x vs cmp {top[(g, 'compute')]:.1f}x"
                for g in profile.groups
            ),
            passed=all(
                top[(g, "update")] < top[(g, "compute")] for g in profile.groups
            ),
        )
    )
    results.append(
        ClaimResult(
            claim_id="htail-update-worst-scaler",
            source="Fig. 9(a) / Section VI-B",
            statement="heavy-tailed update benefits least from more cores",
            measured=f"HTail update tops at {top[('HTail', 'update')]:.1f}x",
            passed=top[("HTail", "update")] == min(top.values()),
        )
    )
    s_bw = profile["STail"].stage_counter("update", 2, "memory_bandwidth")
    h_bw = profile["HTail"].stage_counter("update", 2, "memory_bandwidth")
    results.append(
        ClaimResult(
            claim_id="htail-update-starves-bandwidth",
            source="Fig. 9(b) / Section VI-B",
            statement="heavy-tailed update uses a fraction of short-tailed "
                      "update's memory bandwidth (paper: ~5 vs 13-32 GB/s)",
            measured=f"HTail {h_bw / 1e9:.1f} GB/s vs STail {s_bw / 1e9:.1f} GB/s",
            passed=h_bw < s_bw / 2,
        )
    )
    llc = {
        (g, p): profile[g].stage_counter(p, 2, "llc_hit_ratio")
        for g in profile.groups
        for p in ("update", "compute")
    }
    results.append(
        ClaimResult(
            claim_id="compute-owns-llc",
            source="Fig. 10(a) / Section VI-C",
            statement="the compute phase has the higher LLC hit ratio",
            measured=", ".join(
                f"{g}: cmp {100 * llc[(g, 'compute')]:.0f}% vs "
                f"upd {100 * llc[(g, 'update')]:.0f}%"
                for g in profile.groups
            ),
            passed=all(
                llc[(g, "compute")] > llc[(g, "update")] for g in profile.groups
            ),
        )
    )
    h_l2_update = profile["HTail"].stage_counter("update", 2, "l2_mpki")
    h_l2_compute = profile["HTail"].stage_counter("compute", 2, "l2_mpki")
    results.append(
        ClaimResult(
            claim_id="update-owns-l2",
            source="Fig. 10(b,c) / Section VI-C",
            statement="the update phase leans on the private L2: its L2 MPKI "
                      "sits far below compute's (paper: 3-9 vs 12-16)",
            measured=f"HTail update {h_l2_update:.1f} vs compute {h_l2_compute:.1f} MPKI",
            passed=h_l2_update < h_l2_compute,
        )
    )
    return results


def conformance_report(
    software: Optional[SoftwareProfile] = None,
    hardware: Optional[HardwareProfile] = None,
) -> List[ClaimResult]:
    """All checkable claims for whichever profiles are supplied."""
    results: List[ClaimResult] = []
    if software is not None:
        results.extend(check_software_claims(software))
    if hardware is not None:
        results.extend(check_hardware_claims(hardware))
    return results


def render_conformance(results: List[ClaimResult]) -> str:
    """Plain-text conformance table."""
    passed = sum(1 for r in results if r.passed)
    lines = [
        f"Paper-claim conformance: {passed}/{len(results)} upheld",
        "-" * 78,
    ]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{mark}] {r.claim_id}  ({r.source})")
        lines.append(f"         claim:    {r.statement}")
        lines.append(f"         measured: {r.measured}")
    return "\n".join(lines)
