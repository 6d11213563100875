"""Analysis harnesses regenerating the paper's tables and figures.

- :mod:`repro.analysis.stats` -- P1/P2/P3 stage averaging with 95%
  confidence intervals (Section IV-B methodology).
- :mod:`repro.analysis.software_profile` -- Section V: Table III and
  Figs. 6-8 from one streaming sweep.
- :mod:`repro.analysis.hardware_profile` -- Section VI: Figs. 9-10 via
  the simulated machine's scheduler, caches, and traffic counters.
- :mod:`repro.analysis.degrees` -- Table IV degree statistics.
- :mod:`repro.analysis.report` -- plain-text renderers shared by the
  benchmark harnesses.
"""

from repro.analysis.stats import StageStat, stage_slices, stage_stats
from repro.analysis.degrees import degree_table
from repro.analysis.software_profile import SoftwareProfile, run_software_profile
from repro.analysis.hardware_profile import HardwareProfile, run_hardware_profile
from repro.analysis.conformance import conformance_report, render_conformance
from repro.analysis.memory_report import MemoryReport, run_memory_report
from repro.analysis.tlp import TLPReport, run_tlp_report
from repro.analysis.sensitivity import SensitivityResult, run_batch_size_sensitivity

__all__ = [
    "HardwareProfile",
    "TLPReport",
    "conformance_report",
    "render_conformance",
    "run_tlp_report",
    "MemoryReport",
    "SensitivityResult",
    "SoftwareProfile",
    "StageStat",
    "degree_table",
    "run_batch_size_sensitivity",
    "run_hardware_profile",
    "run_memory_report",
    "run_software_profile",
    "stage_slices",
    "stage_stats",
]
