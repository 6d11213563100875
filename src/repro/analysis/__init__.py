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

from repro import lazy_exports

_EXPORTS = {
    "degree_table": "degrees",
    "paper_hardware_profile": "hardware_profile",
    "paper_software_profile": "software_profile",
    "run_hardware_profile": "hardware_profile",
    "run_software_profile": "software_profile",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
