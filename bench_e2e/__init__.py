"""The repo's end-to-end benchmark: four workloads, one ruler.

``python3 -m bench_e2e.run`` drives the streaming simulator through its
public entry points only, reports host-time end-to-end metrics from
untraced runs and a per-layer budget from separate traced runs, and
checks every run's outputs.  See ``bench_e2e/README.md``.
"""
