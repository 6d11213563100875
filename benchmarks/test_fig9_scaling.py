"""Fig. 9: core scaling, memory bandwidth, and QPI utilization.

Shape expectations from the paper (Sections VI-A / VI-B):

- (a) the update phase's scalability curve flattens at earlier core
  counts than the compute phase's, for both groups; heavy-tailed
  (HTail) update scales worst of all (chunk imbalance on DAH);
- (b, c) the update phase utilizes less memory and inter-socket
  bandwidth than the compute phase for the short-tailed group at the
  later stages, and HTail update utilizes almost none of either
  (single hot chunk, no parallel misses).
"""

def test_fig9(benchmark, hardware_profile):
    def reduce_all():
        return {
            (group_name, phase): group.scaling_performance(phase)
            for group_name, group in hardware_profile.groups.items()
            for phase in ("update", "compute")
        }

    scaling = benchmark.pedantic(reduce_all, rounds=1, iterations=1)

    top = {key: max(perf.values()) for key, perf in scaling.items()}

    # (a) compute out-scales update within each group.
    for group in hardware_profile.groups:
        assert top[(group, "compute")] > top[(group, "update")], top

    # (a) HTail update is the worst scaler of all four curves.
    assert top[("HTail", "update")] == min(top.values()), top

    # (a) every curve is monotone non-decreasing up to 5% noise.
    for perf in scaling.values():
        values = [perf[c] for c in sorted(perf)]
        for before, after in zip(values, values[1:]):
            assert after >= 0.95 * before, values

    # (b) HTail update uses a small fraction of STail update's memory
    # bandwidth (the paper: ~5GB/s vs 13-32GB/s).
    stail = hardware_profile["STail"]
    htail = hardware_profile["HTail"]
    for stage in range(3):
        s_bw = stail.stage_counter("update", stage, "memory_bandwidth")
        h_bw = htail.stage_counter("update", stage, "memory_bandwidth")
        assert h_bw < s_bw / 2, (stage, s_bw, h_bw)

    # (c) same for QPI utilization.
    for stage in range(3):
        s_qpi = stail.stage_counter("update", stage, "qpi_utilization")
        h_qpi = htail.stage_counter("update", stage, "qpi_utilization")
        assert h_qpi < s_qpi, (stage, s_qpi, h_qpi)

    # (b) STail compute bandwidth grows over time as the graph fills in.
    p1 = stail.stage_counter("compute", 0, "memory_bandwidth")
    p3 = stail.stage_counter("compute", 2, "memory_bandwidth")
    assert p3 > p1
