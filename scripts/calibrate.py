"""Calibration helper: prints the paper's key Fig. 6 / Fig. 7 ratios.

Run after editing the cost model to see how close the reproduction's
relative numbers sit to the paper's reported ranges.  Not part of the
library; a developer tool.
"""

import sys
import time

from repro.analysis.stats import stage_slices
from repro.datasets import load_dataset
from repro.streaming import StreamConfig, StreamDriver

PAPER = {
    # dataset: {structure: (low, high) of update-latency ratio vs AS at P3}
    "LJ": {"AC": (2.2, 2.6), "DAH": (2.3, 3.2), "Stinger": (1.57, 1.76)},
    "Talk": {"AC": (1 / 2.6, 1 / 2.6), "DAH": (1 / 12.6, 1 / 12.6), "Stinger": (1 / 3.9, 1 / 3.9)},
}


def main(datasets=("LJ", "Talk", "Wiki")):
    overall_start = time.time()
    for name in datasets:
        start = time.time()
        ds = load_dataset(name, seed=1)
        res = StreamDriver(StreamConfig()).run(ds)
        nb = res.batches_per_rep
        stages = stage_slices(nb)
        p3 = stages[2]
        base_u = res.update_latency("AS")[0, p3].mean()
        print(f"== {name} ({nb} batches, {time.time()-start:.1f}s) "
              f"update AS P3 = {base_u*1e3:.3f} ms")
        for s in ("AC", "DAH", "Stinger"):
            u = res.update_latency(s)[0, p3].mean()
            target = PAPER.get(name, {}).get(s)
            target_str = f" target~{target}" if target else ""
            print(f"   update {s:8s}/AS = {u/base_u:6.2f}{target_str}")
        # compute ratios at INC for BFS and PR
        for alg in ("BFS", "PR"):
            base_c = res.compute_latency(alg, "INC", "AS")[0, p3].mean()
            ratios = {
                s: res.compute_latency(alg, "INC", s)[0, p3].mean() / base_c
                for s in ("AC", "DAH", "Stinger")
            }
            print(f"   compute {alg:4s} INC: "
                  + "  ".join(f"{s}/AS={r:5.2f}" for s, r in ratios.items()))
        # Fig 7: FS/INC at AS
        for alg in ("BFS", "CC", "PR", "SSSP", "SSWP"):
            r = []
            for sl in stages:
                fs = res.compute_latency(alg, "FS", "AS")[0, sl].mean()
                inc = res.compute_latency(alg, "INC", "AS")[0, sl].mean()
                r.append(fs / inc)
            print(f"   FS/INC {alg:5s}: P1={r[0]:6.1f} P2={r[1]:6.1f} P3={r[2]:6.1f}")
    print(f"total {time.time()-overall_start:.1f}s")


if __name__ == "__main__":
    main(tuple(sys.argv[1:]) or ("LJ", "Talk", "Wiki"))
