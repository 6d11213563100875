"""TLP diagnosis bench: Section VI-B's insight, measured directly.

The paper infers that the update phase's low thread-level parallelism
comes from thread contention (short-tailed on AS) or workload
imbalance (heavy-tailed on DAH); the simulator measures both causes
explicitly per batch.
"""

from repro.analysis import extensions


def test_tlp_diagnosis(benchmark):
    reports = benchmark.pedantic(extensions.tlp_diagnosis, rounds=1, iterations=1)
    by_key = {(r.dataset, r.structure): r for r in reports}

    # Contention: heavy-tailed AS waits on locks far more than
    # short-tailed AS.
    assert (
        by_key[("Talk", "AS")].mean("lock_wait_share")
        > 5 * by_key[("LJ", "AS")].mean("lock_wait_share")
    )

    # Imbalance: heavy-tailed DAH skews its insert work across chunks
    # more than short-tailed AS does across threads, with zero lock
    # waiting (the chunks are lockless).
    assert by_key[("Talk", "DAH")].mean("lock_wait_share") == 0.0
    assert (
        by_key[("Talk", "DAH")].mean("imbalance")
        > by_key[("LJ", "AS")].mean("imbalance")
    )

    # And both causes depress the achieved speedup below the
    # short-tailed baseline.
    baseline = by_key[("LJ", "AS")].mean("speedup")
    assert by_key[("Talk", "AS")].mean("speedup") < baseline
