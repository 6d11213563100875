"""The simulated model, pinned exactly.

``benchmarks/pins.json`` holds the ``sim_digest`` of every ``bench_e2e``
workload on seeds 0 and 7, computed through the benchmark's own
``generate``, ``execute`` and ``sim_digest``, and the sha256 of every
file ``repro all --quick --output`` writes.  All of them are
deterministic, so a change that moves the model fails here, naming the
workload or artefact and printing the new value.  A change that means
to move the model moves the pins its reason names in the same diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bench_e2e import workloads

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "pins.json").read_text()
)

DIGEST_CASES = [
    (name, seed) for name, seeds in PINS["sim_digest"].items() for seed in seeds
]


@pytest.mark.parametrize(
    "name, seed",
    DIGEST_CASES,
    ids=[f"{name}-seed{seed}" for name, seed in DIGEST_CASES],
)
def test_sim_digest_is_pinned(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    dataset = workloads.generate(workload, int(seed), False, tmp_path)
    outcome = workloads.execute(
        workload, dataset, int(seed), False, tmp_path, lambda _message: None
    )
    digest = workloads.sim_digest(outcome.result)
    assert digest == PINS["sim_digest"][name][seed], (
        f"{name} seed {seed}: sim_digest is now {digest}"
    )


@pytest.mark.parametrize("name", sorted(PINS["quick_artefact_sha256"]))
def test_quick_artefact_is_pinned(name, quick_artefacts):
    text = (quick_artefacts / name).read_bytes()
    digest = hashlib.sha256(text).hexdigest()
    assert digest == PINS["quick_artefact_sha256"][name], (
        f"{name}: sha256 is now {digest}; its text:\n{text.decode()}"
    )
