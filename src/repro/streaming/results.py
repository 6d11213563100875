"""Result containers of a streaming run.

A :class:`StreamResult` stores every simulated latency of one dataset's
characterization sweep **columnar**: one numpy array per measured
quantity, indexed ``[repetition, batch, ...]``, so that the
``update_latency`` / ``compute_latency`` / ``batch_latency`` reductions
the analysis harness performs are vectorized slices instead of
per-record Python loops.  :class:`BatchRecord` survives as the write
side: the driver stages one record per ingested batch and commits it
with :meth:`StreamResult.add_record`.

Results serialize to a ``meta + arrays`` payload
(:meth:`StreamResult.to_payload` / :meth:`StreamResult.from_payload`)
with a stable schema, which is what the experiment engine's
:class:`repro.engine.store.RunStore` caches on disk as ``.npz``.

The paper's performance metric (Equation 1) is::

    batch processing latency = update latency + compute latency
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.tracer import TRACER
from repro.sim.machine import MachineConfig

ComboKey = Tuple[str, str, str]  # (algorithm, model, structure)

#: Version of the columnar result schema; part of every cache key, so
#: bumping it invalidates all previously stored results.
RESULT_SCHEMA_VERSION = 2

#: Per-batch scalar count columns, in serialization order.
_COUNT_FIELDS = ("edges_attempted", "edges_inserted", "num_nodes", "num_edges")


@dataclass
class BatchRecord:
    """Simulated latencies and counts for one ingested batch.

    The staging object the driver fills while processing a batch; it is
    committed into the columnar arrays via
    :meth:`StreamResult.add_record`.
    """

    repetition: int
    batch_index: int
    edges_attempted: int
    edges_inserted: int
    num_nodes: int
    num_edges: int
    update_cycles: Dict[str, float] = field(default_factory=dict)
    compute_cycles: Dict[ComboKey, float] = field(default_factory=dict)
    compute_iterations: Dict[Tuple[str, str], int] = field(default_factory=dict)


@dataclass
class StreamResult:
    """All measurements of one dataset's streaming characterization.

    Array layout (``R`` repetitions, ``B`` batches per repetition,
    ``S`` structures, ``A`` algorithms, ``M`` compute models):

    - count columns: ``(R, B)`` int64;
    - ``update_cycles``: ``(R, B, S)`` float64;
    - ``compute_cycles``: ``(R, B, A, M, S)`` float64;
    - ``compute_iterations``: ``(R, B, A, M)`` int64.
    """

    dataset: str
    machine: MachineConfig
    structures: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    models: Tuple[str, ...]
    repetitions: int
    batches_per_rep: int
    edges_attempted: Optional[np.ndarray] = None
    edges_inserted: Optional[np.ndarray] = None
    num_nodes: Optional[np.ndarray] = None
    num_edges: Optional[np.ndarray] = None
    update_cycles: Optional[np.ndarray] = None
    compute_cycles: Optional[np.ndarray] = None
    compute_iterations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.structures = tuple(self.structures)
        self.algorithms = tuple(self.algorithms)
        self.models = tuple(self.models)
        shape = (self.repetitions, self.batches_per_rep)
        for name in _COUNT_FIELDS:
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(shape, dtype=np.int64))
        if self.update_cycles is None:
            self.update_cycles = np.zeros(shape + (len(self.structures),))
        if self.compute_cycles is None:
            self.compute_cycles = np.zeros(
                shape + (len(self.algorithms), len(self.models), len(self.structures))
            )
        if self.compute_iterations is None:
            self.compute_iterations = np.zeros(
                shape + (len(self.algorithms), len(self.models)), dtype=np.int64
            )
        self._sindex = {name: i for i, name in enumerate(self.structures)}
        self._aindex = {name: i for i, name in enumerate(self.algorithms)}
        self._mindex = {name: i for i, name in enumerate(self.models)}

    # -- write side -----------------------------------------------------

    def add_record(self, record: BatchRecord) -> None:
        """Commit one staged :class:`BatchRecord` into the arrays."""
        r, b = record.repetition, record.batch_index
        if not (0 <= r < self.repetitions and 0 <= b < self.batches_per_rep):
            raise SimulationError(
                f"record ({r}, {b}) outside the result's "
                f"({self.repetitions}, {self.batches_per_rep}) grid"
            )
        for name in _COUNT_FIELDS:
            getattr(self, name)[r, b] = getattr(record, name)
        for structure, cycles in record.update_cycles.items():
            self.update_cycles[r, b, self._sindex[structure]] = cycles
        for (alg, model, structure), cycles in record.compute_cycles.items():
            self.compute_cycles[
                r, b, self._aindex[alg], self._mindex[model], self._sindex[structure]
            ] = cycles
        for (alg, model), count in record.compute_iterations.items():
            self.compute_iterations[r, b, self._aindex[alg], self._mindex[model]] = (
                count
            )

    # -- latency series (vectorized) ------------------------------------

    def update_latency(self, structure: str) -> np.ndarray:
        """Per-batch update latency of ``structure``, seconds."""
        self._check_structure(structure)
        return self.machine.cycles_to_seconds(
            self.update_cycles[:, :, self._sindex[structure]]
        )

    def compute_latency(self, algorithm: str, model: str, structure: str) -> np.ndarray:
        """Per-batch compute latency of one combination, seconds."""
        key = (algorithm, model, structure)
        self._check_combo(key)
        return self.machine.cycles_to_seconds(
            self.compute_cycles[
                :,
                :,
                self._aindex[algorithm],
                self._mindex[model],
                self._sindex[structure],
            ]
        )

    def batch_latency(self, algorithm: str, model: str, structure: str) -> np.ndarray:
        """Per-batch total (Equation 1) latency, seconds."""
        key = (algorithm, model, structure)
        self._check_combo(key)
        return self.machine.cycles_to_seconds(
            self.update_cycles[:, :, self._sindex[structure]]
            + self.compute_cycles[
                :,
                :,
                self._aindex[algorithm],
                self._mindex[model],
                self._sindex[structure],
            ]
        )

    def update_fraction(self, algorithm: str, model: str, structure: str) -> np.ndarray:
        """Per-batch share of latency spent in the update phase."""
        update = self.update_latency(structure)
        total = self.batch_latency(algorithm, model, structure)
        return np.divide(update, total, out=np.zeros_like(update), where=total > 0)

    def sustainable_throughput(
        self, algorithm: str, model: str, structure: str
    ) -> float:
        """Whole-run sustained edges/second of one combination.

        Total attempted edges divided by total simulated batch latency
        -- the rate at which this pipeline drains the stream without
        falling behind, which is the throughput a streaming deployment
        can actually sustain (as opposed to a best-batch peak).
        """
        latency = self.batch_latency(algorithm, model, structure)
        total = float(latency.sum())
        if total <= 0:
            return 0.0
        return float(self.edges_attempted.sum()) / total

    # -- merging --------------------------------------------------------

    @classmethod
    def merge(cls, parts: Sequence["StreamResult"]) -> "StreamResult":
        """Stack per-repetition results along the repetition axis.

        Parts must share dataset, machine, matrix, and batch count;
        repetition indices follow the order of ``parts``, which is how
        the sweep engine reassembles a deterministic multi-repetition
        result from independently executed cells.
        """
        if not parts:
            raise SimulationError("cannot merge zero results")
        first = parts[0]
        if len(parts) == 1:
            return first
        for other in parts[1:]:
            if (
                other.dataset != first.dataset
                or other.machine != first.machine
                or other.structures != first.structures
                or other.algorithms != first.algorithms
                or other.models != first.models
                or other.batches_per_rep != first.batches_per_rep
            ):
                raise SimulationError(
                    f"cannot merge results of mismatched runs "
                    f"({other.dataset!r} vs {first.dataset!r})"
                )
        return cls(
            dataset=first.dataset,
            machine=first.machine,
            structures=first.structures,
            algorithms=first.algorithms,
            models=first.models,
            repetitions=sum(p.repetitions for p in parts),
            batches_per_rep=first.batches_per_rep,
            edges_attempted=np.concatenate([p.edges_attempted for p in parts]),
            edges_inserted=np.concatenate([p.edges_inserted for p in parts]),
            num_nodes=np.concatenate([p.num_nodes for p in parts]),
            num_edges=np.concatenate([p.num_edges for p in parts]),
            update_cycles=np.concatenate([p.update_cycles for p in parts]),
            compute_cycles=np.concatenate([p.compute_cycles for p in parts]),
            compute_iterations=np.concatenate([p.compute_iterations for p in parts]),
        )

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Split into a JSON-safe metadata dict and an array dict."""
        from dataclasses import asdict

        meta = {
            "schema": RESULT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "machine": asdict(self.machine),
            "structures": list(self.structures),
            "algorithms": list(self.algorithms),
            "models": list(self.models),
            "repetitions": self.repetitions,
            "batches_per_rep": self.batches_per_rep,
        }
        arrays = {
            name: getattr(self, name)
            for name in _COUNT_FIELDS
            + ("update_cycles", "compute_cycles", "compute_iterations")
        }
        return meta, arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: Dict[str, np.ndarray]) -> "StreamResult":
        """Rebuild a result from :meth:`to_payload` output."""
        schema = meta.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported result schema {schema!r} "
                f"(this build reads schema {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            dataset=meta["dataset"],
            machine=MachineConfig(**meta["machine"]),
            structures=tuple(meta["structures"]),
            algorithms=tuple(meta["algorithms"]),
            models=tuple(meta["models"]),
            repetitions=int(meta["repetitions"]),
            batches_per_rep=int(meta["batches_per_rep"]),
            **{name: np.asarray(arrays[name]) for name in _COUNT_FIELDS},
            update_cycles=np.asarray(arrays["update_cycles"]),
            compute_cycles=np.asarray(arrays["compute_cycles"]),
            compute_iterations=np.asarray(arrays["compute_iterations"]),
        )

    @TRACER.layer("results.encode")
    def to_npz(self, path) -> Path:
        """Serialize to one ``.npz`` file; returns the path written."""
        meta, arrays = self.to_payload()
        path = Path(path)
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle, __meta__=np.asarray(json.dumps(meta, sort_keys=True)), **arrays
            )
        return path

    # -- validation -------------------------------------------------------

    def _check_structure(self, structure: str) -> None:
        if structure not in self._sindex:
            raise SimulationError(
                f"structure {structure!r} was not part of this run "
                f"(had {self.structures})"
            )

    def _check_combo(self, key: ComboKey) -> None:
        algorithm, model, structure = key
        self._check_structure(structure)
        if algorithm not in self._aindex or model not in self._mindex:
            raise SimulationError(
                f"combination {key} was not part of this run "
                f"(algorithms {self.algorithms}, models {self.models})"
            )
