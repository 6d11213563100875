"""Software-level profiling: Table III and Figs. 6-8 (Section V).

One streaming sweep per dataset measures every (data structure x
compute model) combination; this module reduces the sweep to the
paper's reported artifacts:

- **Table III** -- the best combination per (algorithm, dataset) at
  each stage P1/P2/P3, with competitive alternatives (overlapping 95%
  confidence intervals).
- **Fig. 6** -- batch/update/compute latency of AC, DAH, Stinger
  normalized to AS at P3, at the best compute model.
- **Fig. 7** -- FS compute latency normalized to INC at the best data
  structure, per stage.
- **Fig. 8** -- the update phase's share of batch processing latency at
  the best combination, per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import StageStat, stage_stats
from repro.datasets.catalog import dataset_names
from repro.engine.store import RunStore
from repro.engine.sweep import StreamRequest, run_many
from repro.errors import SimulationError
from repro.streaming.driver import StreamConfig
from repro.streaming.results import StreamResult

#: Stage names in paper order.
STAGES = ("P1", "P2", "P3")


@dataclass(frozen=True)
class ComboStat:
    """One (model, structure) combination's latency at one stage."""

    model: str
    structure: str
    stat: StageStat


@dataclass(frozen=True)
class BestCombination:
    """One cell of Table III."""

    algorithm: str
    dataset: str
    stage: str
    best: ComboStat
    competitive: Tuple[ComboStat, ...]  # overlapping-CI alternatives

    @property
    def label(self) -> str:
        """Paper-style cell label, e.g. ``INC+AS`` or ``INC/FS+DAH``."""
        models = [self.best.model]
        structures = [self.best.structure]
        for combo in self.competitive:
            if combo.model not in models:
                models.append(combo.model)
            if combo.structure not in structures:
                structures.append(combo.structure)
        return "/".join(models) + "+" + "/".join(structures)

    @property
    def latency_seconds(self) -> float:
        return self.best.stat.mean


@dataclass
class SoftwareProfile:
    """Reduced software-level characterization of all datasets."""

    results: Dict[str, StreamResult]
    stages: int = 3
    _stage_cache: dict = field(default_factory=dict, repr=False)

    # -- primitives ----------------------------------------------------

    def _stats(self, dataset: str, kind: str, *key) -> List[StageStat]:
        cache_key = (dataset, kind) + key
        if cache_key not in self._stage_cache:
            result = self.results[dataset]
            if kind == "batch":
                series = result.batch_latency(*key)
            elif kind == "update":
                series = result.update_latency(*key)
            elif kind == "compute":
                series = result.compute_latency(*key)
            elif kind == "fraction":
                series = result.update_fraction(*key)
            else:
                raise SimulationError(f"unknown series kind {kind!r}")
            self._stage_cache[cache_key] = stage_stats(series, self.stages)
        return self._stage_cache[cache_key]

    def _result(self, dataset: str) -> StreamResult:
        if dataset not in self.results:
            raise SimulationError(f"dataset {dataset!r} not profiled")
        return self.results[dataset]

    # -- Table III ------------------------------------------------------

    def best_combination(self, algorithm: str, dataset: str, stage: int) -> BestCombination:
        """The Table III cell for one (algorithm, dataset, stage)."""
        result = self._result(dataset)
        combos = [
            ComboStat(
                model=model,
                structure=structure,
                stat=self._stats(dataset, "batch", algorithm, model, structure)[stage],
            )
            for model in result.models
            for structure in result.structures
        ]
        best = min(combos, key=lambda combo: combo.stat.mean)
        competitive = tuple(
            combo
            for combo in sorted(combos, key=lambda combo: combo.stat.mean)
            if combo is not best and combo.stat.overlaps(best.stat)
        )
        return BestCombination(
            algorithm=algorithm,
            dataset=dataset,
            stage=STAGES[stage],
            best=best,
            competitive=competitive,
        )

    def table3(self) -> Dict[Tuple[str, str], List[BestCombination]]:
        """All Table III cells: {(algorithm, dataset): [P1, P2, P3]}."""
        table: Dict[Tuple[str, str], List[BestCombination]] = {}
        for dataset, result in self.results.items():
            for algorithm in result.algorithms:
                table[(algorithm, dataset)] = [
                    self.best_combination(algorithm, dataset, stage)
                    for stage in range(self.stages)
                ]
        return table

    # -- Fig. 6 ----------------------------------------------------------

    def fig6(
        self, algorithm: str, dataset: str, stage: int = 2
    ) -> Dict[str, Dict[str, float]]:
        """Latency of each structure normalized to AS at one stage.

        Returns ``{"batch"|"update"|"compute": {structure: ratio}}``,
        measured at the best compute model of that stage (isolating the
        data-structure effect, as in the paper).
        """
        result = self._result(dataset)
        best_model = self.best_combination(algorithm, dataset, stage).best.model
        ratios: Dict[str, Dict[str, float]] = {"batch": {}, "update": {}, "compute": {}}
        base_batch = self._stats(dataset, "batch", algorithm, best_model, "AS")[stage]
        base_update = self._stats(dataset, "update", "AS")[stage]
        base_compute = self._stats(dataset, "compute", algorithm, best_model, "AS")[stage]
        for structure in result.structures:
            batch = self._stats(dataset, "batch", algorithm, best_model, structure)[stage]
            update = self._stats(dataset, "update", structure)[stage]
            compute = self._stats(dataset, "compute", algorithm, best_model, structure)[stage]
            ratios["batch"][structure] = batch.mean / base_batch.mean
            ratios["update"][structure] = update.mean / base_update.mean
            ratios["compute"][structure] = compute.mean / base_compute.mean
        return ratios

    # -- Fig. 7 ----------------------------------------------------------

    def fig7(self, algorithm: str, dataset: str) -> List[float]:
        """FS/INC compute-latency ratio at the best structure, per stage."""
        ratios = []
        for stage in range(self.stages):
            structure = self.best_combination(algorithm, dataset, stage).best.structure
            fs = self._stats(dataset, "compute", algorithm, "FS", structure)[stage]
            inc = self._stats(dataset, "compute", algorithm, "INC", structure)[stage]
            ratios.append(fs.mean / inc.mean if inc.mean > 0 else float("inf"))
        return ratios

    # -- Fig. 8 ----------------------------------------------------------

    def fig8(self, algorithm: str, dataset: str) -> List[float]:
        """Update share of batch latency at the best combination, per stage."""
        shares = []
        for stage in range(self.stages):
            best = self.best_combination(algorithm, dataset, stage).best
            stat = self._stats(
                dataset, "fraction", algorithm, best.model, best.structure
            )[stage]
            shares.append(stat.mean)
        return shares


def run_software_profile(
    datasets: Optional[Sequence[str]] = None,
    config: Optional[StreamConfig] = None,
    seed: int = 0,
    size_factor: float = 1.0,
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> SoftwareProfile:
    """Stream every dataset and return the reduced profile.

    Runs through the experiment engine: per-dataset results are served
    from ``store`` when cached, and one cell per dataset fans out over
    ``jobs`` worker processes otherwise.
    """
    config = config if config is not None else StreamConfig()
    names = list(datasets if datasets is not None else dataset_names())
    requests = [
        StreamRequest(dataset=name, config=config, seed=seed, size_factor=size_factor)
        for name in names
    ]
    swept = run_many(requests, store=store, jobs=jobs)
    results: Dict[str, StreamResult] = dict(zip(names, swept))
    return SoftwareProfile(results=results)


def paper_software_profile(
    quick: bool, store: Optional[RunStore] = None, jobs: Optional[int] = None
) -> SoftwareProfile:
    """The Section V sweep the CLI and the benchmark harness render:
    every dataset at full size, or LJ and Talk at a quarter (``quick``)."""
    if quick:
        return run_software_profile(
            datasets=["LJ", "Talk"],
            config=StreamConfig(batch_size=1000),
            size_factor=0.25,
            store=store,
            jobs=jobs,
        )
    return run_software_profile(store=store, jobs=jobs)
