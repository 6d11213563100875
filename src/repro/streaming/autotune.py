"""Online auto-tuner: (structure, model) selection from priced cells.

The paper's central finding (Table 3, Figs. 6-8) is that the best
(data structure, compute model) pair flips with algorithm and batch
size.  This module makes the driver *act* on it:

- :class:`AdaptiveController` forecasts every candidate's Equation-1
  latency before each batch.  The compute half is an EWMA
  (``EWMA_ALPHA``) of each (structure, algorithm, model) cell's priced
  seconds: compute pricing is analytic, so every candidate cell is
  priced every batch whichever structure is live.  The update half is
  one :class:`OnlineUpdateFit` per structure, exponentially-decayed
  least squares ``T = setup + per_op * ops`` over that structure's
  update samples (live batches, and migrations as bulk updates).  A warm
  start replays a saved list of those samples (:func:`load_samples`);
  without one the controller cold-starts with a short round-robin
  exploration.  It switches structure only when the forecast savings
  over a look-ahead horizon exceed the forecast migration cost by a
  safety margin (hysteresis).
- :class:`AdaptiveStreamDriver` runs :class:`StreamDriver`'s batch loop
  over a :class:`LiveStructurePlane`: a single live structure, migrated
  through :func:`repro.graph.migrate.migrate_structure` when the
  controller says so, the migration charged to the triggering batch.
  Every candidate compute model still *executes* each batch (INC must, to
  keep its incremental state bit-identical to a static INC run; FS runs
  are pure), and every candidate structure's compute latency is priced
  -- so the controller observes the full matrix each batch while only
  the chosen combination is recorded as the batch's latency.

Algorithm results are therefore bit-identical to the static runs by
construction: values live on the reference graph, never inside the
migrating structure.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algorithms.registry import COMPUTE_MODELS
from repro.errors import ConfigError
from repro.graph.migrate import migrate_structure
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.streaming.driver import (
    ALL_STRUCTURES,
    StreamConfig,
    StreamDriver,
    UpdatePlane,
    churn_count,
)

#: The decision log of the most recent adaptive run in this process:
#: one dict per batch (see AdaptiveController.complete_batch) plus the
#: run-level summary.  The CLI report writer picks this up after the
#: run, the same way it collects the tracer and metrics registries.
LAST_DECISION_LOG: Optional[dict] = None


# The tuner's constants (docs/AUTOTUNE.md), fixed like the paper's
# run parameters so adaptive runs stay comparable.

#: Cold start: batches spent on each candidate structure before the
#: predictive policy takes over (round-robin exploration).
EXPLORE_ROUNDS = 2
#: Batches of predicted savings a switch is amortized over (capped at
#: the remaining stream length).
HORIZON_BATCHES = 25
#: Safety margin: predicted savings must exceed the estimated migration
#: cost by this fraction before a switch fires.
SWITCH_MARGIN = 0.25
#: Batches to hold the current structure after a switch.
COOLDOWN_BATCHES = 2
#: Smoothing of each (structure, algorithm, model) cell's compute
#: forecast: the weight of the newest priced seconds.
EWMA_ALPHA = 0.5
#: Per-observation decay of the online least-squares statistics
#: (recent batches dominate, old regimes fade).
DECAY = 0.9

#: Layout version of the update-sample file (``--model-out`` /
#: ``--model-in``); :func:`load_samples` refuses any other.
SAMPLES_SCHEMA = 2

#: One update sample: (structure, ops, seconds).
Sample = Tuple[str, float, float]


def update_ops(batch_edges: int, churn_fraction: float) -> float:
    """Update-phase ops of a batch: its inserts plus its churn deletions."""
    return float(batch_edges + churn_count(batch_edges, churn_fraction))


def update_samples(result, churn_fraction: float) -> List[Sample]:
    """Every update sample of a static run, in stream order: one per
    batch per structure, its update latency at the batch's ops."""
    latency = [result.update_latency(s) for s in result.structures]
    samples = []
    for batch in range(result.batches_per_rep):
        ops = update_ops(int(result.edges_attempted[0, batch]), churn_fraction)
        for structure, seconds in zip(result.structures, latency):
            samples.append((structure, ops, float(seconds[0, batch])))
    return samples


def save_samples(path, samples: Iterable[Sample]) -> None:
    """Write update samples as the versioned JSON ``--model-in`` reads."""
    payload = {"schema": SAMPLES_SCHEMA, "samples": [list(s) for s in samples]}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_samples(path) -> List[Sample]:
    """The update samples :func:`save_samples` wrote to ``path``."""
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SAMPLES_SCHEMA:
        raise ConfigError(
            f"{path}: update-sample schema {schema!r} unsupported (this "
            f"build reads schema {SAMPLES_SCHEMA}); write it again with "
            f"`repro autotune --model-out`"
        )
    return [
        (str(structure), float(ops), float(seconds))
        for structure, ops, seconds in payload["samples"]
    ]


class OnlineUpdateFit:
    """One structure's update law ``T = setup + per_op * ops``, refined
    online from exponentially-decayed least-squares statistics."""

    def __init__(self) -> None:
        self.count = 0
        self._n = self._sx = self._sy = self._sxx = self._sxy = 0.0

    def observe(self, ops: float, seconds: float) -> None:
        g = DECAY
        ops = float(ops)
        seconds = float(seconds)
        self._n = g * self._n + 1.0
        self._sx = g * self._sx + ops
        self._sy = g * self._sy + seconds
        self._sxx = g * self._sxx + ops * ops
        self._sxy = g * self._sxy + ops * seconds
        self.count += 1

    def predict(self, ops: float) -> Optional[float]:
        """Predicted seconds; ``None`` before the first sample."""
        if self.count == 0 or self._n <= 0.0:
            return None
        denom = self._n * self._sxx - self._sx * self._sx
        if self.count >= 2 and denom > 1e-30:
            per_op = (self._n * self._sxy - self._sx * self._sy) / denom
            if per_op >= 0.0:
                setup = (self._sy - per_op * self._sx) / self._n
                return max(0.0, setup + per_op * ops)
        # One sample, collinear samples, or a (numerically) negative
        # slope: fall back to the proportional estimate.
        if self._sx > 0.0:
            return self._sy / self._sx * ops
        return self._sy / self._n


@dataclass
class Decision:
    """One pre-batch pick by the controller."""

    batch_index: int
    structure: str
    #: Per-algorithm compute-model choice for this batch.
    models: Dict[str, str]
    #: Predicted Equation-1 seconds of the chosen combination
    #: (steady-state: the migration charge is tracked separately).
    predicted_seconds: float
    #: Estimated cost of migrating to ``structure`` (0 when staying).
    migration_estimate_seconds: float
    #: Why: "start", "explore", "stay", "switch", "hold", "cooldown",
    #: or "forced" (test hook).
    reason: str


class AdaptiveController:
    """Forecast-guided (structure, model) selection with hysteresis."""

    def __init__(
        self,
        structures: Tuple[str, ...],
        models: Tuple[str, ...],
        algorithms: Tuple[str, ...],
        warm_samples: Iterable[Sample] = (),
        churn_fraction: float = 0.0,
    ) -> None:
        if not structures:
            raise ConfigError("adaptive mode needs at least one candidate structure")
        if not models:
            raise ConfigError("adaptive mode needs at least one candidate model")
        self.structures = tuple(structures)
        self.models = tuple(models)
        self.algorithms = tuple(algorithms)
        self.churn_fraction = churn_fraction
        self.fits: Dict[str, OnlineUpdateFit] = defaultdict(OnlineUpdateFit)
        #: Every update sample the fits saw, warm start first, in order:
        #: what ``--model-out`` writes.
        self.samples: List[Sample] = []
        self.compute_forecast: Dict[Tuple[str, str, str], float] = {}
        #: Test hook: force {batch_index: structure} decisions.
        self.forced_plan: Dict[int, str] = {}
        self.log: List[dict] = []
        self.switches = 0
        self._batches_seen = 0
        self._last_switch: Optional[int] = None
        for sample in warm_samples:
            self.observe_update(*sample)
        # Cold start: round-robin exploration of every candidate whose
        # update law no sample has taught yet.  Compute costs need no
        # exploration -- every candidate's compute latency is priced
        # (observed) every batch regardless of which structure is live.
        self._explore_plan: List[str] = []
        if any(self.fits[s].count == 0 for s in self.structures):
            self._explore_plan = [
                s for s in self.structures
                for _ in range(EXPLORE_ROUNDS)
            ]

    # -- observations ---------------------------------------------------

    def observe_update(self, structure: str, ops: float, seconds: float) -> None:
        """One update-phase (ops, seconds) sample of ``structure``."""
        self.samples.append((structure, float(ops), float(seconds)))
        self.fits[structure].observe(ops, seconds)

    def observe_compute(
        self, structure: str, algorithm: str, model: str, seconds: float
    ) -> None:
        """One priced compute cell; refreshes its forecast."""
        key = (structure, algorithm, model)
        previous = self.compute_forecast.get(key)
        self.compute_forecast[key] = (
            seconds if previous is None
            else EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * previous
        )

    def note_migration(self, structure: str, edges: int, seconds: float) -> None:
        """A migration is one more bulk-update sample for ``structure``."""
        if edges > 0:
            self.observe_update(structure, float(edges), seconds)

    # -- prediction -----------------------------------------------------

    def predict_update(self, structure: str, ops: float) -> Optional[float]:
        return self.fits[structure].predict(ops)

    def _predict_batch(
        self, structure: str, batch_edges: int
    ) -> Tuple[float, Dict[str, str]]:
        """(predicted Equation-1 seconds, per-algorithm model choice)."""
        update = self.predict_update(
            structure, update_ops(batch_edges, self.churn_fraction)
        )
        total = update if update is not None else math.inf
        choices: Dict[str, str] = {}
        for algorithm in self.algorithms:
            best_model = None
            best_seconds = math.inf
            for model in self.models:
                seconds = self.compute_forecast.get((structure, algorithm, model))
                if seconds is not None and seconds < best_seconds:
                    best_model, best_seconds = model, seconds
            if best_model is None:
                # Nothing known yet (first-ever batch, cold start):
                # prefer INC, charge nothing -- symmetric across
                # structures, so the comparison stays fair.
                best_model = "INC" if "INC" in self.models else self.models[0]
                best_seconds = 0.0
            choices[algorithm] = best_model
            total += best_seconds
        return total, choices

    # -- the per-batch decision -----------------------------------------

    def decide(
        self,
        batch_index: int,
        total_batches: int,
        batch_edges: int,
        live: Optional[str],
        live_edges: int,
    ) -> Decision:
        """Pick (structure, per-algorithm model) for the coming batch."""
        predictions: Dict[str, Tuple[float, Dict[str, str]]] = {
            s: self._predict_batch(s, batch_edges) for s in self.structures
        }

        def finite(structure: str) -> float:
            total = predictions[structure][0]
            return total if math.isfinite(total) else math.inf

        best = min(self.structures, key=finite)
        if not math.isfinite(predictions[best][0]):
            best = self.structures[0]

        target = best
        migration_estimate = 0.0
        forced = self.forced_plan.get(self._batches_seen)
        if forced is not None:
            target, reason = forced, "forced"
        elif live is None:
            if self._explore_plan:
                target = self._explore_plan[0]
            reason = "start"
        elif self._batches_seen < len(self._explore_plan):
            target = self._explore_plan[self._batches_seen]
            reason = "explore"
        elif best == live:
            target, reason = live, "stay"
        else:
            gain = predictions[live][0] - predictions[best][0]
            horizon = min(HORIZON_BATCHES, max(1, total_batches - batch_index))
            estimate = self.predict_update(best, float(live_edges))
            migration_estimate = estimate if estimate is not None else 0.0
            in_cooldown = (
                self._last_switch is not None
                and batch_index - self._last_switch < COOLDOWN_BATCHES
            )
            if in_cooldown:
                target, reason = live, "cooldown"
            elif (
                math.isfinite(gain)
                and gain * horizon
                > migration_estimate * (1.0 + SWITCH_MARGIN)
            ):
                target, reason = best, "switch"
            else:
                target, reason = live, "hold"
        if live is not None and target != live:
            self._last_switch = batch_index
            self.switches += 1
        self._batches_seen += 1
        predicted, choices = predictions[target]
        return Decision(
            batch_index=batch_index,
            structure=target,
            models=choices,
            predicted_seconds=predicted if math.isfinite(predicted) else 0.0,
            migration_estimate_seconds=(
                migration_estimate if target != live else 0.0
            ),
            reason=reason,
        )

    # -- post-batch accounting ------------------------------------------

    def complete_batch(
        self,
        decision: Decision,
        update_ops: float,
        update_seconds: float,
        migration_seconds: float,
        compute_actual: Dict[Tuple[str, str, str], float],
    ) -> dict:
        """Log the batch outcome; returns the log entry.

        ``compute_actual`` maps (structure, algorithm, model) to priced
        seconds -- exact for *every* candidate, since compute pricing is
        analytic.  The estimated per-batch regret compares the chosen
        combination against the best candidate under actual compute
        seconds and (for non-live structures) predicted update seconds.
        """
        live = decision.structure
        chosen_compute = sum(
            compute_actual.get((live, alg, decision.models[alg]), 0.0)
            for alg in self.algorithms
        )
        actual = update_seconds + chosen_compute
        best_alternative = math.inf
        for structure in self.structures:
            if structure == live:
                update = update_seconds
            else:
                predicted = self.predict_update(structure, update_ops)
                if predicted is None:
                    continue
                update = predicted
            total = update
            for algorithm in self.algorithms:
                total += min(
                    compute_actual.get((structure, algorithm, model), math.inf)
                    for model in self.models
                )
            best_alternative = min(best_alternative, total)
        est_regret = (
            max(0.0, actual + migration_seconds - best_alternative)
            if math.isfinite(best_alternative)
            else 0.0
        )
        entry = {
            "batch": decision.batch_index,
            "structure": live,
            "models": dict(decision.models),
            "reason": decision.reason,
            "predicted_seconds": decision.predicted_seconds,
            "actual_seconds": actual,
            "migration_seconds": migration_seconds,
            "est_regret_seconds": est_regret,
        }
        self.log.append(entry)
        return entry

    def summary(self) -> dict:
        """Run-level rollup of the decision log (feeds the report)."""
        predicted = sum(e["predicted_seconds"] for e in self.log)
        actual = sum(e["actual_seconds"] for e in self.log)
        return {
            "batches": len(self.log),
            "switches": self.switches,
            "explore_batches": len(self._explore_plan),
            "predicted_seconds": predicted,
            "actual_seconds": actual,
            "migration_seconds": sum(e["migration_seconds"] for e in self.log),
            "est_regret_seconds": sum(e["est_regret_seconds"] for e in self.log),
            "structures": self.structures,
            "models": self.models,
        }


def adaptive_total_seconds(result) -> float:
    """Whole-run Equation-1 seconds of an adaptive result."""
    update = float(result.update_latency("adaptive").sum())
    compute = sum(
        float(result.compute_latency(a, "adaptive", "adaptive").sum())
        for a in result.algorithms
    )
    return update + compute


def static_combo_totals(result) -> Dict[Tuple[str, str], float]:
    """Whole-run seconds of every static (structure, model) combination.

    ``result`` is a full-matrix static run (every candidate structure
    and model); a combination's total is its update latency plus the
    compute latency of every algorithm under that one model.
    """
    totals: Dict[Tuple[str, str], float] = {}
    for structure in result.structures:
        update = float(result.update_latency(structure).sum())
        for model in result.models:
            compute = sum(
                float(result.compute_latency(a, model, structure).sum())
                for a in result.algorithms
            )
            totals[(structure, model)] = update + compute
    return totals


def oracle_total_seconds(result) -> float:
    """The per-batch oracle over a full-matrix static result.

    Every batch independently picks the cheapest structure, with
    per-algorithm compute-model freedom -- the clairvoyant schedule the
    adaptive driver is graded against (it pays migrations; the oracle
    does not).
    """
    update = result.update_cycles  # (1, B, S)
    compute = result.compute_cycles  # (1, B, A, M, S)
    best_models = compute.min(axis=3)  # (1, B, A, S)
    per_structure = update + best_models.sum(axis=2)  # (1, B, S)
    return float(result.machine.cycles_to_seconds(per_structure.min(axis=2).sum()))


class LiveStructurePlane(UpdatePlane):
    """The adaptive driver's plane: one live, migrating structure.

    The controller decides before every batch and the live structure
    alone ingests it; every candidate model is executed and every
    candidate structure priced, each cell fed to the controller, but
    only the ``(live, chosen model)`` cell is recorded, under
    ``"adaptive"``.
    """

    def __init__(self, driver: "AdaptiveStreamDriver", dataset, ctx) -> None:
        super().__init__(
            driver.config, dataset, ctx,
            driver.candidate_models, driver.candidate_structures,
        )
        self.controller = driver.controller
        self._live_name: Optional[str] = None
        self._live = None

    def update(self, batch, record, reference) -> Dict[str, int]:
        cfg, ctx, controller = self.config, self.ctx, self.controller
        with TRACER.span("autotune.decide"):
            decision = controller.decide(
                record.batch_index,
                self.total_batches,
                len(batch),
                self._live_name,
                reference.num_edges,
            )
        self._decision = decision
        self._migration_cycles = 0.0
        self._compute_actual: Dict[Tuple[str, str, str], float] = {}
        if self._live is None:
            self._live_name = decision.structure
            self._live = self.new_structure(self._live_name)
        elif decision.structure != self._live_name:
            migration = migrate_structure(
                reference, decision.structure, ctx, cost_model=cfg.cost_model
            )
            self._live = migration.structure
            self._live_name = migration.target
            self._migration_cycles = migration.latency_cycles
            controller.note_migration(
                self._live_name,
                migration.edges_moved,
                ctx.seconds(self._migration_cycles),
            )
            if METRICS.enabled:
                METRICS.counter(
                    "autotune_switches_total",
                    "live structure migrations performed",
                    target=self._live_name,
                ).inc()
        self._structure_cycles = 0.0
        return self._apply("update", batch)

    def delete(self, victims, record) -> Dict[str, int]:
        return self._apply("delete", victims)

    def _apply(self, operation: str, edges) -> Dict[str, int]:
        outcome = getattr(self._live, operation)(edges, self.ctx)
        self._structure_cycles += outcome.latency_cycles
        self.observe(self._live_name, outcome.schedule, operation)
        return {self._live_name: outcome.edges_inserted}

    def record_cell(self, algorithm, model, structure, cycles):
        seconds = self.ctx.seconds(cycles)
        self._compute_actual[(structure, algorithm, model)] = seconds
        self.controller.observe_compute(structure, algorithm, model, seconds)
        chosen = self._decision.models.get(algorithm, self.models[0])
        if structure == self._live_name and model == chosen:
            return ("adaptive", "adaptive")
        return None

    def after_batch(self, record) -> str:
        # The record carries the migration; the sample the controller
        # fits from does not.
        record.update_cycles["adaptive"] = (
            self._migration_cycles + self._structure_cycles
        )
        update = (
            update_ops(record.edges_attempted, self.config.churn_fraction),
            self.ctx.seconds(self._structure_cycles),
        )
        self.controller.observe_update(self._live_name, *update)
        decision = self._decision
        outcome = self.controller.complete_batch(
            decision,
            *update,
            self.ctx.seconds(self._migration_cycles),
            self._compute_actual,
        )
        if METRICS.enabled:
            METRICS.histogram(
                "autotune_predicted_latency_seconds",
                "controller-predicted per-batch latency",
            ).observe(decision.predicted_seconds)
            METRICS.histogram(
                "autotune_actual_latency_seconds",
                "realized per-batch latency of the chosen combination",
            ).observe(outcome["actual_seconds"])
            METRICS.counter(
                "autotune_est_regret_seconds_total",
                "estimated per-batch regret vs the best candidate",
            ).inc(outcome["est_regret_seconds"])
            METRICS.histogram(
                "stream_update_latency_seconds",
                "simulated per-batch update latency",
                structure="adaptive",
            ).observe(self.ctx.seconds(record.update_cycles["adaptive"]))
        return f" [{self._live_name}/{decision.reason}]"


class AdaptiveStreamDriver(StreamDriver):
    """The streaming driver with the auto-tuner in the loop.

    :class:`StreamDriver`'s batch loop over a
    :class:`LiveStructurePlane`: one live structure instead of the
    static matrix; the controller decides before every batch,
    migrations go through
    :func:`repro.graph.migrate.migrate_structure`, and the result series
    is keyed ``structures=("adaptive",), models=("adaptive",)``.
    """

    def __init__(self, config: Optional[StreamConfig] = None) -> None:
        super().__init__(config)
        cfg = self.config
        if not cfg.is_adaptive:
            raise ConfigError(
                "AdaptiveStreamDriver needs structures=('adaptive',) and "
                "models=('adaptive',)"
            )
        self.candidate_structures = tuple(
            cfg.candidate_structures or ALL_STRUCTURES
        )
        self.candidate_models = tuple(cfg.candidate_models or COMPUTE_MODELS)
        #: Warm-start update samples, assigned by the caller before
        #: :meth:`run` (``repro autotune --model-in`` loads them from disk).
        self.warm_samples: List[Sample] = []
        #: Test hook, copied onto the controller at run start.
        self.forced_plan: Dict[int, str] = {}
        self.controller: Optional[AdaptiveController] = None
        self.decision_log: Optional[dict] = None

    def _make_plane(self, dataset, ctx) -> LiveStructurePlane:
        self.controller = AdaptiveController(
            structures=self.candidate_structures,
            models=self.candidate_models,
            algorithms=self.config.algorithms,
            warm_samples=self.warm_samples,
            churn_fraction=self.config.churn_fraction,
        )
        self.controller.forced_plan.update(self.forced_plan)
        return LiveStructurePlane(self, dataset, ctx)

    def run(self, dataset):
        global LAST_DECISION_LOG
        result = super().run(dataset)
        self.decision_log = {
            "dataset": dataset.name,
            "summary": self.controller.summary(),
            "decisions": list(self.controller.log),
        }
        LAST_DECISION_LOG = self.decision_log
        return result
