"""Online auto-tuner: model-guided (structure, model) selection.

The paper's central finding (Table 3, Figs. 6-8) is that the best
(data structure, compute model) pair flips with algorithm and batch
size.  The fitted cost models of :mod:`repro.obs.model` predict those
crossovers; this module makes the driver *act* on them:

- :class:`AdaptiveController` keeps one :class:`OnlineGroupFit` per
  (phase, structure, algorithm, model) group -- exponentially-decayed
  least squares over the same (ops, seconds) pairs the feature log
  records, warm-started from a persisted :class:`FittedCostModel` when
  one is supplied and cold-started with a short round-robin exploration
  phase otherwise.  Before each batch it predicts every candidate's
  Equation-1 latency and switches structure only when the predicted
  savings over a look-ahead horizon exceed the priced migration cost by
  a safety margin (hysteresis).
- :class:`AdaptiveStreamDriver` runs :class:`StreamDriver`'s batch loop
  over a :class:`LiveStructurePlane`: a single live structure, migrated
  through :func:`repro.graph.migrate.migrate_structure` when the
  controller says so, the migration charged to the triggering batch.
  Every candidate compute model still *executes* each batch (INC must, to
  keep its incremental state bit-identical to a static INC run; FS runs
  are pure), and every candidate structure's compute latency is priced
  analytically -- so the controller observes the full matrix each batch
  while only the chosen combination is recorded as the batch's latency.

Algorithm results are therefore bit-identical to the static runs by
construction: values live on the reference graph, never inside the
migrating structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algorithms.registry import COMPUTE_MODELS
from repro.errors import ConfigError
from repro.graph.migrate import migrate_structure
from repro.obs.metrics import METRICS
from repro.obs.model import FittedCostModel, GroupFit, GroupKey, group_key
from repro.obs.tracer import TRACER
from repro.streaming.driver import (
    ALL_STRUCTURES,
    StreamConfig,
    StreamDriver,
    UpdatePlane,
)

#: The decision log of the most recent adaptive run in this process:
#: one dict per batch (see AdaptiveController.complete_batch) plus the
#: run-level summary.  The CLI report writer picks this up after the
#: run, the same way it collects the tracer and metrics registries.
LAST_DECISION_LOG: Optional[dict] = None


@dataclass(frozen=True)
class TunerConfig:
    """The auto-tuner's knobs (see docs/AUTOTUNE.md)."""

    #: Cold start: batches spent on each candidate structure before the
    #: predictive policy takes over (round-robin exploration).
    explore_rounds: int = 2
    #: Batches of predicted savings a switch is amortized over (capped
    #: at the remaining stream length).
    horizon_batches: int = 25
    #: Safety margin: predicted savings must exceed the estimated
    #: migration cost by this fraction before a switch fires.
    switch_margin: float = 0.25
    #: Batches to hold the current structure after a switch.
    cooldown_batches: int = 2
    #: Smoothing of the per-(algorithm, model) ops forecast.
    ewma_alpha: float = 0.5
    #: Per-observation decay of the online least-squares statistics
    #: (recent batches dominate, old regimes fade).
    decay: float = 0.9
    #: Pseudo-sample weight of the warm-start model when blending it
    #: with the online fit.
    prior_weight: float = 8.0
    #: Path of a persisted FittedCostModel to warm-start from.
    model_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.explore_rounds < 1:
            raise ConfigError(
                f"explore_rounds must be >= 1, got {self.explore_rounds}"
            )
        if self.horizon_batches < 1:
            raise ConfigError(
                f"horizon_batches must be >= 1, got {self.horizon_batches}"
            )
        if self.switch_margin < 0.0:
            raise ConfigError(
                f"switch_margin must be >= 0, got {self.switch_margin}"
            )
        if self.cooldown_batches < 0:
            raise ConfigError(
                f"cooldown_batches must be >= 0, got {self.cooldown_batches}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")


class OnlineGroupFit:
    """One group's ``T = setup + per_op * ops`` refined online.

    Exponentially-decayed least-squares sufficient statistics, blended
    with an optional warm-start :class:`~repro.obs.model.GroupFit`
    prior: the prior dominates until enough live observations arrive,
    then the online fit takes over (weight ``n / (n + prior_weight)``).
    """

    def __init__(
        self,
        decay: float = 0.9,
        prior: Optional[GroupFit] = None,
        prior_weight: float = 8.0,
    ) -> None:
        self.decay = decay
        self.prior = prior
        self.prior_weight = prior_weight
        self.count = 0
        self._n = self._sx = self._sy = self._sxx = self._sxy = 0.0

    def observe(self, ops: float, seconds: float) -> None:
        g = self.decay
        ops = float(ops)
        seconds = float(seconds)
        self._n = g * self._n + 1.0
        self._sx = g * self._sx + ops
        self._sy = g * self._sy + seconds
        self._sxx = g * self._sxx + ops * ops
        self._sxy = g * self._sxy + ops * seconds
        self.count += 1

    def _local_predict(self, ops: float) -> Optional[float]:
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

    def predict(self, ops: float) -> Optional[float]:
        """Blended prediction in seconds; ``None`` when truly unknown."""
        local = self._local_predict(ops)
        prior = self.prior.predict(ops) if self.prior is not None else None
        if local is None:
            return prior
        if prior is None:
            return local
        weight = self.count / (self.count + self.prior_weight)
        return weight * local + (1.0 - weight) * prior


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
    """Model-guided (structure, model) selection with hysteresis."""

    def __init__(
        self,
        structures: Tuple[str, ...],
        models: Tuple[str, ...],
        algorithms: Tuple[str, ...],
        tuner: Optional[TunerConfig] = None,
        warm_model: Optional[FittedCostModel] = None,
        churn_fraction: float = 0.0,
    ) -> None:
        if not structures:
            raise ConfigError("adaptive mode needs at least one candidate structure")
        if not models:
            raise ConfigError("adaptive mode needs at least one candidate model")
        self.structures = tuple(structures)
        self.models = tuple(models)
        self.algorithms = tuple(algorithms)
        self.tuner = tuner if tuner is not None else TunerConfig()
        self.warm_model = warm_model
        self.churn_fraction = churn_fraction
        self.fits: Dict[GroupKey, OnlineGroupFit] = {}
        self.ops_forecast: Dict[Tuple[str, str], float] = {}
        #: Test hook: force {batch_index: structure} decisions.
        self.forced_plan: Dict[int, str] = {}
        self.log: List[dict] = []
        self.switches = 0
        self._rep = 0
        self._batches_seen = 0
        self._last_switch: Optional[int] = None
        # Cold start: round-robin exploration of every candidate whose
        # update cost the warm model cannot price.  Compute costs need
        # no exploration -- every candidate's compute latency is priced
        # (observed) every batch regardless of which structure is live.
        self._explore_plan: List[str] = []
        if any(self._prior("update", s) is None for s in self.structures):
            self._explore_plan = [
                s for s in self.structures
                for _ in range(self.tuner.explore_rounds)
            ]

    # -- model access ---------------------------------------------------

    def _prior(
        self, phase: str, structure: str, algorithm: str = "", model: str = ""
    ) -> Optional[GroupFit]:
        if self.warm_model is None:
            return None
        return self.warm_model.groups.get(
            group_key(phase, structure, algorithm, model)
        )

    def _fit(
        self, phase: str, structure: str, algorithm: str = "", model: str = ""
    ) -> OnlineGroupFit:
        key = group_key(phase, structure, algorithm, model)
        fit = self.fits.get(key)
        if fit is None:
            fit = OnlineGroupFit(
                decay=self.tuner.decay,
                prior=self._prior(phase, structure, algorithm, model),
                prior_weight=self.tuner.prior_weight,
            )
            self.fits[key] = fit
        return fit

    # -- observations ---------------------------------------------------

    def observe_update(self, structure: str, ops: float, seconds: float) -> None:
        """One live-structure update-phase (ops, seconds) sample."""
        self._fit("update", structure).observe(ops, seconds)

    def observe_compute(
        self, structure: str, algorithm: str, model: str, ops: float,
        seconds: float,
    ) -> None:
        """One priced compute sample; also refreshes the ops forecast."""
        self._fit("compute", structure, algorithm, model).observe(ops, seconds)
        alpha = self.tuner.ewma_alpha
        key = (algorithm, model)
        previous = self.ops_forecast.get(key)
        self.ops_forecast[key] = (
            ops if previous is None else alpha * ops + (1.0 - alpha) * previous
        )

    def note_migration(self, structure: str, edges: int, seconds: float) -> None:
        """A migration is one more bulk-update sample for ``structure``."""
        if edges > 0:
            self._fit("update", structure).observe(float(edges), seconds)

    # -- prediction -----------------------------------------------------

    def update_ops_of(self, batch_edges: int) -> float:
        """Update-phase ops of a batch: inserts plus churn deletions."""
        churn = 0
        if self.churn_fraction > 0.0 and batch_edges:
            churn = max(1, int(batch_edges * self.churn_fraction))
        return float(batch_edges + churn)

    def predict_update(self, structure: str, ops: float) -> Optional[float]:
        return self._fit("update", structure).predict(ops)

    def predict_compute(
        self, structure: str, algorithm: str, model: str, batch_edges: int
    ) -> Optional[float]:
        fit = self._fit("compute", structure, algorithm, model)
        ops = self.ops_forecast.get((algorithm, model))
        if ops is not None:
            return fit.predict(ops)
        prior = self._prior("compute", structure, algorithm, model)
        if prior is not None:
            return prior.predict_batch(batch_edges)
        return None

    def _predict_batch(
        self, structure: str, batch_edges: int
    ) -> Tuple[float, Dict[str, str]]:
        """(predicted Equation-1 seconds, per-algorithm model choice)."""
        update = self.predict_update(structure, self.update_ops_of(batch_edges))
        total = update if update is not None else math.inf
        choices: Dict[str, str] = {}
        for algorithm in self.algorithms:
            best_model = None
            best_seconds = math.inf
            for model in self.models:
                seconds = self.predict_compute(
                    structure, algorithm, model, batch_edges
                )
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

    def begin_repetition(self, rep: int) -> None:
        """Reset per-repetition state (the learned fits persist)."""
        self._rep = rep
        self._last_switch = None

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
            horizon = min(
                self.tuner.horizon_batches, max(1, total_batches - batch_index)
            )
            estimate = self.predict_update(best, float(live_edges))
            migration_estimate = estimate if estimate is not None else 0.0
            in_cooldown = (
                self._last_switch is not None
                and batch_index - self._last_switch < self.tuner.cooldown_batches
            )
            if in_cooldown:
                target, reason = live, "cooldown"
            elif (
                math.isfinite(gain)
                and gain * horizon
                > migration_estimate * (1.0 + self.tuner.switch_margin)
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
            "rep": self._rep,
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
    update = result.update_cycles  # (R, B, S)
    compute = result.compute_cycles  # (R, B, A, M, S)
    best_models = compute.min(axis=3)  # (R, B, A, S)
    per_structure = update + best_models.sum(axis=2)  # (R, B, S)
    return float(result.machine.cycles_to_seconds(per_structure.min(axis=2).sum()))


class LiveStructurePlane(UpdatePlane):
    """The adaptive driver's plane: one live, migrating structure.

    The controller decides before every batch and the live structure
    alone ingests it; every candidate model is executed and every
    candidate structure priced, each cell fed to the controller, but
    only the ``(live, chosen model)`` cell is recorded, under
    ``"adaptive"``.
    """

    needs_ops = True

    def __init__(self, driver: "AdaptiveStreamDriver", dataset, ctx) -> None:
        super().__init__(
            driver.config, dataset, ctx,
            driver.candidate_models, driver.candidate_structures,
        )
        self.controller = driver.controller

    def begin_repetition(self, rep: int, total_batches: int) -> None:
        self.controller.begin_repetition(rep)
        self._total_batches = total_batches
        self._live_name: Optional[str] = None
        self._live = None

    def update(self, batch, record, reference) -> Dict[str, int]:
        cfg, ctx, controller = self.config, self.ctx, self.controller
        with TRACER.span("autotune.decide"):
            decision = controller.decide(
                record.batch_index,
                self._total_batches,
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

    def close_update(self, record, update_ops: int):
        """The record carries the migration; the sample the controller
        and the feature log fit from does not."""
        record.update_cycles["adaptive"] = (
            self._migration_cycles + self._structure_cycles
        )
        self._update = (
            float(update_ops), self.ctx.seconds(self._structure_cycles)
        )
        self.controller.observe_update(self._live_name, *self._update)
        return ((self._live_name, self._structure_cycles),)

    def record_cell(self, algorithm, model, structure, cycles, ops_row):
        seconds = self.ctx.seconds(cycles)
        self._compute_actual[(structure, algorithm, model)] = seconds
        self.controller.observe_compute(
            structure, algorithm, model, ops_row["ops"], seconds
        )
        chosen = self._decision.models.get(algorithm, self.models[0])
        if structure == self._live_name and model == chosen:
            return ("adaptive", "adaptive")
        return None

    def after_batch(self, record) -> str:
        decision = self._decision
        outcome = self.controller.complete_batch(
            decision,
            *self._update,
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
        self.tuner: TunerConfig = (
            cfg.autotune if cfg.autotune is not None else TunerConfig()
        )
        #: Warm-start model; assigned directly by callers that already
        #: hold one, or loaded from ``tuner.model_path``.
        self.warm_model: Optional[FittedCostModel] = None
        if self.tuner.model_path:
            self.warm_model = FittedCostModel.load(self.tuner.model_path)
        #: Test hook, copied onto the controller at run start.
        self.forced_plan: Dict[int, str] = {}
        self.controller: Optional[AdaptiveController] = None
        self.decision_log: Optional[dict] = None

    def _make_plane(self, dataset, ctx) -> LiveStructurePlane:
        self.controller = AdaptiveController(
            structures=self.candidate_structures,
            models=self.candidate_models,
            algorithms=self.config.algorithms,
            tuner=self.tuner,
            warm_model=self.warm_model,
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
