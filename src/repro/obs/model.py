"""Span-derived closed-form cost models: ``T = setup + per_op * ops``.

The streaming driver records one feature row per (batch, phase,
structure[, algorithm, model]) into :data:`repro.obs.features.FEATURES`
-- the simulated phase latency together with the abstract operation
count that produced it (see ``_run_ops_decomposition`` in
:mod:`repro.streaming.driver`).  The simulator prices phases linearly
in exactly those counts, so a per-group affine fit recovers the
simulator's own cost surface:

``T(group, ops) = setup(group) + per_op(group) * ops``

where a *group* is ``(phase, structure, algorithm, model)`` (algorithm
and model are empty for the update phase).  The fit is ordinary least
squares with residual diagnostics (median/max relative error, R^2)
kept per group, and the whole model serializes to versioned JSON so a
fit can be committed, diffed, and reloaded by later tooling (the run
report, the ROADMAP auto-tuner).

Because each group also stores its mean *ops per streamed edge*, a
group can extrapolate its latency to a hypothetical batch size
(:meth:`GroupFit.predict_batch`), which is how the online auto-tuner
warm-starts from a persisted model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

#: Bump when the JSON layout changes; ``FittedCostModel.from_json``
#: refuses payloads from a different schema.
MODEL_SCHEMA_VERSION = 1

#: A model group key: (phase, structure, algorithm, model).  Update
#: groups use empty algorithm/model.
GroupKey = Tuple[str, str, str, str]


def group_key(
    phase: str, structure: str, algorithm: str = "", model: str = ""
) -> GroupKey:
    return (phase, structure, algorithm, model)


@dataclass
class GroupFit:
    """One group's affine fit plus its residual diagnostics."""

    phase: str
    structure: str
    algorithm: str = ""
    model: str = ""
    #: Fixed per-batch cost in seconds (the intercept).
    setup: float = 0.0
    #: Marginal cost per abstract operation in seconds (the slope).
    per_op: float = 0.0
    #: Mean abstract operations per streamed edge -- lets the model
    #: extrapolate to a batch size it never observed.
    ops_per_edge: float = 0.0
    samples: int = 0
    median_rel_err: float = 0.0
    max_rel_err: float = 0.0
    r2: float = 1.0

    @property
    def key(self) -> GroupKey:
        return (self.phase, self.structure, self.algorithm, self.model)

    def predict(self, ops: float) -> float:
        """Predicted latency in seconds (clamped at zero)."""
        return max(0.0, self.setup + self.per_op * float(ops))

    def predict_batch(self, batch_edges: float) -> float:
        """Predicted latency of a batch of ``batch_edges`` edges."""
        return self.predict(self.ops_per_edge * float(batch_edges))

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "structure": self.structure,
            "algorithm": self.algorithm,
            "model": self.model,
            "setup": self.setup,
            "per_op": self.per_op,
            "ops_per_edge": self.ops_per_edge,
            "samples": self.samples,
            "median_rel_err": self.median_rel_err,
            "max_rel_err": self.max_rel_err,
            "r2": self.r2,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GroupFit":
        return cls(**payload)


def _affine_fit(ops: np.ndarray, t: np.ndarray) -> Tuple[float, float]:
    """Least-squares ``t ~ setup + per_op * ops`` (degenerate-safe)."""
    if ops.size == 1 or float(np.ptp(ops)) == 0.0:
        # No slope information: the whole cost is "setup".
        return float(t.mean()), 0.0
    a = np.stack([np.ones_like(ops), ops], axis=1)
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    return float(coef[0]), float(coef[1])


def _diagnose(fit: GroupFit, ops: np.ndarray, t: np.ndarray) -> None:
    pred = np.maximum(0.0, fit.setup + fit.per_op * ops)
    nonzero = t > 0
    if nonzero.any():
        rel = np.abs(pred[nonzero] - t[nonzero]) / t[nonzero]
        fit.median_rel_err = float(np.median(rel))
        fit.max_rel_err = float(rel.max())
    ss_res = float(((t - pred) ** 2).sum())
    ss_tot = float(((t - t.mean()) ** 2).sum())
    fit.r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


@dataclass
class FittedCostModel:
    """Every group's fit, addressable by key, JSON round-trippable."""

    groups: Dict[GroupKey, GroupFit] = field(default_factory=dict)
    #: Free-form provenance (dataset, batch size, git SHA, ...).
    source: Dict[str, object] = field(default_factory=dict)

    # -- diagnostics ----------------------------------------------------

    def diagnostics(self) -> List[dict]:
        """Per-group diagnostics, stably ordered for reports/tests."""
        return [self.groups[key].to_json() for key in sorted(self.groups)]

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": MODEL_SCHEMA_VERSION,
            "source": self.source,
            "groups": self.diagnostics(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FittedCostModel":
        schema = payload.get("schema")
        if schema != MODEL_SCHEMA_VERSION:
            raise ConfigError(
                f"cost-model schema {schema!r} unsupported (this build "
                f"reads schema {MODEL_SCHEMA_VERSION}); re-fit the model "
                f"with `repro report --model-out` or scripts/ of this "
                f"checkout instead of reusing one from another version"
            )
        model = cls(source=dict(payload.get("source", {})))
        for entry in payload.get("groups", []):
            fit = GroupFit.from_json(entry)
            model.groups[fit.key] = fit
        return model

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "FittedCostModel":
        return cls.from_json(json.loads(Path(path).read_text()))


def _row_key(row: dict) -> GroupKey:
    return (
        str(row.get("phase", "")),
        str(row.get("structure", "")),
        str(row.get("algorithm", "")),
        str(row.get("model", "")),
    )


def fit_cost_model(
    rows: Iterable[dict],
    source: Optional[Dict[str, object]] = None,
) -> FittedCostModel:
    """Fit one affine model per group from feature rows.

    ``rows`` is what :meth:`repro.obs.features.FeatureLog.rows`
    returns; any iterable of dicts with ``phase``/``structure``
    (optionally ``algorithm``/``model``), ``t_seconds``, ``ops`` and
    ``batch_edges`` fields works.  Groups with fewer than two rows are
    skipped (one point cannot separate setup from per-op cost).
    """
    grouped: Dict[GroupKey, List[dict]] = {}
    for row in rows:
        phase = row.get("phase")
        if phase not in ("update", "compute"):
            continue
        grouped.setdefault(_row_key(row), []).append(row)
    fitted = FittedCostModel(source=dict(source or {}))
    for key in sorted(grouped):
        group_rows = grouped[key]
        if len(group_rows) < 2:
            continue
        ops = np.array([float(r.get("ops", 0.0)) for r in group_rows])
        t = np.array([float(r.get("t_seconds", 0.0)) for r in group_rows])
        edges = np.array([float(r.get("batch_edges", 0.0)) for r in group_rows])
        fit = GroupFit(phase=key[0], structure=key[1], algorithm=key[2], model=key[3])
        fit.samples = len(group_rows)
        fit.setup, fit.per_op = _affine_fit(ops, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_edge = np.where(edges > 0, ops / np.maximum(edges, 1.0), 0.0)
        fit.ops_per_edge = float(per_edge[edges > 0].mean()) if (edges > 0).any() else 0.0
        _diagnose(fit, ops, t)
        if not (math.isfinite(fit.setup) and math.isfinite(fit.per_op)):
            continue
        fitted.groups[fit.key] = fit
    return fitted


def fit_from_features(
    source: Optional[Dict[str, object]] = None,
) -> FittedCostModel:
    """Fit directly from the process-global feature log."""
    from repro.obs.features import FEATURES

    return fit_cost_model(FEATURES.rows(), source=source)
