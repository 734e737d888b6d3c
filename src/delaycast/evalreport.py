"""Test-set metrics, model ranking, and report rendering.

Total MSE/MAE average over every target entry, so in component mode the
total MAE equals the mean of the five per-component MAEs (equal row counts).
Reports come out three ways: aligned text tables, CSV, and a JSON bundle;
chart data exports as a grouped-bar CSV of (model, metric, value).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .features import COMPONENT_NAMES, FeatureTable
from .regressors import TrainedModel, predict_table

_DISPLAY = {"carrier": "Carrier", "weather": "Weather", "nas": "NAS",
            "security": "Security", "late_aircraft": "Late Aircraft"}


@dataclass(frozen=True)
class ComponentRow:
    """Per-component test row: true mean, prediction mean, MAE (minutes)."""

    name: str
    true_mean: float
    pred_mean: float
    mae: float

    def __post_init__(self):
        if not (self.mae >= 0.0 and math.isfinite(self.mae)):
            raise ValueError(f"mae must be finite and >= 0, got {self.mae}")


@dataclass(frozen=True)
class ModelSummary:
    """One model's totals plus the run manifest that produced them."""

    name: str
    mse: float
    mae: float
    target_mode: str
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, v in (("mse", self.mse), ("mae", self.mae)):
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{label} must be finite and >= 0, got {v}")


def evaluate(trained: TrainedModel, table: FeatureTable,
             name: Optional[str] = None):
    """Score the table; returns (ModelSummary, ComponentRow tuple).

    Component rows are empty in total mode. Windowed models score rows
    window-1 onward; truth is aligned the same way. Deterministic and
    side-effect free.
    """
    if table.target_mode != trained.target_mode:
        raise ValueError(f"model predicts {trained.target_mode!r} targets but "
                         f"the table holds {table.target_mode!r}")
    pred = predict_table(trained, table)
    truth = table.y[trained.window - 1:]
    diff = pred - truth
    mse = float((diff * diff).mean())
    mae = float(np.abs(diff).mean())
    manifest = {"kind": trained.kind, "target_mode": trained.target_mode,
                "window": trained.window, "rows_scored": int(pred.shape[0]),
                "settings": dict(trained.settings)}
    summary = ModelSummary(name=name or trained.kind, mse=mse, mae=mae,
                           target_mode=trained.target_mode, manifest=manifest)
    rows = []
    if trained.target_mode == "components":
        for j, comp in enumerate(COMPONENT_NAMES):
            rows.append(ComponentRow(
                name=_DISPLAY[comp],
                true_mean=float(truth[:, j].mean()),
                pred_mean=float(pred[:, j].mean()),
                mae=float(np.abs(diff[:, j]).mean())))
    return summary, tuple(rows)


def compare(summaries) -> tuple:
    """Rank best first: MSE, then MAE, then name as the final tiebreak."""
    return tuple(sorted(summaries, key=lambda s: (s.mse, s.mae, s.name)))


# --- rendering --------------------------------------------------------------------


def _aligned(header, rows) -> str:
    """Two-space gutters; first column left-aligned, the rest right-aligned."""
    table = [tuple(header)] + [tuple(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    out = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def render_totals(summaries) -> str:
    """Ranked totals table: Model / MSE / MAE at three decimals."""
    ranked = compare(summaries)
    return _aligned(("Model", "MSE", "MAE"),
                    [(s.name, f"{s.mse:.3f}", f"{s.mae:.3f}") for s in ranked])


def render_components(rows) -> str:
    """Per-component table: true mean, mean of predictions, MAE."""
    return _aligned(("Delay Component", "True Mean", "Mean of Predictions", "MAE"),
                    [(r.name, f"{r.true_mean:.3f}", f"{r.pred_mean:.3f}",
                      f"{r.mae:.3f}") for r in rows])


def totals_csv(summaries) -> str:
    lines = ["model,mse,mae,target_mode"]
    for s in compare(summaries):
        lines.append(f"{s.name},{s.mse!r},{s.mae!r},{s.target_mode}")
    return "\n".join(lines) + "\n"


def report_bundle(summaries, components=None) -> dict:
    """JSON-ready dict: ranked summaries plus optional per-model component rows."""
    bundle = {"models": [{"name": s.name, "mse": s.mse, "mae": s.mae,
                          "target_mode": s.target_mode, "manifest": s.manifest}
                         for s in compare(summaries)]}
    if components:
        bundle["components"] = {
            name: [{"name": r.name, "true_mean": r.true_mean,
                    "pred_mean": r.pred_mean, "mae": r.mae} for r in rows]
            for name, rows in components.items()}
    return bundle


def read_bundle(path):
    """Read a `report_bundle` file back: (summaries, {name: ComponentRow tuple})."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "models" not in data:
        raise ValueError(f"{path} is not an evaluation report bundle")
    summaries = [ModelSummary(name=m["name"], mse=m["mse"], mae=m["mae"],
                              target_mode=m["target_mode"],
                              manifest=m.get("manifest", {}))
                 for m in data["models"]]
    components = {name: tuple(ComponentRow(r["name"], r["true_mean"],
                                           r["pred_mean"], r["mae"])
                              for r in rows)
                  for name, rows in data.get("components", {}).items()}
    return summaries, components


def export_chart_data(summaries, path) -> str:
    """Grouped-bar CSV (model, metric, value); values round-trip via repr."""
    lines = ["model,metric,value"]
    for s in summaries:
        lines.append(f"{s.name},mse,{s.mse!r}")
        lines.append(f"{s.name},mae,{s.mae!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
