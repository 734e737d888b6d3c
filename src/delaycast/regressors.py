"""Uniform train/predict wrappers over the model zoo.

Eight model kinds share one entry point. Classic kinds (ols, tree, forest,
gbt) fit on the raw feature matrix; neural kinds standardize inputs, center
every column, and rescale targets so the optimizer starts from the train-mean
predictor. Sequence kinds consume sliding windows, so their predictions align
to table rows window-1 onward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .features import (
    FeatureTable,
    Standardizer,
    fit_standardizer,
    positive_variance_columns,
)
from . import linear
from .neural import (
    TrainConfig,
    bilstm_model_build,
    hybrid_model_build,
    lstm_model_build,
    mlp_build,
    sliding_windows,
    train,
)
from .trees import (
    forest_fit,
    forest_predict,
    gbt_fit,
    gbt_predict,
    tree_fit,
    tree_predict,
)

MODEL_KINDS = ("ols", "tree", "forest", "gbt", "mlp", "lstm", "bilstm", "hybrid")
NEURAL_KINDS = ("mlp", "lstm", "bilstm", "hybrid")
SEQUENCE_KINDS = ("lstm", "bilstm", "hybrid")

# pooled target spread below this trains on raw residuals instead
_FLAT_TARGET_EPS = 1e-8
# boosting's L2 leaf penalty and split gain floor
_GBT_REG_LAMBDA = 1.0
_GBT_GAMMA = 0.0
# share of the training rows held out for early stopping
_VALIDATION_FRACTION = 0.2


@dataclass
class FitOptions:
    """Hyperparameters for train_model; None fields take per-kind defaults.

    Tree-family defaults follow the library conventions (tree depth 10 with
    5-row leaves, forest depth 20 with single-row leaves, boosting depth 6),
    neural defaults follow the training recipe (50 epochs, Adam 1e-3, batch
    32 for the dense net and 256 with unit gradient clipping for the
    recurrent ones).
    """

    seed: int = 0
    window: int = 1
    max_depth: Optional[int] = None
    min_samples_leaf: Optional[int] = None
    n_estimators: int = 100
    rounds: int = 100
    learning_rate: Optional[float] = None
    epochs: int = 50
    batch_size: Optional[int] = None
    patience: int = 5
    clip_max_norm: Optional[float] = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model plus everything needed to encode and score new rows."""

    kind: str
    target_mode: str
    feature_names: tuple
    codebook_columns: dict   # category vocabularies the table was encoded with
    window: int
    inner: object
    settings: dict = field(default_factory=dict)
    # neural-only preprocessing state; None for the classic kinds
    scaler: Optional[Standardizer] = None
    input_offset: Optional[np.ndarray] = None
    target_offset: Optional[np.ndarray] = None
    target_scale: float = 1.0
    # ols-only: columns kept after dropping zero-variance ones
    used_columns: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; "
                             f"expected one of {', '.join(MODEL_KINDS)}")
        if self.kind in NEURAL_KINDS:
            if self.scaler is None or self.input_offset is None:
                raise ValueError(f"{self.kind} model needs scaler and input_offset")
            if self.target_offset is None or self.target_scale <= 0.0:
                raise ValueError(f"{self.kind} model needs target scaling state")


def _column_subset(x: np.ndarray, feature_names, wanted) -> np.ndarray:
    idx = [feature_names.index(c) for c in wanted]
    return x[:, idx]


def _fit_ols(table: FeatureTable, options: FitOptions):
    # constant columns (single-year data) duplicate the intercept; drop them
    used = positive_variance_columns(table.x, table.feature_names)
    if not used:
        raise ValueError("all feature columns are constant; nothing to fit")
    model = linear.fit(_column_subset(table.x, table.feature_names, used), table.y)
    settings = {"columns": list(used)}
    return model, settings, used


def _fit_trees(table: FeatureTable, kind: str, options: FitOptions):
    if kind == "tree":
        depth = 10 if options.max_depth is None else options.max_depth
        leaf = 5 if options.min_samples_leaf is None else options.min_samples_leaf
        model = tree_fit(table.x, table.y, max_depth=depth, min_samples_leaf=leaf)
        settings = {"max_depth": depth, "min_samples_leaf": leaf}
    elif kind == "forest":
        depth = 20 if options.max_depth is None else options.max_depth
        leaf = 1 if options.min_samples_leaf is None else options.min_samples_leaf
        model = forest_fit(table.x, table.y, n_estimators=options.n_estimators,
                           max_depth=depth, min_samples_leaf=leaf,
                           seed=options.seed)
        settings = {"n_estimators": options.n_estimators, "max_depth": depth,
                    "min_samples_leaf": leaf, "seed": options.seed}
    else:
        depth = 6 if options.max_depth is None else options.max_depth
        rate = 0.3 if options.learning_rate is None else options.learning_rate
        model = gbt_fit(table.x, table.y, rounds=options.rounds,
                        learning_rate=rate, max_depth=depth,
                        reg_lambda=_GBT_REG_LAMBDA, gamma=_GBT_GAMMA)
        settings = {"rounds": options.rounds, "learning_rate": rate,
                    "max_depth": depth, "reg_lambda": _GBT_REG_LAMBDA,
                    "gamma": _GBT_GAMMA}
    return model, settings


def _build_network(kind: str, n_features: int, output: int, window: int, seed: int):
    if kind == "mlp":
        return mlp_build(input_size=n_features, output=output, seed=seed)
    if kind == "lstm":
        return lstm_model_build(input_size=n_features, output=output, seed=seed)
    if kind == "bilstm":
        return bilstm_model_build(input_size=n_features, output=output, seed=seed)
    return hybrid_model_build(input_size=n_features, output=output,
                              window=window, seed=seed)


def _fit_neural(table: FeatureTable, kind: str, options: FitOptions):
    names = table.feature_names
    scaled_cols = positive_variance_columns(table.x, names)
    scaler = fit_standardizer(table.x, names, columns=scaled_cols)
    xs = scaler.apply(table.x)
    input_offset = xs.mean(axis=0)   # zeroes the constant columns too
    xin = xs - input_offset

    target_offset = table.y.mean(axis=0)
    centered = table.y - target_offset
    target_scale = float(np.sqrt((centered * centered).mean()))
    if target_scale < _FLAT_TARGET_EPS:
        target_scale = 1.0
    yin = centered / target_scale

    output = table.y.shape[1]
    model = _build_network(kind, len(names), output, options.window, options.seed)

    if kind == "mlp":
        x_fit, y_fit = xin, yin
    else:
        # target = the window's final row, as in predict_table
        x_fit = sliding_windows(xin, options.window)
        y_fit = yin[options.window - 1:]

    batch_size = options.batch_size
    if batch_size is None:
        batch_size = 32 if kind == "mlp" else 256
    clip = options.clip_max_norm
    if clip is None and kind in SEQUENCE_KINDS:
        clip = 1.0
    rate = 1e-3 if options.learning_rate is None else options.learning_rate
    config = TrainConfig(epochs=options.epochs, batch_size=batch_size,
                         validation_fraction=_VALIDATION_FRACTION,
                         patience=options.patience, clip_max_norm=clip,
                         learning_rate=rate)
    history = train(model, x_fit, y_fit, config)
    best_val = min(h.val_mse for h in history)
    settings = {"epochs": options.epochs, "batch_size": batch_size,
                "learning_rate": rate,
                "validation_fraction": _VALIDATION_FRACTION,
                "patience": options.patience, "clip_max_norm": clip,
                "seed": options.seed, "epochs_run": len(history),
                "best_val_mse": best_val}
    state = {"scaler": scaler, "input_offset": input_offset,
             "target_offset": target_offset, "target_scale": target_scale}
    return model, settings, state, history


def train_model(table: FeatureTable, kind: str,
                options: Optional[FitOptions] = None):
    """Fit `kind` on the (chronological) table. Returns (TrainedModel, history).

    History is the per-epoch stats tuple for neural kinds and () otherwise.
    Sequence kinds need `options.window` rows per example; everything else
    requires window == 1.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"expected one of {', '.join(MODEL_KINDS)}")
    if options is None:
        options = FitOptions()
    if kind not in SEQUENCE_KINDS and options.window != 1:
        raise ValueError(f"{kind} scores single rows; window must be 1")

    common = dict(kind=kind, target_mode=table.target_mode,
                  feature_names=table.feature_names,
                  codebook_columns=dict(table.codebook.columns),
                  window=options.window)
    if kind == "ols":
        model, settings, used = _fit_ols(table, options)
        return TrainedModel(inner=model, settings=settings,
                            used_columns=used, **common), ()
    if kind in ("tree", "forest", "gbt"):
        model, settings = _fit_trees(table, kind, options)
        return TrainedModel(inner=model, settings=settings, **common), ()
    model, settings, state, history = _fit_neural(table, kind, options)
    return TrainedModel(inner=model, settings=settings, **state, **common), history


def predict_table(trained: TrainedModel, table: FeatureTable) -> np.ndarray:
    """Score every scorable row; output row i maps to table row i + window - 1."""
    if tuple(table.feature_names) != tuple(trained.feature_names):
        raise ValueError("table feature columns do not match the model")
    if dict(table.codebook.columns) != trained.codebook_columns:
        raise ValueError("table was encoded with a different codebook; "
                         "re-encode with the model's vocabularies")
    x = table.x
    if trained.kind == "ols":
        return linear.predict(
            trained.inner, _column_subset(x, table.feature_names,
                                          trained.used_columns))
    if trained.kind == "tree":
        return tree_predict(trained.inner, x)
    if trained.kind == "forest":
        return forest_predict(trained.inner, x)
    if trained.kind == "gbt":
        return gbt_predict(trained.inner, x)

    xin = trained.scaler.apply(x) - trained.input_offset
    if trained.kind == "mlp":
        raw = trained.inner.forward(xin)
    else:
        raw = trained.inner.forward(sliding_windows(xin, trained.window))
    return trained.target_offset + trained.target_scale * raw
