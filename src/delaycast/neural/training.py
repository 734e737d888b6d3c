"""Shared trainer: Adam on MSE, chronological batches, early stop, checkpoints.

Batches are never shuffled; the validation block is the chronological tail
of the training rows, so the monitored metric always looks at the most
recent data the model has not memorized batch-by-batch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..container import read_container, write_container
from ..numerics import adam_init, adam_step, clip_global_norm
from .models import build_from_spec


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    validation_fraction: float = 0.2
    patience: int = 5
    clip_max_norm: Optional[float] = None
    checkpoint_path: Optional[str] = None
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.clip_max_norm is not None and not 0 < self.clip_max_norm < math.inf:
            raise ValueError(f"clip_max_norm must be finite and > 0, got {self.clip_max_norm}")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    train_mae: float
    val_mse: float
    val_mae: float


class TrainingError(RuntimeError):
    pass


def _metrics(model, x, y):
    diff = model.forward(x) - y
    return float((diff * diff).mean()), float(np.abs(diff).mean())


def _write_checkpoint(path, model, config: TrainConfig, epoch: int, stats):
    meta = {
        "kind": "checkpoint",
        "spec": model.spec,
        "seed": model.spec["seed"],
        "config": {k: v for k, v in asdict(config).items() if k != "checkpoint_path"},
        "epoch": epoch,
        "metrics": {"val_mse": stats.val_mse, "val_mae": stats.val_mae,
                    "train_mse": stats.train_mse, "train_mae": stats.train_mae},
    }
    write_container(path, meta, model.params)


def load_checkpoint(path):
    """Rebuild the checkpointed model. Returns (model, meta)."""
    meta, tensors = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"not a training checkpoint: kind={meta.get('kind')!r}")
    model = build_from_spec(meta["spec"])
    model.load_params(tensors)
    return model, meta


def train(model, x, y, config: TrainConfig):
    """Fit in place; returns the per-epoch history tuple.

    The model is left holding the best-validation parameters, which are also
    the ones in the checkpoint file when a path is configured. Stops early
    once `patience` consecutive epochs fail to improve validation MSE; with
    no validation rows (fraction 0) the train metrics are monitored instead.
    A non-finite loss restores the best parameters and raises.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"X has {x.shape[0]} rows but Y has {y.shape[0]}")
    if x.shape[0] < 1:
        raise ValueError("empty training set")
    n_val = int(config.validation_fraction * x.shape[0])
    x_train, y_train = x[:x.shape[0] - n_val], y[:y.shape[0] - n_val]
    x_val, y_val = x[x.shape[0] - n_val:], y[y.shape[0] - n_val:]
    if x_train.shape[0] < 1:
        raise ValueError("validation split leaves no training rows")

    vector = model.vector
    params, grads = {"all": vector}, {"all": model.grad_vector}
    opt = adam_init(params, alpha=config.learning_rate)
    history = []
    best_mse = math.inf
    best_epoch = 0
    best = vector.copy()

    for epoch in range(1, config.epochs + 1):
        for start in range(0, x_train.shape[0], config.batch_size):
            xb = x_train[start:start + config.batch_size]
            yb = y_train[start:start + config.batch_size]
            # overflow surfaces as inf and is handled by the isfinite check
            with np.errstate(over="ignore", invalid="ignore"):
                pred, caches = model.forward_cached(xb)
                diff = pred - yb
                loss = float((diff * diff).mean())
            if not math.isfinite(loss):
                vector[...] = best
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch at row {start}; "
                    f"best parameters (epoch {best_epoch}) restored")
            # per-layer views of grad_vector in filing order, the clip's sum order
            filed, _ = model.backward(caches, 2.0 * diff / diff.size)
            if config.clip_max_norm is not None:
                clip_global_norm(filed, config.clip_max_norm)
            adam_step(params, grads, opt)

        train_mse, train_mae = _metrics(model, x_train, y_train)
        if n_val:
            val_mse, val_mae = _metrics(model, x_val, y_val)
        else:
            val_mse, val_mae = train_mse, train_mae
        stats = EpochStats(epoch, train_mse, train_mae, val_mse, val_mae)
        history.append(stats)
        if val_mse < best_mse:
            best_mse = val_mse
            best_epoch = epoch
            best = vector.copy()
            if config.checkpoint_path is not None:
                _write_checkpoint(config.checkpoint_path, model, config,
                                  epoch, stats)
        if epoch - best_epoch >= config.patience:
            break

    vector[...] = best
    return tuple(history)
