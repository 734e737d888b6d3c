"""Shared trainer: Adam on MSE, chronological batches, early stop.

Batches are never shuffled; the validation block is the chronological tail
of the training rows, so the monitored metric always looks at the most
recent data the model has not memorized batch-by-batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..numerics import adam_init, adam_step, clip_global_norm


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    validation_fraction: float = 0.2
    patience: int = 5
    clip_max_norm: Optional[float] = None
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
    """One epoch of `train`.

    With validation rows, `train_mse`/`train_mae` are the epoch's batch
    errors, each taken before that batch's update, summed and divided by the
    training targets (Keras reports its training loss the same way); with
    none, both pairs come from one pass over the training rows after the
    epoch. `seconds` is the epoch's wall time and takes no part in equality.
    `max_norm`/`mean_norm` are the largest and mean pre-clip global gradient
    norm over the epoch's batches and `clipped` the batches the clip scaled;
    the norms are None without a clip.
    """

    epoch: int
    train_mse: float
    train_mae: float
    val_mse: float
    val_mae: float
    seconds: float = field(default=0.0, compare=False)
    max_norm: Optional[float] = None
    mean_norm: Optional[float] = None
    clipped: int = 0


class TrainingError(RuntimeError):
    pass


def _metrics(model, x, y):
    diff = model.forward(x) - y
    return float((diff * diff).mean()), float(np.abs(diff).mean())


def validation_rows(examples: int, fraction: float) -> int:
    """How many of `examples` `train` holds out at their end for early stopping."""
    return int(fraction * examples)


def train(model, x, y, config: TrainConfig):
    """Fit in place; returns the per-epoch history tuple of `EpochStats`.

    The model is left holding the best-validation parameters. Stops early
    once `patience` consecutive epochs fail to improve validation MSE. With
    validation rows, the train metrics come from the batch loop's own errors,
    so an epoch passes over the training rows once; with none (fraction 0)
    one pass over the training rows after the epoch gives the train metrics,
    and they are monitored instead. A non-finite loss restores the best
    parameters and raises.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"X has {x.shape[0]} rows but Y has {y.shape[0]}")
    if x.shape[0] < 1:
        raise ValueError("empty training set")
    n_val = validation_rows(x.shape[0], config.validation_fraction)
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
        clock = time.perf_counter()
        squared = absolute = 0.0
        norms = []
        for start in range(0, x_train.shape[0], config.batch_size):
            xb = x_train[start:start + config.batch_size]
            yb = y_train[start:start + config.batch_size]
            # overflow surfaces as inf and is handled by the isfinite check
            with np.errstate(over="ignore", invalid="ignore"):
                pred, caches = model.forward_cached(xb)
                diff = pred - yb
                batch_squared = float((diff * diff).sum())
            if not math.isfinite(batch_squared):
                vector[...] = best
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch at row {start}; "
                    f"best parameters (epoch {best_epoch}) restored")
            squared += batch_squared
            absolute += float(np.abs(diff).sum())
            # per-layer views of grad_vector in filing order, the clip's sum order
            filed, _ = model.backward(caches, 2.0 * diff / diff.size)
            if config.clip_max_norm is not None:
                norms.append(clip_global_norm(filed, config.clip_max_norm)[1])
            adam_step(params, grads, opt)

        if n_val:
            train_mse, train_mae = squared / y_train.size, absolute / y_train.size
            val_mse, val_mae = _metrics(model, x_val, y_val)
        else:
            train_mse, train_mae = val_mse, val_mae = _metrics(model, x_train, y_train)
        clip = {}
        if norms:
            clip = {"max_norm": max(norms), "mean_norm": sum(norms) / len(norms),
                    "clipped": sum(norm > config.clip_max_norm for norm in norms)}
        stats = EpochStats(epoch, train_mse, train_mae, val_mse, val_mae,
                           time.perf_counter() - clock, **clip)
        history.append(stats)
        if val_mse < best_mse:
            best_mse = val_mse
            best_epoch = epoch
            best = vector.copy()
        if epoch - best_epoch >= config.patience:
            break

    vector[...] = best
    return tuple(history)
