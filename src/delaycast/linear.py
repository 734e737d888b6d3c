"""Multi-output linear least squares on an intercept-augmented design.

One SVD of [1|X] serves all k targets; the solve never forms XᵀX, so the
conditioning of the design carries through to the coefficients untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import matrix

RANK_TOLERANCE = 1e-10  # singular values below tol*s_max count as zero


@dataclass(frozen=True)
class LinearModel:
    """beta has shape (p+1, k): intercept row first, then one row per feature."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", matrix(self.beta))

    @property
    def n_features(self) -> int:
        return self.beta.shape[0] - 1


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _dependent_columns(a: np.ndarray, tol: float) -> list[str]:
    """Greedy left-to-right scan: a column is dependent if it adds no rank."""
    labels = ["intercept"] + [f"x{j}" for j in range(a.shape[1] - 1)]
    kept: list[int] = []
    dependent: list[str] = []
    for j in range(a.shape[1]):
        s = np.linalg.svd(a[:, kept + [j]], compute_uv=False)
        if s[-1] <= tol * s[0]:
            dependent.append(labels[j])
        else:
            kept.append(j)
    return dependent


def fit(x, y, rank_tolerance: float = RANK_TOLERANCE) -> LinearModel:
    """Least-squares coefficients minimizing ||Y - [1|X] beta||_F.

    Requires n > p and a full-column-rank augmented design; a rank-deficient
    design raises with the dependent columns named (intercept, x0, x1, ...).
    """
    x = matrix(x)
    y = matrix(y)
    n, p = x.shape
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but Y has {y.shape[0]}")
    if n <= p:
        raise ValueError(f"need more rows than features: n={n}, p={p}")
    a = _augment(x)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= rank_tolerance * s[0]:
        bad = _dependent_columns(a, rank_tolerance)
        raise ValueError(f"design matrix is rank deficient; dependent columns: {bad}")
    beta = vt.T @ ((u.T @ y) / s[:, None])
    return LinearModel(beta=beta)


def predict(model: LinearModel, x) -> np.ndarray:
    x = matrix(x)
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {x.shape[1]}")
    return _augment(x) @ model.beta
