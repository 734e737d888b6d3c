"""Feed-forward building blocks with explicit backward passes.

Shared layer protocol: `params` is a dict of live arrays, `forward(x) ->
(y, cache)`, and `backward(cache, grad_y) -> (grad_x, grads)` where `grads`
mirrors `params`. In a model, `params` holds views of the model's parameter
vector, which the optimizer updates in place, and `grads` are copied into
views of its gradient vector.
"""

from __future__ import annotations

import numpy as np

from ..numerics import Rng


def glorot(rng: Rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_array(shape, -limit, limit)


def _apply_activation(z: np.ndarray, activation: str):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "identity":
        return z
    raise ValueError(f"unknown activation {activation!r}")


class Dense:
    """y = act(x W + b) on 2-D inputs."""

    def __init__(self, input_size: int, output_size: int, activation: str,
                 rng: Rng):
        _apply_activation(np.zeros(1), activation)  # validate name early
        self.activation = activation
        self.params = {
            "w": glorot(rng, (input_size, output_size), input_size, output_size),
            "b": np.zeros(output_size),
        }

    def forward(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.params["w"].shape[0]:
            raise ValueError(
                f"dense layer expects (n, {self.params['w'].shape[0]}), got {x.shape}")
        z = x @ self.params["w"] + self.params["b"]
        return _apply_activation(z, self.activation), (x, z)

    def backward(self, cache, grad_y: np.ndarray):
        x, z = cache
        grad_z = grad_y * (z > 0.0) if self.activation == "relu" else grad_y
        grads = {"w": x.T @ grad_z, "b": grad_z.sum(axis=0)}
        return grad_z @ self.params["w"].T, grads


class Conv1d:
    """Valid (no-padding) cross-correlation over the time axis.

    Input (n, T, c_in), kernel (K, c_in, filters), output (n, T-K+1, filters).
    """

    def __init__(self, input_channels: int, filters: int, kernel: int,
                 activation: str, rng: Rng):
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        _apply_activation(np.zeros(1), activation)
        self.activation = activation
        self.kernel = kernel
        self.params = {
            "w": glorot(rng, (kernel, input_channels, filters),
                        kernel * input_channels, filters),
            "b": np.zeros(filters),
        }

    def forward(self, x: np.ndarray):
        k, c_in, filters = self.params["w"].shape
        if x.ndim != 3 or x.shape[2] != c_in:
            raise ValueError(f"conv expects (n, T, {c_in}), got {x.shape}")
        if x.shape[1] < k:
            raise ValueError(f"sequence length {x.shape[1]} shorter than kernel {k}")
        out_len = x.shape[1] - k + 1
        z = np.broadcast_to(self.params["b"], (x.shape[0], out_len, filters)).copy()
        for dt in range(k):
            z += x[:, dt:dt + out_len, :] @ self.params["w"][dt]
        return _apply_activation(z, self.activation), (x, z)

    def backward(self, cache, grad_y: np.ndarray):
        x, z = cache
        k = self.kernel
        out_len = z.shape[1]
        grad_z = grad_y * (z > 0.0) if self.activation == "relu" else grad_y
        grad_w = np.empty_like(self.params["w"])
        grad_x = np.zeros_like(x)
        for dt in range(k):
            window = x[:, dt:dt + out_len, :]
            grad_w[dt] = np.tensordot(window, grad_z, axes=([0, 1], [0, 1]))
            grad_x[:, dt:dt + out_len, :] += grad_z @ self.params["w"][dt].T
        return grad_x, {"w": grad_w, "b": grad_z.sum(axis=(0, 1))}


class MaxPool1d:
    """Per-channel max over nonoverlapping width-2 windows; ties pick the
    earlier element, a trailing odd element is dropped."""

    width = 2
    params: dict = {}

    def forward(self, x: np.ndarray):
        if x.ndim != 3:
            raise ValueError(f"maxpool expects (n, T, c), got {x.shape}")
        pairs = x.shape[1] // self.width
        if pairs == 0:
            raise ValueError(f"sequence length {x.shape[1]} too short to pool")
        first = x[:, 0:2 * pairs:2, :]
        second = x[:, 1:2 * pairs:2, :]
        first_wins = first >= second
        return np.where(first_wins, first, second), (x.shape, first_wins)

    def backward(self, cache, grad_y: np.ndarray):
        shape, first_wins = cache
        grad_x = np.zeros(shape)
        pairs = first_wins.shape[1]
        grad_x[:, 0:2 * pairs:2, :] = grad_y * first_wins
        grad_x[:, 1:2 * pairs:2, :] = grad_y * ~first_wins
        return grad_x, {}


class Flatten:
    """(n, T, c) -> (n, T*c), row-major."""

    params: dict = {}

    def forward(self, x: np.ndarray):
        if x.ndim != 3:
            raise ValueError(f"flatten expects (n, T, c), got {x.shape}")
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, grad_y: np.ndarray):
        return grad_y.reshape(cache), {}
