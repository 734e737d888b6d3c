"""LSTM cell with analytic backward, plus sequence and bidirectional layers.

Each LSTM keeps its gates in one weight matrix `w` of shape (d+u, 4u) and
one bias `b` of width 4u, for input width d and u units. Rows hold the x
block first, then the h block; column blocks run i|f|o|g. Elementwise over
the batch:

    z = [x | h_prev] w + b          (as x w[:d] + h_prev w[d:] + b)
    i, f, o = sigmoid(z[:, :3u]) in blocks of u columns
    g = tanh(z[:, 3u:])
    c = f * c_prev + i * g
    h = o * tanh(c)

The sigmoid is computed as 0.5 * (1 + tanh(z / 2)), which cannot overflow.
The forget-gate bias starts at 1.0 so early training does not erase state.
"""

from __future__ import annotations

import numpy as np

from ..numerics import Rng
from .layers import glorot


def lstm_params(input_size: int, units: int, rng: Rng) -> dict:
    """Fresh gate weights: glorot blocks, zero bias except the f block = 1.

    Gates draw in the order i, f, o, g, each its x block and then its h block.
    """
    w = np.empty((input_size + units, 4 * units))
    for k in range(4):
        cols = slice(k * units, (k + 1) * units)
        w[:input_size, cols] = glorot(rng, (input_size, units), input_size, units)
        w[input_size:, cols] = glorot(rng, (units, units), units, units)
    b = np.zeros(4 * units)
    b[units:2 * units] = 1.0
    return {"w": w, "b": b}


def lstm_cell_forward(x, h_prev, c_prev, params):
    """One step. Returns (h, c, cache); cache feeds lstm_cell_backward.

    The cache holds the activated gates as one gate-major (4, n, u) array,
    i, f, o, g, so each gate is a contiguous block.
    """
    w, b = params["w"], params["b"]
    units = b.shape[0] // 4
    d = w.shape[0] - units
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"cell expects x of shape (n, {d}), got {x.shape}")
    if h_prev.shape != (x.shape[0], units) or c_prev.shape != h_prev.shape:
        raise ValueError(
            f"state shapes {h_prev.shape}/{c_prev.shape} do not match (n, {units})")
    z = x @ w[:d]
    z += h_prev @ w[d:]
    z += b
    gates = np.ascontiguousarray(z.reshape(-1, 4, units).transpose(1, 0, 2))
    sig = gates[:3]
    sig *= 0.5  # sigmoid(z) = 0.5 * (1 + tanh(z / 2))
    np.tanh(gates, out=gates)
    sig += 1.0
    sig *= 0.5
    i, f, o, g = gates
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = (params, x, h_prev, c_prev, gates, tanh_c)
    return h, c, cache


def lstm_cell_backward(cache, grad_h, grad_c):
    """Gradients of a scalar loss through one step.

    Returns (grads, grad_x, grad_h_prev, grad_c_prev) where grads carries
    "w" and "b".
    """
    params, x, h_prev, c_prev, gates, tanh_c = cache
    if grad_h.shape != tanh_c.shape or grad_c.shape != tanh_c.shape:
        raise ValueError("upstream gradient shapes do not match the cached step")
    i, f, o, g = gates
    dc = grad_c + grad_h * o * (1.0 - tanh_c * tanh_c)
    # loss gradient at each activated gate, then back through its activation
    dz = np.empty_like(gates)
    np.multiply(dc, g, out=dz[0])
    np.multiply(dc, c_prev, out=dz[1])
    np.multiply(grad_h, tanh_c, out=dz[2])
    np.multiply(dc, i, out=dz[3])
    sig = gates[:3]
    dz[:3] *= sig * (1.0 - sig)  # sigmoid' on i|f|o
    dz[3] *= 1.0 - g * g  # tanh' on g
    dz = dz.transpose(1, 0, 2).reshape(x.shape[0], -1)  # (n, 4u), blocks i|f|o|g
    grads = {"w": np.concatenate([x, h_prev], axis=1).T @ dz, "b": dz.sum(axis=0)}
    grad_xh = dz @ params["w"].T
    d = x.shape[1]
    return grads, grad_xh[:, :d], grad_xh[:, d:], dc * f


class LstmLayer:
    """Unrolls the cell over (n, T, input); zero initial state.

    return_sequences=True emits (n, T, units), otherwise the final hidden
    state (n, units).
    """

    def __init__(self, input_size: int, units: int, return_sequences: bool,
                 rng: Rng):
        self.units = units
        self.return_sequences = return_sequences
        self.params = lstm_params(input_size, units, rng)

    def forward(self, x: np.ndarray):
        if x.ndim != 3:
            raise ValueError(f"recurrent layer expects (n, T, c), got {x.shape}")
        n, steps, _ = x.shape
        h = np.zeros((n, self.units))
        c = np.zeros((n, self.units))
        caches = []
        outputs = np.empty((n, steps, self.units))
        for t in range(steps):
            h, c, cache = lstm_cell_forward(x[:, t, :], h, c, self.params)
            caches.append(cache)
            outputs[:, t, :] = h
        y = outputs if self.return_sequences else outputs[:, -1, :]
        return y, (x.shape, caches)

    def backward(self, cache, grad_y: np.ndarray):
        x_shape, caches = cache
        n, steps, _ = x_shape
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grad_x = np.empty(x_shape)
        grad_h = np.zeros((n, self.units))
        grad_c = np.zeros((n, self.units))
        for t in reversed(range(steps)):
            if self.return_sequences:
                grad_h = grad_h + grad_y[:, t, :]
            elif t == steps - 1:
                grad_h = grad_h + grad_y
            step_grads, gx, grad_h, grad_c = lstm_cell_backward(
                caches[t], grad_h, grad_c)
            grad_x[:, t, :] = gx
            for name, g in step_grads.items():
                grads[name] += g
        return grad_x, grads


class Bidirectional:
    """Two independent LSTMs, one over reversed time; outputs concatenate.

    Per-step output is [forward_t, backward_t] (width 2*units) where
    backward_t has consumed x_t..x_T. With return_sequences=False the layer
    emits the final step of that per-step concatenation.
    """

    def __init__(self, input_size: int, units: int, return_sequences: bool,
                 rng: Rng):
        self.units = units
        self.return_sequences = return_sequences
        self.fwd = LstmLayer(input_size, units, True, rng)
        self.bwd = LstmLayer(input_size, units, True, rng)

    @property
    def params(self) -> dict:
        merged = {f"fwd.{k}": v for k, v in self.fwd.params.items()}
        merged.update({f"bwd.{k}": v for k, v in self.bwd.params.items()})
        return merged

    def forward(self, x: np.ndarray):
        y_f, cache_f = self.fwd.forward(x)
        y_b_rev, cache_b = self.bwd.forward(np.ascontiguousarray(x[:, ::-1, :]))
        y = np.concatenate([y_f, y_b_rev[:, ::-1, :]], axis=2)
        if not self.return_sequences:
            y = y[:, -1, :]
        return y, (cache_f, cache_b, x.shape)

    def backward(self, cache, grad_y: np.ndarray):
        cache_f, cache_b, x_shape = cache
        if not self.return_sequences:
            full = np.zeros((x_shape[0], x_shape[1], 2 * self.units))
            full[:, -1, :] = grad_y
            grad_y = full
        grad_f = np.ascontiguousarray(grad_y[:, :, :self.units])
        grad_b = np.ascontiguousarray(grad_y[:, ::-1, self.units:])
        gx_f, grads_f = self.fwd.backward(cache_f, grad_f)
        gx_b, grads_b = self.bwd.backward(cache_b, grad_b)
        grad_x = gx_f + gx_b[:, ::-1, :]
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return grad_x, grads
