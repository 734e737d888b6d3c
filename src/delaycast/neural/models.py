"""One `Network` class for the four neural kinds, their builders, and windows.

A `Network` runs one or more paths of named layers over the same input and
joins them along the feature axis; a tail then runs on the result. mlp, lstm
and bilstm are a single path; hybrid is a convolutional and a recurrent path
under a dense head. Layer parameters are views of one float64 `vector`, and
`params` is a dict of those views ("layer.param" keys, in vector and
model-file order). A network has a pure `forward` and a
`forward_cached`/`backward` pair for training; `backward` files gradients
into views of `grad_vector`. `spec` is a plain dict that `build_from_spec`
can turn back into an identically shaped (freshly seeded) model, which is
how checkpoints and model files rehydrate.
"""

from __future__ import annotations

import numpy as np

from ..numerics import Rng
from .layers import Conv1d, Dense, Flatten, MaxPool1d
from .lstm import Bidirectional, LstmLayer


def _forward_layers(layers, x):
    """Run (name, layer) pairs in order. Returns (y, per-layer caches)."""
    caches = []
    for _, layer in layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def _param_owners(name, layer):
    """(prefix, layer) for each layer that holds a params dict itself."""
    if isinstance(layer, Bidirectional):
        return [(f"{name}.fwd", layer.fwd), (f"{name}.bwd", layer.bwd)]
    return [(name, layer)]


class Network:
    """Layer paths over one input, joined along the feature axis, then a tail.

    Every (name, layer) list in `paths` reads the input. The paths' outputs
    are concatenated along axis 1 (a single path's output passes through
    unchanged) and `tail` runs on the result. Parameters sit in path order,
    then tail order. The paths' input gradients add.
    """

    def __init__(self, spec: dict, takes_sequences: bool, paths: list,
                 tail=()):
        self.kind = spec["kind"]
        self.spec = spec
        self.takes_sequences = takes_sequences
        self.paths = paths
        self.tail = tail
        layers = [*(pair for path in paths for pair in path), *tail]
        slots = [(f"{prefix}.{key}", leaf.params, key) for name, layer in layers
                 for prefix, leaf in _param_owners(name, layer) for key in leaf.params]
        self.vector = np.concatenate([held[key].ravel() for _, held, key in slots])
        self.grad_vector = np.zeros_like(self.vector)
        self.params, self._grad_views, start = {}, {}, 0
        for name, held, key in slots:
            shape, stop = held[key].shape, start + held[key].size
            held[key] = self.params[name] = self.vector[start:stop].reshape(shape)
            self._grad_views[name] = self.grad_vector[start:stop].reshape(shape)
            start = stop

    def _backward_layers(self, layers, caches, grad_y, grads: dict):
        """Walk the layers in reverse, filing gradients under "name.param" in
        grads as views of grad_vector. The clip sums them in this filing order.

        Returns the gradient at the input of the first layer.
        """
        for (name, layer), cache in zip(reversed(layers), reversed(caches)):
            grad_y, layer_grads = layer.backward(cache, grad_y)
            for key, value in layer_grads.items():
                full = f"{name}.{key}"
                grads[full] = self._grad_views[full]
                grads[full][...] = value
        return grad_y

    def forward(self, x) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x):
        x = np.asarray(x, dtype=np.float64)
        want = 3 if self.takes_sequences else 2
        if x.ndim != want:
            raise ValueError(
                f"{self.kind} model expects {want}-D input, got shape {x.shape}")
        outs, path_caches = zip(*(_forward_layers(path, x) for path in self.paths))
        joined = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
        y, tail_caches = _forward_layers(self.tail, joined)
        return y, (path_caches, tail_caches, [out.shape[1] for out in outs])

    def backward(self, caches, grad_y):
        """Files the tail's gradients first, then each path's from its last
        layer back. Returns (grads, gradient at the input)."""
        path_caches, tail_caches, widths = caches
        grads = {}
        grad_joined = self._backward_layers(self.tail, tail_caches, grad_y, grads)
        grad_x, start = None, 0
        for path, path_cache, width in zip(self.paths, path_caches, widths):
            gx = self._backward_layers(path, path_cache,
                                       grad_joined[:, start:start + width], grads)
            grad_x = gx if grad_x is None else grad_x + gx
            start += width
        return grads, grad_x

    def load_params(self, tensors: dict) -> None:
        params = self.params
        if set(tensors) != set(params):
            missing = sorted(set(params) - set(tensors))
            extra = sorted(set(tensors) - set(params))
            raise ValueError(f"parameter names do not match model: "
                             f"missing={missing}, unexpected={extra}")
        for name, value in tensors.items():
            if params[name].shape != value.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{params[name].shape} vs {value.shape}")
            params[name][...] = value


# --- builders ----------------------------------------------------------------


def _check_output(output: int) -> None:
    if output not in (1, 5):
        raise ValueError(f"output width must be 1 or 5, got {output}")


def mlp_build(input_size: int = 11, hidden=(64, 32), output: int = 5,
              seed: int = 0) -> Network:
    _check_output(output)
    rng = Rng(seed)
    layers = []
    width = input_size
    for idx, units in enumerate(hidden, start=1):
        layers.append((f"dense{idx}", Dense(width, units, "relu", rng)))
        width = units
    layers.append(("out", Dense(width, output, "identity", rng)))
    spec = {"kind": "mlp", "input": input_size, "hidden": list(hidden),
            "output": output, "seed": seed}
    return Network(spec, False, [layers])


def lstm_model_build(input_size: int = 11, units: int = 11, dense: int = 64,
                     output: int = 5, seed: int = 0) -> Network:
    """Stacked recurrent net: per-step first layer, final-state second."""
    _check_output(output)
    rng = Rng(seed)
    layers = [
        ("lstm1", LstmLayer(input_size, units, True, rng)),
        ("lstm2", LstmLayer(units, units, False, rng)),
        ("dense", Dense(units, dense, "relu", rng)),
        ("out", Dense(dense, output, "identity", rng)),
    ]
    spec = {"kind": "lstm", "input": input_size, "units": units,
            "dense": dense, "output": output, "seed": seed}
    return Network(spec, True, [layers])


def bilstm_model_build(input_size: int = 11, units: int = 11, dense: int = 64,
                       output: int = 5, seed: int = 0) -> Network:
    """As lstm_model_build with each recurrent layer run in both directions."""
    _check_output(output)
    rng = Rng(seed)
    layers = [
        ("bi1", Bidirectional(input_size, units, True, rng)),
        ("bi2", Bidirectional(2 * units, units, False, rng)),
        ("dense", Dense(2 * units, dense, "relu", rng)),
        ("out", Dense(dense, output, "identity", rng)),
    ]
    spec = {"kind": "bilstm", "input": input_size, "units": units,
            "dense": dense, "output": output, "seed": seed}
    return Network(spec, True, [layers])


def hybrid_model_build(input_size: int = 11, output: int = 5, window: int = 4,
                       units: int = 11, filters: int = 64, kernel: int = 3,
                       dense: int = 64, seed: int = 0) -> Network:
    """Two paths over the same window under a dense head on their 2 * dense
    concatenation. CNN path: conv -> pool -> flatten -> dense. Recurrent
    path: bidirectional then unidirectional LSTM -> dense. The flatten width
    pins the model to one window length."""
    _check_output(output)
    conv_len = window - kernel + 1
    pooled = conv_len // MaxPool1d.width
    if conv_len < 1 or pooled < 1:
        raise ValueError(
            f"window {window} too short: kernel {kernel} and pool "
            f"{MaxPool1d.width} need window >= {kernel + MaxPool1d.width - 1}")
    rng = Rng(seed)
    cnn_layers = [
        ("conv", Conv1d(input_size, filters, kernel, "relu", rng)),
        ("pool", MaxPool1d()),
        ("flat", Flatten()),
        ("cnn_dense", Dense(pooled * filters, dense, "relu", rng)),
    ]
    lstm_layers = [
        ("bi", Bidirectional(input_size, units, True, rng)),
        ("lstm2", LstmLayer(2 * units, units, False, rng)),
        ("lstm_dense", Dense(units, dense, "relu", rng)),
    ]
    head = Dense(2 * dense, output, "identity", rng)
    spec = {"kind": "hybrid", "input": input_size, "output": output,
            "window": window, "units": units, "filters": filters,
            "kernel": kernel, "dense": dense, "seed": seed}
    return Network(spec, True, [cnn_layers, lstm_layers], [("out", head)])


_BUILDERS = {
    "mlp": lambda s: mlp_build(s["input"], tuple(s["hidden"]), s["output"], s["seed"]),
    "lstm": lambda s: lstm_model_build(s["input"], s["units"], s["dense"],
                                       s["output"], s["seed"]),
    "bilstm": lambda s: bilstm_model_build(s["input"], s["units"], s["dense"],
                                           s["output"], s["seed"]),
    "hybrid": lambda s: hybrid_model_build(s["input"], s["output"], s["window"],
                                           s["units"], s["filters"], s["kernel"],
                                           s["dense"], s["seed"]),
}


def build_from_spec(spec: dict):
    kind = spec.get("kind")
    if kind not in _BUILDERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _BUILDERS[kind](spec)


# --- windowing ---------------------------------------------------------------


def sliding_windows(x: np.ndarray, window: int) -> np.ndarray:
    """(n - window + 1, window, d) C-contiguous windows of consecutive rows.

    Window i holds rows i .. i + window - 1. Built with one slice copy per
    offset, not per window.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if x.shape[0] < window:
        raise ValueError(f"{x.shape[0]} rows cannot fill a window of {window}")
    count = x.shape[0] - window + 1
    return np.stack([x[k:k + count] for k in range(window)], axis=1)

