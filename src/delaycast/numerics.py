"""Shared numeric core: seeded RNG, matrix validation, Adam, gradient checking.

Matrices throughout the package are plain 2-D float64 numpy arrays in C
(row-major) order. `matrix` adds the shape and finiteness contract the rest of
the code relies on; arithmetic calls numpy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic splitmix64 generator.

    The stream is a pure function of the 64-bit seed: no platform, numpy or
    hash-randomization dependence. ``spawn(key)`` derives an independent
    substream without consuming draws from the parent, so substream layouts
    are stable regardless of call order.

    State advance: ``state += 0x9E3779B97F4A7C15`` (mod 2^64), output =
    murmur-style finalizer of the new state (shift-xor-multiply twice).
    ``next_u64s(n)`` is the array primitive: output k (1-based) mixes
    ``state + k*gamma`` in wrapping uint64 arithmetic, the same stream that n
    ``next_u64()`` calls give. Every array draw is built on it; the scalar
    ``next_u64`` is the reference it is tested against.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as uint64; advances the state by n."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def spawn(self, key: int) -> "Rng":
        """Substream keyed by a small integer; independent of draw position."""
        return Rng(_mix64((self.seed ^ (((key & _MASK64) + 1) * _GAMMA)) & _MASK64))

    def uniforms(self, n: int) -> np.ndarray:
        """n draws from [0, 1): the top 53 bits of each output."""
        return (self.next_u64s(n) >> np.uint64(11)) * 2.0**-53

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape))
        u = self.uniforms(n).reshape(shape)
        return low + (high - low) * u

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n draws from [low, high): low + trunc(u * width). Width must be far below 2^53."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        return low + (self.uniforms(n) * (high - low)).astype(np.int64)

    def integer(self, low: int, high: int) -> int:
        """One draw from [low, high), as `integers` makes it."""
        return int(self.integers(low, high, 1)[0])


# --- matrix validation ------------------------------------------------------


def matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate/coerce to a finite 2-D float64 array (row-major)."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


# --- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict; the
    trainer passes one key, a network's vector that every parameter views."""

    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict, alpha: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(alpha=alpha, beta1=beta1, beta2=beta2, eps=eps)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, in place. Returns (params, state)."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step shape mismatch for {name}: {p.shape} vs {g.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.alpha * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale all gradients by a shared factor so the global L2 norm <= max_norm.

    Returns (grads, pre_clip_norm). No-op when the norm is already within
    bounds. Mutates in place.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads, norm


# --- gradient checking ------------------------------------------------------


def grad_check(f, params: dict, analytic: dict, step: float = 1e-5) -> float:
    """Central-difference check of analytic gradients.

    ``f(params)`` must evaluate the scalar objective from the (possibly
    perturbed) parameter arrays. Returns the worst relative error
    |a - n| / max(|a|, |n|, 1e-8) over every coordinate.
    """
    worst = 0.0
    for name, p in params.items():
        a = analytic[name]
        if a.shape != p.shape:
            raise ValueError(f"grad_check shape mismatch for {name}: {p.shape} vs {a.shape}")
        flat = p.ravel()
        aflat = a.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f(params))
            flat[i] = orig - step
            fm = float(f(params))
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise ValueError(f"objective non-finite while perturbing {name}[{i}]")
            num = (fp - fm) / (2.0 * step)
            rel = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst
