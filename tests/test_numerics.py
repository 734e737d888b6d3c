import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycast import numerics
from delaycast.numerics import (
    AdamState, Rng, adam_init, adam_step, clip_global_norm, grad_check, matrix,
)

GOLDEN = Path(__file__).parent / "data" / "rng_golden.txt"


def test_rng_golden_vectors():
    expected = [int(line) for line in GOLDEN.read_text().splitlines()
                if line and not line.startswith("#")]
    r = Rng(42)
    assert [r.next_u64() for _ in range(4)] == expected


def test_rng_determinism_and_seed_sensitivity():
    a = Rng(7)
    b = Rng(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = Rng(8)
    assert Rng(7).next_u64() != c.next_u64()


def test_rng_uniform_range():
    r = Rng(3)
    us = r.uniforms(1000)
    assert np.all(us >= 0.0) and np.all(us < 1.0)
    # crude coverage check: both halves populated
    assert (us < 0.5).sum() > 300 and (us >= 0.5).sum() > 300


def test_rng_spawn_independent_of_draw_position():
    parent = Rng(99)
    early = parent.spawn(4)
    for _ in range(17):
        parent.next_u64()
    late = parent.spawn(4)
    assert early.next_u64() == late.next_u64()
    assert parent.spawn(1).next_u64() != parent.spawn(2).next_u64()


def test_rng_integer_bounds():
    r = Rng(5)
    draws = r.integers(2, 9, 500)
    assert draws.min() >= 2 and draws.max() <= 8
    with pytest.raises(ValueError):
        r.integer(3, 3)


def _scalar_uniform(r):
    return (r.next_u64() >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_rng_block_draw_equals_scalar_draws(seed):
    block = Rng(seed).next_u64s(100_000)
    assert block.dtype == np.uint64
    r = Rng(seed)
    assert block.tolist() == [r.next_u64() for _ in range(100_000)]


def test_rng_block_and_scalar_draws_continue_one_stream():
    mixed, scalar = Rng(77), Rng(77)
    drawn = mixed.next_u64s(37).tolist() + [mixed.next_u64()]
    drawn += mixed.next_u64s(0).tolist() + mixed.next_u64s(5).tolist()
    assert drawn == [scalar.next_u64() for _ in range(43)]


@pytest.mark.parametrize("low,high", [(4, 5), (-7, -6), (0, 10**9), (-(10**9), 0)])
def test_rng_array_draws_equal_scalar_draws(low, high):
    a, b = Rng(31), Rng(31)
    assert a.integers(low, high, 2000).tolist() == [
        low + int(_scalar_uniform(b) * (high - low)) for _ in range(2000)]
    assert a.uniforms(2000).tolist() == [_scalar_uniform(b) for _ in range(2000)]
    assert a.integer(low, high) == low + int(_scalar_uniform(b) * (high - low))


def test_rng_empty_integer_range_raises():
    with pytest.raises(ValueError, match="empty integer range"):
        Rng(5).integers(3, 3, 10)
    with pytest.raises(ValueError, match="empty integer range"):
        Rng(5).integers(9, 2, 1)


# --- matrix validation ------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError, match="ndim"):
        matrix(np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        matrix(np.array([[np.inf, 1.0]]))
    m = matrix([[1, 2], [3, 4]], rows=2, cols=2)
    assert m.dtype == np.float64 and m.flags["C_CONTIGUOUS"]


# --- Adam -------------------------------------------------------------------


def test_adam_single_step_hand_value():
    # theta = 0, g = 1 repeatedly: first step is -alpha * 1 / (1 + eps)
    p = {"w": np.zeros(1)}
    s = adam_init(p, alpha=1e-3)
    adam_step(p, {"w": np.ones(1)}, s)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert p["w"][0] == pytest.approx(expected, rel=1e-12)
    assert s.t == 1


def test_adam_two_steps_match_scalar_recurrence():
    alpha, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 0.5, 0.0, 0.0
    grads = [0.3, -0.7]
    p = {"w": np.array([0.5])}
    s = adam_init(p, alpha=alpha)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        theta -= alpha * mh / (math.sqrt(vh) + eps)
        adam_step(p, {"w": np.array([g])}, s)
    assert p["w"][0] == pytest.approx(theta, rel=1e-12)


def test_adam_zero_gradient_leaves_params():
    p = {"w": np.array([1.0, -2.0])}
    s = adam_init(p)
    adam_step(p, {"w": np.zeros(2)}, s)
    assert np.array_equal(p["w"], np.array([1.0, -2.0]))
    assert s.t == 1


def test_adam_descends_quadratic():
    # minimize (w - 3)^2; gradient 2(w - 3)
    p = {"w": np.array([0.0])}
    s = adam_init(p, alpha=0.1)
    for _ in range(500):
        g = {"w": 2 * (p["w"] - 3.0)}
        adam_step(p, g, s)
    assert abs(p["w"][0] - 3.0) < 1e-3


# --- clipping ---------------------------------------------------------------


def test_clip_noop_below_threshold():
    g = {"a": np.array([0.3, 0.4])}
    clipped, norm = clip_global_norm(g, 1.0)
    assert norm == pytest.approx(0.5)
    assert np.array_equal(clipped["a"], np.array([0.3, 0.4]))


def test_clip_scales_to_max_norm():
    g = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    _, norm = clip_global_norm(g, 1.0)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(sum(float(np.sum(x * x)) for x in g.values()))
    assert total <= 1.0 + 1e-12
    # direction preserved
    assert g["a"][0] / g["b"][0, 0] == pytest.approx(3.0 / 4.0)


@pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan"), float("-inf")])
def test_clip_rejects_a_bound_that_is_not_positive(max_norm):
    with pytest.raises(ValueError, match="max_norm"):
        clip_global_norm({"a": np.array([3.0, 4.0])}, max_norm)


def test_clip_infinite_bound_never_scales():
    g = {"a": np.array([3.0, 4.0])}
    _, norm = clip_global_norm(g, float("inf"))
    assert norm == 5.0
    assert np.array_equal(g["a"], [3.0, 4.0])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(0.1, 10))
@settings(max_examples=50, deadline=None)
def test_clip_property(values, max_norm):
    g = {"a": np.array(values)}
    _, _ = clip_global_norm(g, max_norm)
    assert math.sqrt(float(np.sum(g["a"] ** 2))) <= max_norm + 1e-9


# --- grad check -------------------------------------------------------------


def test_grad_check_quadratic_exact():
    w = np.array([1.0, -2.0, 0.5])

    def f(params):
        return float(np.sum(params["w"] ** 2))

    err = grad_check(f, {"w": w}, {"w": 2 * w.copy()})
    assert err < 1e-9


def test_grad_check_flags_wrong_gradient():
    w = np.array([1.0, -2.0])

    def f(params):
        return float(np.sum(params["w"] ** 2))

    err = grad_check(f, {"w": w}, {"w": 3 * w.copy()})
    assert err > 0.3


def test_grad_check_nonfinite_objective_raises():
    w = np.array([0.0])

    def f(params):
        return float("nan")

    with pytest.raises(ValueError, match="non-finite"):
        grad_check(f, {"w": w}, {"w": np.zeros(1)})
