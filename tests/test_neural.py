import hashlib

import numpy as np
import pytest

from delaycast.numerics import Rng, grad_check
from delaycast.neural import (
    Bidirectional,
    Conv1d,
    Dense,
    Flatten,
    LstmLayer,
    MaxPool1d,
    TrainConfig,
    TrainingError,
    bilstm_model_build,
    build_from_spec,
    hybrid_model_build,
    load_checkpoint,
    lstm_cell_backward,
    lstm_cell_forward,
    lstm_model_build,
    lstm_params,
    mlp_build,
    sliding_windows,
    train,
)
from delaycast.neural.layers import glorot


def layer_grad_check(layer, x, target, seed_note=""):
    """Squared-error objective through one layer; returns worst rel error."""

    def objective(_params):
        y, _ = layer.forward(x)
        return float(((y - target) ** 2).sum())

    y, cache = layer.forward(x)
    _, grads = layer.backward(cache, 2.0 * (y - target))
    return grad_check(objective, layer.params, grads)


def model_grad_check(model, x, target):
    def objective(_params):
        return float(((model.forward(x) - target) ** 2).sum())

    pred, caches = model.forward_cached(x)
    grads, _ = model.backward(caches, 2.0 * (pred - target))
    return grad_check(objective, model.params, grads)


class TestDense:
    def test_forward_hand_value(self):
        layer = Dense(2, 2, "relu", Rng(0))
        layer.params["w"][...] = [[1.0, -1.0], [2.0, 0.5]]
        layer.params["b"][...] = [0.5, -0.25]
        y, _ = layer.forward(np.array([[1.0, 1.0]]))
        # z = [3.5, -0.75] -> relu
        assert np.allclose(y, [[3.5, 0.0]])

    def test_gradients(self):
        rng = Rng(1)
        layer = Dense(4, 3, "relu", rng)
        x = rng.uniform_array((5, 4), -1.0, 1.0)
        t = rng.uniform_array((5, 3), -1.0, 1.0)
        assert layer_grad_check(layer, x, t) < 1e-6

    def test_rejects_bad_input_shape(self):
        layer = Dense(4, 3, "identity", Rng(0))
        with pytest.raises(ValueError, match="expects"):
            layer.forward(np.ones((2, 5)))


class TestConvPoolFlatten:
    def test_ones_kernel_hand_convolution(self):
        layer = Conv1d(1, 1, 2, "identity", Rng(0))
        layer.params["w"][...] = 1.0
        layer.params["b"][...] = 0.0
        y, _ = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert np.allclose(y, [[[3.0], [5.0]]])

    def test_rejects_short_sequence(self):
        layer = Conv1d(1, 2, 3, "relu", Rng(0))
        with pytest.raises(ValueError, match="shorter than kernel"):
            layer.forward(np.ones((1, 2, 1)))

    def test_maxpool_hand_values_and_tie_rule(self):
        pool = MaxPool1d()
        y, cache = pool.forward(np.array([[[1.0], [5.0], [2.0], [4.0]]]))
        assert np.allclose(y, [[[5.0], [4.0]]])
        # tie: gradient must flow to the first element of the pair
        y, cache = pool.forward(np.array([[[2.0], [2.0]]]))
        grad_x, _ = pool.backward(cache, np.array([[[1.0]]]))
        assert np.allclose(grad_x, [[[1.0], [0.0]]])

    def test_maxpool_drops_odd_remainder(self):
        pool = MaxPool1d()
        y, cache = pool.forward(np.array([[[1.0], [3.0], [9.0]]]))
        assert np.allclose(y, [[[3.0]]])
        grad_x, _ = pool.backward(cache, np.array([[[2.0]]]))
        assert np.allclose(grad_x, [[[0.0], [2.0], [0.0]]])

    def test_flatten_round_trip(self):
        flat = Flatten()
        x = np.arange(24.0).reshape(2, 3, 4)
        y, cache = flat.forward(x)
        assert y.shape == (2, 12)
        grad_x, _ = flat.backward(cache, y)
        assert np.array_equal(grad_x, x)

    def test_conv_pool_dense_gradients(self):
        rng = Rng(3)
        conv = Conv1d(2, 3, 3, "relu", rng)
        pool = MaxPool1d()
        flat = Flatten()
        dense = Dense(6, 2, "identity", rng)
        x = rng.uniform_array((3, 7, 2), -1.0, 1.0)
        t = rng.uniform_array((3, 2), -1.0, 1.0)
        layers = [conv, pool, flat, dense]
        params = {}
        for idx, layer in enumerate(layers):
            params.update({f"{idx}.{k}": v for k, v in layer.params.items()})

        def objective(_p):
            h = x
            for layer in layers:
                h, _ = layer.forward(h)
            return float(((h - t) ** 2).sum())

        h = x
        caches = []
        for layer in layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        grad = 2.0 * (h - t)
        grads = {}
        for idx, layer in reversed(list(enumerate(layers))):
            grad, layer_grads = layer.backward(caches[idx], grad)
            grads.update({f"{idx}.{k}": v for k, v in layer_grads.items()})
        assert grad_check(objective, params, grads) < 1e-4


class TestLstmCell:
    def test_zero_params_zero_state(self):
        params = {k: np.zeros_like(v)
                  for k, v in lstm_params(3, 2, Rng(0)).items()}
        x = np.zeros((1, 3))
        h, c, cache = lstm_cell_forward(x, np.zeros((1, 2)), np.zeros((1, 2)),
                                        params)
        i, f, o, g = np.split(cache[4], 4, axis=1)
        assert np.allclose(h, 0.0) and np.allclose(c, 0.0)
        assert np.allclose(i, 0.5) and np.allclose(f, 0.5)
        assert np.allclose(o, 0.5) and np.allclose(g, 0.0)

    def test_zero_params_carried_cell_state(self):
        params = {k: np.zeros_like(v)
                  for k, v in lstm_params(1, 1, Rng(0)).items()}
        h, c, _ = lstm_cell_forward(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.full((1, 1), 2.0), params)
        assert c[0, 0] == pytest.approx(1.0)
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0), abs=1e-12)

    def test_matches_straight_line_reimplementation(self):
        rng = Rng(5)
        params = lstm_params(4, 3, rng)
        x = rng.uniform_array((2, 4), -1.0, 1.0)
        h_prev = rng.uniform_array((2, 3), -1.0, 1.0)
        c_prev = rng.uniform_array((2, 3), -1.0, 1.0)
        h, c, _ = lstm_cell_forward(x, h_prev, c_prev, params)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        def pre(k):  # gate k's column block: x rows, then h rows, then bias
            cols = slice(3 * k, 3 * k + 3)
            return (x @ params["w"][:4, cols] + h_prev @ params["w"][4:, cols]
                    + params["b"][cols])

        i = sig(pre(0))
        f = sig(pre(1))
        o = sig(pre(2))
        g = np.tanh(pre(3))
        c_ref = f * c_prev + i * g
        h_ref = o * np.tanh(c_ref)
        assert np.allclose(c, c_ref, atol=1e-12)
        assert np.allclose(h, h_ref, atol=1e-12)

    def test_params_blocks_are_per_gate_glorot_draws(self):
        d, u = 3, 2
        params = lstm_params(d, u, Rng(4))
        assert set(params) == {"w", "b"} and params["w"].shape == (d + u, 4 * u)
        rng = Rng(4)
        for k in range(4):  # gates i, f, o, g: x block, then h block
            cols = slice(k * u, (k + 1) * u)
            assert np.array_equal(params["w"][:d, cols], glorot(rng, (d, u), d, u))
            assert np.array_equal(params["w"][d:, cols], glorot(rng, (u, u), u, u))
        assert np.array_equal(params["b"], [0, 0, 1, 1, 0, 0, 0, 0])

    def test_gradients_through_four_steps(self):
        rng = Rng(6)
        layer = LstmLayer(2, 3, True, rng)
        x = rng.uniform_array((2, 4, 2), -1.0, 1.0)
        t = rng.uniform_array((2, 4, 3), -1.0, 1.0)
        assert layer_grad_check(layer, x, t) < 1e-4

    def test_zero_upstream_gradient_gives_zero_gradients(self):
        rng = Rng(7)
        params = lstm_params(2, 2, rng)
        x = rng.uniform_array((3, 2))
        h, c, cache = lstm_cell_forward(x, np.zeros((3, 2)), np.zeros((3, 2)),
                                        params)
        grads, gx, gh, gc = lstm_cell_backward(cache, np.zeros_like(h),
                                               np.zeros_like(c))
        assert all(np.allclose(g, 0.0) for g in grads.values())
        assert np.allclose(gx, 0.0) and np.allclose(gh, 0.0) and np.allclose(gc, 0.0)

    def test_constant_error_carousel(self):
        # saturate f toward 1 and i toward 0: cell state flows untouched,
        # so dC_T/dC_0 stays ~identity across many steps
        rng = Rng(8)
        params = lstm_params(2, 2, rng)
        params["b"][2:4] = 20.0   # f block
        params["b"][0:2] = -20.0  # i block
        x = rng.uniform_array((1, 2), -0.5, 0.5)
        c = np.full((1, 2), 0.3)
        h = np.zeros((1, 2))
        caches = []
        for _ in range(6):
            h, c, cache = lstm_cell_forward(x, h, c, params)
            caches.append(cache)
        grad_c = np.ones((1, 2))
        grad_h = np.zeros((1, 2))
        for cache in reversed(caches):
            _, _, grad_h, grad_c = lstm_cell_backward(cache, grad_h, grad_c)
            grad_h = np.zeros_like(grad_h)  # isolate the cell-state path
        assert np.allclose(grad_c, 1.0, atol=1e-3)

    def test_shape_validation(self):
        params = lstm_params(3, 2, Rng(0))
        with pytest.raises(ValueError, match="expects x"):
            lstm_cell_forward(np.ones((1, 4)), np.zeros((1, 2)),
                              np.zeros((1, 2)), params)
        with pytest.raises(ValueError, match="state shapes"):
            lstm_cell_forward(np.ones((1, 3)), np.zeros((1, 3)),
                              np.zeros((1, 2)), params)


class TestBidirectional:
    def test_per_step_width_doubles(self):
        layer = Bidirectional(11, 11, True, Rng(0))
        y, _ = layer.forward(np.zeros((2, 5, 11)))
        assert y.shape == (2, 5, 22)

    def test_palindrome_with_tied_weights_mirrors_halves(self):
        rng = Rng(9)
        layer = Bidirectional(3, 4, True, rng)
        for name, value in layer.fwd.params.items():
            layer.bwd.params[name][...] = value
        steps = rng.uniform_array((2, 3, 3), -1.0, 1.0)
        x = np.concatenate([steps, steps[:, ::-1, :]], axis=1)  # palindrome, T=6
        y, _ = layer.forward(x)
        units = 4
        T = x.shape[1]
        for t in range(T):
            assert np.allclose(y[:, t, units:], y[:, T - 1 - t, :units],
                               atol=1e-12)

    def test_gradients(self):
        rng = Rng(10)
        layer = Bidirectional(2, 2, True, rng)
        x = rng.uniform_array((2, 3, 2), -1.0, 1.0)
        t = rng.uniform_array((2, 3, 4), -1.0, 1.0)
        assert layer_grad_check(layer, x, t) < 1e-4

    def test_final_step_gradients(self):
        rng = Rng(11)
        layer = Bidirectional(2, 3, False, rng)
        x = rng.uniform_array((2, 4, 2), -1.0, 1.0)
        t = rng.uniform_array((2, 6), -1.0, 1.0)
        assert layer_grad_check(layer, x, t) < 1e-4


class TestModels:
    def test_mlp_parameter_count(self):
        model = mlp_build(input_size=11, hidden=(64, 32), output=5, seed=0)
        assert sum(p.size for p in model.params.values()) == 3013

    def test_mlp_output_shape_and_zero_weight_bias(self):
        model = mlp_build(seed=1)
        x = np.ones((7, 11))
        assert model.forward(x).shape == (7, 5)
        for p in model.params.values():
            p[...] = 0.0
        model.params["out.b"][...] = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert np.allclose(model.forward(x),
                           np.tile([1.0, 2.0, 3.0, 4.0, 5.0], (7, 1)))

    def test_output_width_restricted(self):
        with pytest.raises(ValueError, match="output width"):
            mlp_build(output=3)

    def test_lstm_model_shapes_and_determinism(self):
        model = lstm_model_build(output=5, seed=3)
        x = Rng(1).uniform_array((4, 3, 11), -1.0, 1.0)
        first = model.forward(x)
        assert first.shape == (4, 5)
        assert np.array_equal(first, model.forward(x))
        rebuilt = lstm_model_build(output=5, seed=3)
        assert np.array_equal(first, rebuilt.forward(x))

    def test_lstm_accepts_single_step_sequences(self):
        model = lstm_model_build(output=1, seed=0)
        assert model.forward(np.zeros((3, 1, 11))).shape == (3, 1)

    def test_lstm_full_model_gradients(self):
        rng = Rng(12)
        model = lstm_model_build(input_size=3, units=2, dense=4, output=1, seed=5)
        x = rng.uniform_array((2, 3, 3), -1.0, 1.0)
        t = rng.uniform_array((2, 1), -1.0, 1.0)
        assert model_grad_check(model, x, t) < 1e-4

    def test_bilstm_full_model_gradients(self):
        rng = Rng(13)
        model = bilstm_model_build(input_size=3, units=2, dense=4, output=1, seed=6)
        x = rng.uniform_array((2, 3, 3), -1.0, 1.0)
        t = rng.uniform_array((2, 1), -1.0, 1.0)
        assert model_grad_check(model, x, t) < 1e-4

    def test_hybrid_concat_width_and_shapes(self):
        model = hybrid_model_build(window=4, output=5, seed=0)
        assert model.params["out.w"].shape == (128, 5)
        x = Rng(2).uniform_array((3, 4, 11), -1.0, 1.0)
        assert model.forward(x).shape == (3, 5)

    def test_hybrid_downsized_gradients(self):
        # small config so the full-model check stays cheap: T=8, u=4
        rng = Rng(14)
        model = hybrid_model_build(input_size=3, output=1, window=8, units=4,
                                   filters=5, kernel=3, dense=6, seed=7)
        x = rng.uniform_array((2, 8, 3), -1.0, 1.0)
        t = rng.uniform_array((2, 1), -1.0, 1.0)
        assert model_grad_check(model, x, t) < 1e-4

    def test_hybrid_rejects_too_short_window(self):
        with pytest.raises(ValueError, match="window"):
            hybrid_model_build(window=3)

    def test_build_from_spec_round_trip(self):
        for build in (lambda: mlp_build(seed=4),
                      lambda: lstm_model_build(seed=4),
                      lambda: bilstm_model_build(seed=4),
                      lambda: hybrid_model_build(window=4, seed=4)):
            model = build()
            clone = build_from_spec(model.spec)
            assert set(clone.params) == set(model.params)
            for name in model.params:
                assert np.array_equal(clone.params[name], model.params[name])

    def test_build_from_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            build_from_spec({"kind": "transformer"})


class TestSlidingWindows:
    def test_window_one_is_per_record(self):
        x = np.arange(10.0).reshape(5, 2)
        windows = sliding_windows(x, 1)
        assert windows.shape == (5, 1, 2)
        assert np.array_equal(windows[:, 0, :], x)

    def test_window_three_holds_consecutive_rows(self):
        x = np.arange(10.0).reshape(5, 2)
        windows = sliding_windows(x, 3)
        assert windows.shape == (3, 3, 2) and windows.flags.c_contiguous
        assert np.array_equal(windows[0], x[0:3])
        assert np.array_equal(windows[2], x[2:5])

    def test_windows_built_per_split_never_straddle(self):
        x = np.arange(20.0).reshape(10, 2)
        train_part = sliding_windows(x[:7], 3)
        test_part = sliding_windows(x[7:], 3)
        # last train window ends at row 6, first test window starts at row 7
        assert np.array_equal(train_part[-1], x[4:7])
        assert np.array_equal(test_part[0], x[7:10])

    def test_errors(self):
        x = np.ones((3, 2))
        with pytest.raises(ValueError, match="window"):
            sliding_windows(x, 0)
        with pytest.raises(ValueError, match="cannot fill"):
            sliding_windows(x, 4)


def _toy_problem(n=60, seed=0):
    rng = Rng(seed)
    x = rng.uniform_array((n, 11), -1.0, 1.0)
    w = rng.uniform_array((11, 2), -1.0, 1.0)
    y = np.maximum(x @ w, 0.0) + 0.3 * x[:, :2]
    return x, y


class TestTrainer:
    def test_learns_past_the_constant_baseline(self):
        x, y = _toy_problem()
        model = mlp_build(output=5, seed=1)
        y5 = np.hstack([y, y, y[:, :1]])
        config = TrainConfig(epochs=30, batch_size=8, validation_fraction=0.2,
                             patience=30, learning_rate=0.01)
        history = train(model, x, y5, config)
        n_val = int(0.2 * len(x))
        baseline = float(((y5[-n_val:] - y5[:-n_val].mean(axis=0)) ** 2).mean())
        assert history[-1].val_mse < baseline

    def test_plateau_stops_after_one_plus_patience_epochs(self):
        x, y = _toy_problem(n=24, seed=3)
        model = mlp_build(output=5, seed=2)
        y5 = np.hstack([y, y, y[:, :1]])
        config = TrainConfig(epochs=50, batch_size=8, patience=2,
                             learning_rate=0.0)  # frozen model: instant plateau
        history = train(model, x, y5, config)
        assert len(history) == 3

    def test_same_seed_bit_identical_history(self):
        x, y = _toy_problem(n=40, seed=4)
        y5 = np.hstack([y, y, y[:, :1]])
        config = TrainConfig(epochs=6, batch_size=8, learning_rate=0.005)
        h1 = train(mlp_build(output=5, seed=9), x, y5, config)
        h2 = train(mlp_build(output=5, seed=9), x, y5, config)
        assert h1 == h2

    def test_checkpoint_round_trip_is_bit_identical(self, tmp_path):
        x, y = _toy_problem(n=40, seed=5)
        y5 = np.hstack([y, y, y[:, :1]])
        path = tmp_path / "best.ckpt"
        model = mlp_build(output=5, seed=10)
        config = TrainConfig(epochs=8, batch_size=8, learning_rate=0.005,
                             checkpoint_path=str(path))
        history = train(model, x, y5, config)
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.forward(x), model.forward(x))
        assert np.array_equal(loaded.vector, model.vector)
        assert all(np.shares_memory(p, loaded.vector) for p in loaded.params.values())
        assert meta["seed"] == 10
        assert meta["epoch"] == min(range(len(history)),
                                    key=lambda i: history[i].val_mse) + 1

    def test_returned_model_matches_best_epoch(self):
        x, y = _toy_problem(n=50, seed=6)
        y5 = np.hstack([y, y, y[:, :1]])
        model = mlp_build(output=5, seed=11)
        config = TrainConfig(epochs=12, batch_size=4, learning_rate=0.02)
        history = train(model, x, y5, config)
        n_val = int(0.2 * len(x))
        diff = model.forward(x[-n_val:]) - y5[-n_val:]
        best = min(h.val_mse for h in history)
        assert float((diff * diff).mean()) == pytest.approx(best, rel=1e-12)

    def test_non_finite_loss_aborts_and_restores(self):
        x, y = _toy_problem(n=30, seed=7)
        model = mlp_build(output=5, seed=12)
        before = {k: v.copy() for k, v in model.params.items()}
        y_bad = np.hstack([y, y, y[:, :1]])
        y_bad[16:] = 1e200  # the first two batches step, the third overflows
        config = TrainConfig(epochs=3, batch_size=8)
        with pytest.raises(TrainingError,
                           match="non-finite loss at epoch 1, batch at row 16;"):
            train(model, x, y_bad, config)
        for name, value in model.params.items():
            assert np.array_equal(value, before[name])

    def test_recurrent_training_with_clipping_runs(self):
        x, y = _toy_problem(n=30, seed=8)
        model = lstm_model_build(units=4, dense=8, output=1, seed=13)
        config = TrainConfig(epochs=2, batch_size=8, clip_max_norm=1.0,
                             learning_rate=0.01)
        history = train(model, sliding_windows(x, 3), y[2:, :1], config)
        assert len(history) == 2
        assert all(np.isfinite(h.train_mse) for h in history)

    def test_zero_validation_fraction_monitors_train(self):
        x, y = _toy_problem(n=20, seed=9)
        y5 = np.hstack([y, y, y[:, :1]])
        config = TrainConfig(epochs=2, batch_size=5, validation_fraction=0.0)
        history = train(mlp_build(output=5, seed=14), x, y5, config)
        assert history[0].val_mse == history[0].train_mse

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="clip_max_norm"):
                TrainConfig(clip_max_norm=bad)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        TrainConfig(clip_max_norm=1e-12, learning_rate=0.0)


# --- one parameter vector ------------------------------------------------------


_BUILDERS = {
    "mlp": lambda seed: mlp_build(output=5, seed=seed),
    "lstm": lambda seed: lstm_model_build(output=5, seed=seed),
    "bilstm": lambda seed: bilstm_model_build(output=5, seed=seed),
    "hybrid": lambda seed: hybrid_model_build(window=4, output=5, seed=seed),
}

# sha256 of the concatenated parameter bytes after _pinned_training. The clip
# sums squared gradients in the order backward files them (the output layer
# first); summing them in another order changes these bytes
_PINNED = {
    ("mlp", 0):
        "b4f3af23a638825c2573cb4c2a6115a61470eae919d9ceb8d5eca1b5dc5d860e",
    ("mlp", 1):
        "53dfae4e6cf184037d338e49cde80a2ff42404b98f343acc2a5079f536b33d60",
    ("mlp", 2):
        "05a23e588cccc224e6b7f7041cdfcc7eacab1242c4b44ccd38b293410e8ac33f",
    ("lstm", 0):
        "a161e7ae03ee23fd5e3d49f07367605003dc5ebd23518f6952ff124557bc3671",
    ("lstm", 1):
        "183fe28556e4399d5e549a5076b0739ef3887d6ef65292a6e1be128f62e618e3",
    ("lstm", 2):
        "ca909a89bc7dbe7cb50fae4ed16dc25218be676fe533a1defc9db1367629eb95",
    ("bilstm", 0):
        "acff2d6b9d80100110863d96b6e101498f74b76bd11a19094e7ca5f8e5bed4c5",
    ("bilstm", 1):
        "5dd573485f8a2b15beb151c5f5eaa79c720b7b5c042c40a1b2f09b07ce84411f",
    ("bilstm", 2):
        "5e4387657f8d60fc2907330d8fb6346c3ca446aea608dfa7680c047c347e3b34",
    ("hybrid", 0):
        "66c1029ff549c2b31bea8f6c911b0c147437fd0fd462ef5547ce936241f5f558",
    ("hybrid", 1):
        "0e0cb5f88829ff0235e5ea5a020583c492866bce7475da0fa3e02c15d4efce4f",
    ("hybrid", 2):
        "bcd743c4ad48179ce05092cc035a29b9eff50d9e64d9a1d27c221b39c6651d57",
}


def _layer_keys(*layers):
    return [f"{layer}.{key}" for layer in layers for key in ("w", "b")]


_FILING_ORDER = {
    "mlp": _layer_keys("out", "dense2", "dense1"),
    "lstm": _layer_keys("out", "dense", "lstm2", "lstm1"),
    "bilstm": _layer_keys("out", "dense", "bi2.fwd", "bi2.bwd", "bi1.fwd", "bi1.bwd"),
    "hybrid": _layer_keys("out", "cnn_dense", "conv", "lstm_dense", "lstm2",
                          "bi.fwd", "bi.bwd"),
}

def _pinned_training(kind, seed):
    """Two epochs on a 120-row toy problem; the sequence kinds clip at 1.

    The targets are scaled up so that every sequence kind's gradient norm
    passes 1 on some batches.
    """
    x, y = _toy_problem(n=120, seed=seed)
    y = 4.0 * np.hstack([y, y, y[:, :1]])
    clip = None
    if kind != "mlp":
        x, y, clip = sliding_windows(x, 4), y[3:], 1.0
    model = _BUILDERS[kind](seed)
    train(model, x, y, TrainConfig(epochs=2, batch_size=16, clip_max_norm=clip))
    return model


class TestParameterVector:
    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_params_are_views_of_one_vector(self, kind):
        model = _BUILDERS[kind](1)
        params = list(model.params.values())
        assert sum(p.size for p in params) == model.vector.size
        assert all(np.shares_memory(p, model.vector) for p in params)
        assert np.array_equal(np.concatenate([p.ravel() for p in params]),
                              model.vector)
        x = Rng(2).uniform_array((3, 4, 11) if model.takes_sequences else (3, 11),
                                 -1.0, 1.0)
        pred, caches = model.forward_cached(x)
        grads, _ = model.backward(caches, pred)
        assert set(grads) == set(model.params)
        assert all(np.shares_memory(g, model.grad_vector) for g in grads.values())
        model.vector[...] = 0.0  # reaches every layer, the bidirectional halves too
        assert np.array_equal(model.forward(x), np.zeros((3, 5)))

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_backward_files_gradients_in_pinned_order(self, kind):
        # the clip sums squared gradients in this order, so it fixes the bytes
        # of every clipped model: the tail first, then each path from its
        # last layer back
        model = _BUILDERS[kind](1)
        x = Rng(2).uniform_array((3, 4, 11) if model.takes_sequences else (3, 11),
                                 -1.0, 1.0)
        pred, caches = model.forward_cached(x)
        grads, _ = model.backward(caches, pred)
        assert list(grads) == _FILING_ORDER[kind]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_trained_parameters_are_pinned(self, kind, seed):
        model = _pinned_training(kind, seed)
        digest = hashlib.sha256(
            b"".join(p.tobytes() for p in model.params.values())).hexdigest()
        assert digest == _PINNED[kind, seed]
