"""Wrapper-level training and prediction across the eight model kinds."""

import numpy as np
import pytest

from delaycast.features import (
    FeatureTable,
    build_table,
    chronological_split,
    fit_codebook,
    fit_standardizer,
    positive_variance_columns,
)
from delaycast.neural import TrainConfig, mlp_build, sliding_windows, train
from delaycast.preprocess import run_pipeline
from delaycast.regressors import (
    MODEL_KINDS,
    FitOptions,
    TrainedModel,
    predict_table,
    train_model,
)
from delaycast.synth import SynthConfig, generate
from delaycast.trees import gbt_fit, gbt_predict


def make_table(count=240, seed=11, target_mode="components", **cfg):
    """Clean synthetic rows through the real pruning + encoding path."""
    result = generate(SynthConfig(count=count, seed=seed, **cfg))
    records, _ = run_pipeline(result.flights)
    codebook = fit_codebook(records)
    return build_table(records, codebook, target_mode)


@pytest.fixture(scope="module")
def split_tables():
    table = make_table()
    return chronological_split(table)


class TestClassicKinds:
    def test_ols_recovers_planted_line(self, split_tables):
        train_t, test_t = split_tables
        # replace targets with an exact linear rule over two raw columns
        names = train_t.feature_names
        ti, to = names.index("TAXI_IN"), names.index("TAXI_OUT")
        def relabel(t):
            y = (1.0 + 2.0 * t.x[:, ti] + 0.5 * t.x[:, to]).reshape(-1, 1)
            return FeatureTable(feature_names=t.feature_names, x=t.x, y=y,
                                timestamps=t.timestamps, target_mode="total",
                                codebook=t.codebook)
        trained, history = train_model(relabel(train_t), "ols")
        assert history == ()
        pred = predict_table(trained, relabel(test_t))
        want = relabel(test_t).y
        assert np.abs(pred - want).max() < 1e-8

    def test_ols_drops_constant_year(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(train_t, "ols")
        assert "YEAR" not in trained.used_columns
        assert trained.settings["columns"] == list(trained.used_columns)
        assert predict_table(trained, test_t).shape == (len(test_t), 5)

    def test_tree_defaults_recorded(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(train_t, "tree")
        assert trained.settings == {"max_depth": 10, "min_samples_leaf": 5}
        assert predict_table(trained, test_t).shape == (len(test_t), 5)

    def test_forest_seed_reproducible(self, split_tables):
        train_t, test_t = split_tables
        opts = dict(n_estimators=4, max_depth=4, seed=5)
        a, _ = train_model(train_t, "forest", FitOptions(**opts))
        b, _ = train_model(train_t, "forest", FitOptions(**opts))
        assert np.array_equal(predict_table(a, test_t), predict_table(b, test_t))
        assert a.settings["n_estimators"] == 4

    def test_gbt_matches_direct_fit(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(
            train_t, "gbt", FitOptions(rounds=10, max_depth=3))
        direct = gbt_fit(train_t.x, train_t.y, rounds=10, learning_rate=0.3,
                         max_depth=3)
        assert np.array_equal(predict_table(trained, test_t),
                              gbt_predict(direct, test_t.x))


class TestNeuralKinds:
    def test_mlp_matches_manual_pipeline(self, split_tables):
        train_t, test_t = split_tables
        trained, history = train_model(
            train_t, "mlp", FitOptions(seed=3, epochs=4))
        assert len(history) >= 1
        assert trained.settings["epochs_run"] == len(history)

        cols = positive_variance_columns(train_t.x, train_t.feature_names)
        scaler = fit_standardizer(train_t.x, train_t.feature_names, columns=cols)
        xs = scaler.apply(train_t.x)
        off = xs.mean(axis=0)
        y_off = train_t.y.mean(axis=0)
        cen = train_t.y - y_off
        scale = float(np.sqrt((cen * cen).mean()))
        net = mlp_build(input_size=11, output=5, seed=3)
        train(net, xs - off, cen / scale, TrainConfig(epochs=4))
        manual = y_off + scale * net.forward(scaler.apply(test_t.x) - off)
        assert np.array_equal(predict_table(trained, test_t), manual)

    def test_target_scaling_state(self, split_tables):
        train_t, _ = split_tables
        trained, _ = train_model(train_t, "mlp", FitOptions(epochs=1))
        assert np.array_equal(trained.target_offset, train_t.y.mean(axis=0))
        cen = train_t.y - train_t.y.mean(axis=0)
        assert trained.target_scale == pytest.approx(
            float(np.sqrt((cen * cen).mean())), rel=1e-12)

    def test_lstm_window_alignment_and_determinism(self, split_tables):
        train_t, test_t = split_tables
        opts = FitOptions(window=3, epochs=2, batch_size=64, seed=2)
        a, _ = train_model(train_t, "lstm", opts)
        b, _ = train_model(train_t, "lstm", opts)
        pa = predict_table(a, test_t)
        assert pa.shape == (len(test_t) - 2, 5)
        assert np.array_equal(pa, predict_table(b, test_t))
        assert a.settings["clip_max_norm"] == 1.0
        assert a.settings["batch_size"] == 64

        # scoring windows the rows exactly as training does
        hybrid, _ = train_model(train_t, "hybrid",
                                FitOptions(window=4, epochs=1, batch_size=64, seed=2))
        for trained in (a, hybrid):
            xin = trained.scaler.apply(test_t.x) - trained.input_offset
            windows = sliding_windows(xin, trained.window)
            want = (trained.target_offset
                    + trained.target_scale * trained.inner.forward(windows))
            assert np.array_equal(predict_table(trained, test_t), want)
        short = FeatureTable(feature_names=test_t.feature_names, x=test_t.x[:3],
                             y=test_t.y[:3], timestamps=test_t.timestamps[:3],
                             target_mode=test_t.target_mode, codebook=test_t.codebook)
        with pytest.raises(ValueError, match="cannot fill a window of 4"):
            predict_table(hybrid, short)

    def test_bilstm_and_hybrid_run(self, split_tables):
        train_t, test_t = split_tables
        for kind, window in (("bilstm", 2), ("hybrid", 4)):
            trained, history = train_model(
                train_t, kind, FitOptions(window=window, epochs=1))
            pred = predict_table(trained, test_t)
            assert pred.shape == (len(test_t) - window + 1, 5)
            assert np.isfinite(pred).all()
            assert len(history) == 1

    def test_hybrid_window_too_small(self, split_tables):
        train_t, _ = split_tables
        with pytest.raises(ValueError, match="window"):
            train_model(train_t, "hybrid", FitOptions(window=2, epochs=1))


class TestValidation:
    def test_unknown_kind_lists_valid_ones(self, split_tables):
        train_t, _ = split_tables
        with pytest.raises(ValueError, match="ols.*hybrid"):
            train_model(train_t, "xgboost")

    def test_rowwise_kinds_reject_windows(self, split_tables):
        train_t, _ = split_tables
        for kind in ("ols", "tree", "forest", "gbt", "mlp"):
            with pytest.raises(ValueError, match="window"):
                train_model(train_t, kind, FitOptions(window=2))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            FitOptions(window=0)

    def test_codebook_mismatch_rejected(self, split_tables):
        train_t, _ = split_tables
        other = make_table(count=160, seed=4, airports=4)
        trained, _ = train_model(train_t, "tree")
        with pytest.raises(ValueError, match="codebook"):
            predict_table(trained, other)

    def test_kinds_catalog(self):
        assert MODEL_KINDS == ("ols", "tree", "forest", "gbt",
                               "mlp", "lstm", "bilstm", "hybrid")

    def test_trained_model_neural_state_required(self, split_tables):
        train_t, _ = split_tables
        with pytest.raises(ValueError, match="scaler"):
            TrainedModel(kind="mlp", target_mode="components",
                         feature_names=train_t.feature_names,
                         codebook_columns=dict(train_t.codebook.columns),
                         window=1, inner=None)
