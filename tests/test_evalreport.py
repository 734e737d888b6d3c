"""Metric math, ranking, and report rendering."""

import json

import numpy as np
import pytest

from delaycast.evalreport import (
    ComponentRow,
    ModelSummary,
    compare,
    evaluate,
    export_chart_data,
    render_components,
    render_totals,
    report_bundle,
    totals_csv,
)
from delaycast.features import chronological_split
from delaycast.regressors import FitOptions, TrainedModel, train_model
from delaycast.trees import GbtModel, TreeArrays

from test_regressors import make_table


@pytest.fixture(scope="module")
def split_tables():
    return chronological_split(make_table(count=220, seed=17))


def constant_mean_model(table):
    """A gbt shell with no boosting rounds: always predicts train means."""
    inner = GbtModel(base_score=table.y.mean(axis=0), learning_rate=0.3,
                     reg_lambda=1.0, gamma=0.0,
                     trees=TreeArrays(feature=[], threshold=[], left=[], right=[],
                                      value=np.zeros((0, 1)), roots=[]))
    return TrainedModel(kind="gbt", target_mode=table.target_mode,
                        feature_names=table.feature_names,
                        codebook_columns=dict(table.codebook.columns),
                        window=1, inner=inner)


class TestEvaluate:
    def test_perfect_predictor_zero_errors(self, split_tables):
        train_t, _ = split_tables
        trained, _ = train_model(
            train_t, "tree", FitOptions(max_depth=40, min_samples_leaf=1))
        summary, rows = evaluate(trained, train_t)
        assert summary.mse == 0.0
        assert summary.mae == 0.0
        for row in rows:
            assert row.mae == 0.0
            assert row.true_mean == row.pred_mean

    def test_constant_mean_matches_loop_oracle(self, split_tables):
        train_t, test_t = split_tables
        trained = constant_mean_model(train_t)
        summary, rows = evaluate(trained, test_t)
        mean = train_t.y.mean(axis=0)
        total, count = 0.0, 0
        for i in range(len(test_t)):
            for j in range(test_t.y.shape[1]):
                total += abs(mean[j] - test_t.y[i, j])
                count += 1
        assert summary.mae == pytest.approx(total / count, abs=1e-12)

    def test_total_mae_is_mean_of_component_maes(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(train_t, "gbt", FitOptions(rounds=5, max_depth=3))
        summary, rows = evaluate(trained, test_t)
        assert len(rows) == 5
        assert summary.mae == pytest.approx(
            sum(r.mae for r in rows) / 5, abs=1e-12)

    def test_windowed_model_aligns_truth(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(
            train_t, "lstm",
            FitOptions(window=3, epochs=1, batch_size=64))
        summary, _ = evaluate(trained, test_t)
        assert summary.manifest["rows_scored"] == len(test_t) - 2
        assert summary.manifest["window"] == 3

    def test_target_mode_mismatch(self, split_tables):
        train_t, _ = split_tables
        total_table = make_table(count=220, seed=17, target_mode="total")
        trained = constant_mean_model(train_t)
        with pytest.raises(ValueError, match="total"):
            evaluate(trained, total_table)

    def test_summary_carries_manifest(self, split_tables):
        train_t, test_t = split_tables
        trained, _ = train_model(train_t, "tree")
        summary, _ = evaluate(trained, test_t, name="cart")
        assert summary.name == "cart"
        assert summary.manifest["kind"] == "tree"
        assert summary.manifest["settings"] == trained.settings


class TestCompare:
    def test_rank_by_mse_then_mae_then_name(self):
        rows = [ModelSummary("b", 2.0, 1.0, "total"),
                ModelSummary("a", 1.0, 9.0, "total"),
                ModelSummary("d", 1.0, 2.0, "total"),
                ModelSummary("c", 1.0, 2.0, "total")]
        assert [s.name for s in compare(rows)] == ["c", "d", "a", "b"]

    def test_single_entry(self):
        only = ModelSummary("solo", 1.0, 1.0, "components")
        assert compare([only]) == (only,)


class TestValidation:
    def test_negative_mae_rejected(self):
        with pytest.raises(ValueError, match="mae"):
            ComponentRow("Carrier", 1.0, 1.0, -0.5)

    def test_non_finite_mse_rejected(self):
        with pytest.raises(ValueError, match="mse"):
            ModelSummary("m", float("nan"), 1.0, "total")


class TestRendering:
    SUMMARIES = (ModelSummary("lstm", 361.833, 10.022, "components"),
                 ModelSummary("mlp", 371.4738, 10.3401, "components"))

    def test_totals_layout(self):
        text = render_totals(self.SUMMARIES)
        assert text.splitlines() == [
            "Model      MSE     MAE",
            "lstm   361.833  10.022",
            "mlp    371.474  10.340",
        ]

    def test_components_layout(self):
        rows = (ComponentRow("Security", 0.130, 0.141, 0.270),
                ComponentRow("Late Aircraft", 19.374, 18.031, 19.338))
        text = render_components(rows)
        lines = text.splitlines()
        assert lines[0] == "Delay Component  True Mean  Mean of Predictions     MAE"
        assert lines[1] == "Security             0.130                0.141   0.270"
        assert lines[2] == "Late Aircraft       19.374               18.031  19.338"

    def test_totals_csv_round_trips_exact_values(self):
        lines = totals_csv(self.SUMMARIES).splitlines()
        assert lines[0] == "model,mse,mae,target_mode"
        cells = lines[1].split(",")
        assert cells[0] == "lstm"
        assert float(cells[1]) == 361.833

    def test_bundle_is_json_ready(self):
        rows = (ComponentRow("Carrier", 1.0, 2.0, 3.0),)
        bundle = report_bundle(self.SUMMARIES, {"lstm": rows})
        text = json.dumps(bundle)
        back = json.loads(text)
        assert back["models"][0]["name"] == "lstm"
        assert back["components"]["lstm"][0]["mae"] == 3.0

    def test_chart_export(self, tmp_path):
        path = tmp_path / "chart.csv"
        export_chart_data(self.SUMMARIES, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,metric,value"
        assert len(lines) == 5
        assert lines[1] == "lstm,mse,361.833"
        assert float(lines[4].split(",")[2]) == 10.3401

    def test_chart_export_empty(self, tmp_path):
        path = tmp_path / "chart.csv"
        export_chart_data((), path)
        assert path.read_text() == "model,metric,value\n"
