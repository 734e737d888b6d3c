"""End-to-end subcommand behavior: chains, flag resolution, error paths."""

import csv
import ctypes
import dataclasses
import json
import os
import runpy
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import delaycast
from delaycast import cli
from delaycast import regressors, schema
from delaycast.cli import main
from delaycast.modelfile import load_model
from delaycast.neural import train
from delaycast.preprocess import run_pipeline
from delaycast.schema import Flights, SchemaError, read_csv, write_csv
from delaycast.stats import correlation_table, redundancy_test, screening_columns
from delaycast.synth import LABELS, SynthConfig, generate, read_labels

from test_schema import decoded, make_record
import test_schema

STAGE_OF_LABEL = {"cancelled": "cancelled_or_diverted",
                  "missing": "missing_components",
                  "mismatch": "sum_mismatch",
                  "outlier": "outlier"}


def run(argv):
    return main([str(a) for a in argv])


class TestChain:
    def test_prune_counts_match_generator_labels(self, tmp_path):
        flights = tmp_path / "flights.csv"
        pruned = tmp_path / "pruned.csv"
        assert run(["synth", "--count", 500, "--seed", 7,
                    "--cancelled-rate", 0.03, "--missing-rate", 0.3,
                    "--mismatch-rate", 0.01, "--outlier-rate", 0.012,
                    "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0

        labels = read_labels(f"{flights}.labels.csv")
        report = json.loads((tmp_path / "pruned.csv.report.json").read_text())
        for label, stage in STAGE_OF_LABEL.items():
            assert report["removed"][stage] == labels.count(label)
        assert report["retained_count"] == labels.count("clean")

    def test_full_chain_to_report(self, tmp_path, capsys):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        model, rep = tmp_path / "m.bin", tmp_path / "r.json"
        final = tmp_path / "final.json"
        assert run(["synth", "--count", 260, "--seed", 3, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        assert run(["analyze", "--in", pruned]) == 0
        assert run(["train", "--in", pruned, "--model", "tree",
                    "--out", model]) == 0
        assert run(["evaluate", "--model-file", model, "--in", pruned,
                    "--report-out", rep]) == 0
        assert run(["report", "--summaries", rep, "--format", "json",
                    "--out", final]) == 0
        text = capsys.readouterr().out
        assert "Pearson" in text
        assert "redundant" in text
        bundle = json.loads(final.read_text())
        assert bundle["models"][0]["name"] == "tree"
        assert "Carrier" in str(bundle["components"])

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            flights = tmp_path / f"{tag}.csv"
            pruned = tmp_path / f"{tag}p.csv"
            model = tmp_path / f"{tag}.bin"
            assert run(["synth", "--count", 220, "--seed", 9,
                        "--out", flights]) == 0
            assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
            assert run(["train", "--in", pruned, "--model", "mlp",
                        "--epochs", 2, "--seed", 9, "--out", model]) == 0
            outs.append((flights.read_bytes(), pruned.read_bytes(),
                         model.read_bytes()))
        assert outs[0] == outs[1]


class TestTrainCommand:
    def test_ols_recovers_planted_coefficients(self, tmp_path):
        generated = generate(SynthConfig(count=60, seed=3)).flights
        columns = {name: getattr(generated, name) for name in Flights.FIELDS}
        doctored = Flights(dict(columns, arr_delay=1.0 + 2.0 * generated.taxi_in))
        flights = tmp_path / "line.csv"
        write_csv(doctored, flights)
        model_path = tmp_path / "ols.bin"
        assert run(["train", "--in", flights, "--model", "ols",
                    "--targets", "total", "--out", model_path]) == 0
        trained = load_model(model_path)
        beta = trained.inner.beta[:, 0]
        taxi_in_row = 1 + trained.used_columns.index("TAXI_IN")
        assert beta[0] == pytest.approx(1.0, abs=1e-6)
        assert beta[taxi_in_row] == pytest.approx(2.0, abs=1e-6)
        others = [b for i, b in enumerate(beta)
                  if i not in (0, taxi_in_row)]
        assert max(abs(b) for b in others) < 1e-6

    def test_unknown_model_lists_valid_names(self, tmp_path, capsys):
        assert run(["train", "--in", "x.csv", "--model", "xgboost",
                    "--out", "m.bin"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "ols" in err and "hybrid" in err
        assert err.count("\n") == 1

    def test_nan_clip_is_refused(self, tmp_path, capsys):
        flights = tmp_path / "flights.csv"
        assert run(["synth", "--count", 200, "--seed", 2, "--out", flights]) == 0
        capsys.readouterr()
        assert run(["train", "--in", flights, "--model", "mlp", "--epochs", 1,
                    "--clip", "nan", "--out", tmp_path / "m.bin"]) == 1
        err = capsys.readouterr().err
        assert err == "error: clip_max_norm must be finite and > 0, got nan\n"
        assert not (tmp_path / "m.bin").exists()

    def test_conflicting_flags_reported_together(self, tmp_path, capsys):
        assert run(["train", "--in", "x.csv", "--model", "tree",
                    "--window", 0, "--epochs", 0, "--out", "m.bin"]) == 1
        err = capsys.readouterr().err
        assert "window" in err and "epochs" in err
        assert err.count("\n") == 1


class TestEvaluateCommand:
    def test_split_flag_controls_rows(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        model = tmp_path / "m.bin"
        run(["synth", "--count", 220, "--seed", 5, "--out", flights])
        run(["preprocess", "--in", flights, "--out", pruned])
        run(["train", "--in", pruned, "--model", "tree", "--out", model])
        counts = {}
        for part in ("train", "test", "all"):
            rep = tmp_path / f"{part}.json"
            assert run(["evaluate", "--model-file", model, "--in", pruned,
                        "--split", part, "--report-out", rep]) == 0
            bundle = json.loads(rep.read_text())
            counts[part] = bundle["models"][0]["manifest"]["rows_scored"]
        assert counts["train"] + counts["test"] == counts["all"]
        assert counts["train"] > counts["test"]


class TestFlagResolution:
    def test_one_parser_serves_calls_with_different_commands(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        reported = []
        # looked up when main runs the command, not when the parser was built
        monkeypatch.setattr(cli, "cmd_report", lambda args: reported.append(vars(args)) or 0)
        assert run(["synth", "--count", 20, "--seed", 3, "--out", tmp_path / "f.csv"]) == 0
        assert run(["report", "--summaries", "a.json", "b.json"]) == 0
        assert reported == [{"command": "report", "config": None,
                             "summaries": ["a.json", "b.json"], "format": None,
                             "out": None, "chart_out": None}]
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert (manifest["config"]["count"], manifest["seeds"]["seed"]) == (20, 3)

    def test_cli_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 30, "seed": 2}))
        out = tmp_path / "f.csv"
        assert run(["synth", "--config", cfg, "--count", 40,
                    "--out", out]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 41  # header + 40
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["config"]["count"] == 40
        assert manifest["seeds"]["seed"] == 2

    def test_env_seed_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DELAYCAST_SEED", "11")
        out = tmp_path / "f.csv"
        assert run(["synth", "--count", 25, "--out", out]) == 0
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["seeds"]["seed"] == 11

    def test_bad_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DELAYCAST_SEED", "eleven")
        assert run(["synth", "--count", 25, "--out", tmp_path / "f.csv"]) == 1
        assert "DELAYCAST_SEED" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["synth", "--config", cfg, "--count", 10,
                    "--out", tmp_path / "f.csv"]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["synth", "--count", 10]) == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("config,err", [
        ({"count": 12.9}, "error: --count must be an integer, got 12.9\n"),
        ({"seed": True}, "error: --seed must be an integer, got True\n"),
        ({"missing-rate": False}, "error: --missing-rate must be a number, got False\n"),
        ({"missing-rate": [0.1]}, "error: --missing-rate must be a number, got [0.1]\n"),
        ({"labels": 5}, "error: --labels must be a string, got 5\n"),
    ])
    def test_config_values_are_not_coerced(self, tmp_path, capsys, config, err):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "f.csv"
        assert run(["synth", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_config_integral_number_is_an_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 12.0, "missing-rate": 0}))
        out = tmp_path / "f.csv"
        assert run(["synth", "--config", cfg, "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 13

    @pytest.mark.parametrize("config,err", [
        ({"train-fraction": 0.9},
         "error: config keys name no flag of train: train-fraction\n"),
        ({"min-lef": 3, "model": "tree", "train_fraction": 0.9},
         "error: config keys name no flag of train: min-lef, train_fraction\n"),
        ({"config": "other.json"}, "error: config keys name no flag of train: config\n"),
    ])
    def test_config_keys_must_name_a_flag(self, tmp_path, capsys, config, err):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["train", "--config", cfg, "--in", tmp_path / "p.csv",
                    "--model", "ols", "--out", tmp_path / "m.bin"]) == 1
        assert capsys.readouterr().err == err

    def test_config_keys_take_either_spelling(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 5, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_leaf": 7, "depth": 3, "model": "tree"}))
        assert run(["train", "--config", cfg, "--in", pruned,
                    "--out", tmp_path / "m.bin"]) == 0
        manifest = json.loads((tmp_path / "m.bin.manifest.json").read_text())
        assert manifest["config"]["min-leaf"] == 7
        assert manifest["decisions"]["settings"]["min_samples_leaf"] == 7

    @pytest.mark.parametrize("summaries", [5, [], ["a.json", 3]])
    def test_report_summaries_must_be_paths(self, tmp_path, capsys, summaries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summaries": summaries}))
        assert run(["report", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: --summaries must be a path or a list of paths, got {summaries!r}\n")


class TestManifests:
    def test_every_command_writes_one(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        model, rep = tmp_path / "m.bin", tmp_path / "r.json"
        run(["synth", "--count", 220, "--seed", 1, "--out", flights])
        run(["preprocess", "--in", flights, "--out", pruned])
        run(["analyze", "--in", pruned])
        run(["train", "--in", pruned, "--model", "tree", "--out", model])
        run(["evaluate", "--model-file", model, "--in", pruned,
             "--report-out", rep])
        run(["report", "--summaries", rep, "--format", "csv",
             "--out", tmp_path / "totals.csv"])
        expected = [f"{flights}.manifest.json", f"{pruned}.manifest.json",
                    f"{pruned}.analyze.manifest.json", f"{model}.manifest.json",
                    f"{rep}.manifest.json",
                    f"{tmp_path / 'totals.csv'}.manifest.json"]
        commands, reused = [], {}
        for path in expected:
            manifest = json.loads((tmp_path / path).read_text())
            commands.append(manifest["command"])
            if "read_reused" in manifest:
                reused[manifest["command"]] = manifest["read_reused"]
            assert manifest["wall_time_s"] >= 0.0
            assert isinstance(manifest["config"], dict)
            assert manifest["peak_rss_mb"] > 0
            assert isinstance(manifest["minor_faults"], int)
            assert manifest["minor_faults"] >= 0
        assert commands == ["synth", "preprocess", "analyze", "train", "evaluate",
                            "report"]
        # preprocess hands its rows on as p.csv's parse; the others reuse it
        assert reused == {"preprocess": False, "analyze": True, "train": True,
                          "evaluate": True}

    def test_preprocess_manifest_counts_rows_and_memory(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 2, "--cancelled-rate", 0.05,
                    "--missing-rate", 0.2, "--out", flights]) == 0
        with open(flights, "a", encoding="utf-8") as fh:
            fh.write("2022-01-03,X\n")  # one short row: one diagnostic
        assert run(["preprocess", "--in", flights, "--out", pruned,
                    "--report", tmp_path / "r.json"]) == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        report = json.loads((tmp_path / "r.json").read_text())
        assert manifest["rows_in"] == report["input_count"] == 300
        assert manifest["diagnostics"] == 1
        left, want = 300, {}
        for stage in ("cancelled_or_diverted", "missing_components",
                      "sum_mismatch", "outlier"):
            left -= report["removed"][stage]
            want[stage] = left
        assert manifest["rows_out"] == want
        assert want["outlier"] == report["retained_count"]
        assert manifest["peak_rss_mb"] > 0

    def test_preprocess_manifest_times_each_phase(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 2, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"read_s", "prune_s", "write_s"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        # timings go in the manifest only, never in a byte-gated output
        assert "read_s" not in pruned.read_text()
        assert "read_s" not in (tmp_path / "p.csv.report.json").read_text()

    def test_synth_manifest_times_each_phase(self, tmp_path):
        flights = tmp_path / "f.csv"
        assert run(["synth", "--count", 300, "--seed", 2, "--out", flights]) == 0
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"generate_s", "write_s", "labels_s"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert sum(timings.values()) <= manifest["wall_time_s"]
        assert "generate_s" not in flights.read_text()

    def test_analyze_manifest_records_screening(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 4, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        assert run(["analyze", "--in", pruned, "--out", tmp_path / "a.txt"]) == 0
        manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
        kept, _ = read_csv(pruned)
        usable, columns, target = screening_columns(kept)
        assert manifest["rows_in"] == len(kept)
        assert manifest["rows_usable"] == int(usable.sum()) > 0
        table = correlation_table(columns, target)
        assert manifest["correlations"] == {row.attribute: row.r for row in table}
        printed = (tmp_path / "a.txt").read_text()
        for row in table:
            assert f"{manifest['correlations'][row.attribute]:.4f}" in printed

    def test_analyze_groups_text_rows_by_value(self, tmp_path, monkeypatch, capsys):
        # padded cells read back stripped; code-point order puts "Z" < "a" < "é"
        words = ["é", "Z", "a", " Z", "a", "é ", "Z"]
        varied = ("crs_dep_time", "taxi_out", "crs_arr_time", "taxi_in", "crs_elapsed_time",
                  "distance")
        records = [make_record(fl_number=i, arr_delay=float(i % 5), airline=words[i % 7],
                               **{name: float(10 + (i * (k + 2)) % 11)
                                  for k, name in enumerate(varied)},
                               airline_dot=words[i % 3] + "x", airline_code="",
                               dot_code=words[i % 4], origin=words[i % 5],
                               origin_city=words[(i + 1) % 7], dest=words[i % 6],
                               dest_city=words[i % 2])
                   for i in range(30)]
        path = tmp_path / "p.csv"
        write_csv(test_schema.flights(records), path)
        calls = []

        def recording(target, kept_codes, cand_codes, **names):
            calls.append((names["kept_name"], names["candidate_name"], kept_codes, cand_codes))
            return redundancy_test(target, kept_codes, cand_codes, **names)

        monkeypatch.setattr(cli, "redundancy_test", recording)
        assert run(["analyze", "--in", path]) == 0
        blank_pair = [line.split() for line in capsys.readouterr().out.splitlines()
                      if line.startswith("AIRLINE vs AIRLINE_CODE")]
        assert blank_pair == [["AIRLINE", "vs", "AIRLINE_CODE", "-", "-", "-", "no", "data"]]
        assert [call[:2] for call in calls] == [
            ("AIRLINE", "AIRLINE_DOT"), ("AIRLINE", "DOT_CODE"),
            ("ORIGIN", "ORIGIN_CITY"), ("DEST", "DEST_CITY")]
        for *columns, kept_codes, cand_codes in calls:
            for column, codes in zip(columns, (kept_codes, cand_codes)):
                values = [r[schema._HEADER_MAP[column]].strip() for r in records]
                np.testing.assert_array_equal(codes, np.unique(values, return_inverse=True)[1])

    def test_train_and_evaluate_manifests_count_rows_and_time_phases(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        model, rep = tmp_path / "m.bin", tmp_path / "r.json"
        assert run(["synth", "--count", 300, "--seed", 5, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        assert run(["train", "--in", pruned, "--model", "ols", "--out", model]) == 0
        assert run(["evaluate", "--model-file", model, "--in", pruned,
                    "--report-out", rep]) == 0
        trained = json.loads((tmp_path / "m.bin.manifest.json").read_text())
        scored = json.loads((tmp_path / "r.json.manifest.json").read_text())
        rows = len(read_csv(pruned)[0])
        assert trained["rows_train"] + trained["rows_held_out"] == rows
        assert trained["rows_held_out"] == scored["rows_scored"] > 0
        bundle = json.loads(rep.read_text())
        assert scored["rows_scored"] == bundle["models"][0]["manifest"]["rows_scored"]
        assert (trained["read_reused"], scored["read_reused"]) == (True, True)
        for manifest, phases in ((trained, {"read_s", "table_s", "fit_s", "save_s"}),
                                 (scored, {"read_s", "score_s"})):
            assert set(manifest["timings"]) == phases
            assert all(seconds >= 0.0 for seconds in manifest["timings"].values())
            assert sum(manifest["timings"].values()) <= manifest["wall_time_s"]
        # timings go in the manifest only, never in a byte-gated output
        assert "read_s" not in rep.read_text()

    def test_tree_manifests_record_each_tree_shape(self, tmp_path):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 5, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0

        def walked_depth(tree):  # children of the k-th split at 2k+1, 2k+2
            split = tree.feature >= 0
            before = np.cumsum(split) - split
            stack, deepest = [(0, 0)], 0
            while stack:
                i, depth = stack.pop()
                deepest = max(deepest, depth)
                if split[i]:
                    stack += [(2 * before[i] + 1, depth + 1), (2 * before[i] + 2, depth + 1)]
            return deepest

        for kind, flags, depth, count in (("tree", ["--depth", 4], 4, 1),
                                          ("forest", ["--trees", 3, "--depth", 5], 5, 3),
                                          ("gbt", ["--rounds", 2, "--depth", 3], 3, 10)):
            model = tmp_path / f"{kind}.bin"
            assert run(["train", "--in", pruned, "--model", kind, "--out", model,
                        *flags]) == 0
            manifest = json.loads((tmp_path / f"{kind}.bin.manifest.json").read_text())
            inner = load_model(model).inner
            fitted = inner if kind == "tree" else inner.trees
            members = [fitted.member(t) for t in range(fitted.n_trees)]
            assert len(members) == count
            assert manifest["trees"] == {
                "nodes": [m.feature.size for m in members],
                "leaves": [int((m.feature < 0).sum()) for m in members],
                "depth": [walked_depth(m) for m in members]}
            assert 0 < max(manifest["trees"]["depth"]) <= depth
            # the manifest only: settings go into the model file
            assert "trees" not in manifest["decisions"]["settings"]
        assert run(["train", "--in", pruned, "--model", "ols", "--out", tmp_path / "o.bin"]) == 0
        assert "trees" not in json.loads((tmp_path / "o.bin.manifest.json").read_text())

    def test_train_manifest_counts_windows_and_validation_rows(self, tmp_path, monkeypatch):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 5, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        fitted = []  # (examples, validation fraction) of each neural fit

        def recording_train(model, x, y, config):
            fitted.append((len(x), config.validation_fraction))
            return train(model, x, y, config)

        monkeypatch.setattr(regressors, "train", recording_train)
        for kind, window in (("ols", 1), ("mlp", 1), ("lstm", 3)):
            model = tmp_path / f"{kind}.bin"
            argv = ["train", "--in", pruned, "--model", kind, "--out", model]
            if kind != "ols":
                argv += ["--window", window, "--epochs", 1]
            assert run(argv) == 0
            manifest = json.loads((tmp_path / f"{kind}.bin.manifest.json").read_text())
            if kind == "ols":  # one example per row, no early stopping
                assert manifest["rows_windows"] == manifest["rows_train"]
                assert manifest["rows_validation"] == 0
                continue
            examples, fraction = fitted.pop()
            assert manifest["rows_windows"] == examples == manifest["rows_train"] - window + 1
            assert manifest["rows_validation"] == int(fraction * examples) > 0
        assert fitted == []

    def test_neural_train_manifest_records_history(self, tmp_path, monkeypatch):
        flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 300, "--seed", 5, "--out", flights]) == 0
        assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
        histories = []

        def recording_train(model, x, y, config):
            histories.append(train(model, x, y, config))
            return histories[-1]

        monkeypatch.setattr(regressors, "train", recording_train)
        # mlp trains without a clip; the sequence kinds clip at 1 by default
        for kind, flags in (("mlp", ["--epochs", 3]),
                            ("lstm", ["--window", 3, "--epochs", 2, "--batch", 16])):
            model = tmp_path / f"{kind}.bin"
            assert run(["train", "--in", pruned, "--model", kind, "--out", model,
                        *flags]) == 0
            manifest = json.loads((tmp_path / f"{kind}.bin.manifest.json").read_text())
            history = histories.pop()
            recorded = manifest["history"]
            assert len(recorded) == len(history) == manifest["decisions"]["settings"]["epochs_run"]
            for entry, stats in zip(recorded, history):
                assert set(entry) == {"epoch", "train_mse", "train_mae", "val_mse", "val_mae",
                                      "seconds", "max_norm", "mean_norm", "clipped"}
                assert entry == {**dataclasses.asdict(stats), "seconds": entry["seconds"]}
                assert entry["seconds"] > 0.0
                if kind == "mlp":
                    assert (entry["max_norm"], entry["mean_norm"], entry["clipped"]) == (None, None, 0)
                else:
                    assert entry["max_norm"] >= entry["mean_norm"] > 0.0
                    fit_rows = manifest["rows_windows"] - manifest["rows_validation"]
                    batches = -(-fit_rows // 16)
                    assert 0 <= entry["clipped"] <= batches
            assert sum(entry["seconds"] for entry in recorded) <= manifest["timings"]["fit_s"]
            best = min(recorded, key=lambda entry: entry["val_mse"])
            assert manifest["best_epoch"] == best["epoch"]
            assert best["val_mse"] == manifest["decisions"]["settings"]["best_val_mse"]
            # the manifest only: settings go into the model file
            assert not {"history", "best_epoch"} & set(manifest["decisions"]["settings"])
            assert b"seconds" not in model.read_bytes()
        assert run(["train", "--in", pruned, "--model", "ols", "--out", tmp_path / "o.bin"]) == 0
        assert not {"history", "best_epoch"} & set(
            json.loads((tmp_path / "o.bin.manifest.json").read_text()))

    def test_synth_manifest_counts_labels_fences_and_memory(self, tmp_path):
        flights = tmp_path / "f.csv"
        assert run(["synth", "--count", 400, "--seed", 3, "--cancelled-rate", 0.05,
                    "--missing-rate", 0.2, "--mismatch-rate", 0.03,
                    "--outlier-rate", 0.04, "--out", flights]) == 0
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        labels = read_labels(tmp_path / "f.csv.labels.csv")
        planted = generate(SynthConfig(count=400, seed=3, cancelled_rate=0.05,
                                       missing_rate=0.2, mismatch_rate=0.03,
                                       outlier_rate=0.04))
        assert manifest["rows_out"] == 400
        assert manifest["label_counts"] == {label: labels.count(label) for label in LABELS}
        assert manifest["label_counts"]["outlier"] > 0
        assert manifest["decisions"]["iqr_lower"] == planted.iqr_lower
        assert manifest["decisions"]["iqr_upper"] == planted.iqr_upper
        assert manifest["peak_rss_mb"] > 0

    def test_missing_input_file_is_single_line_error(self, tmp_path, capsys):
        assert run(["preprocess", "--in", tmp_path / "absent.csv",
                    "--out", tmp_path / "p.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_unclosed_quote_is_single_line_error(self, tmp_path, capsys):
        flights = tmp_path / "flights.csv"
        assert run(["synth", "--count", 6000, "--seed", 1, "--out", flights]) == 0
        header, rest = flights.read_text().split("\n", 1)
        # line 2 opens a quote; with the others gone it never closes
        flights.write_text(header + '\n"' + rest.replace('"', ""))
        capsys.readouterr()
        assert run(["preprocess", "--in", flights, "--out", tmp_path / "p.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV at line ")
        assert "field larger than field limit" in err
        assert err.count("\n") == 1

    def test_invalid_utf8_is_single_line_error(self, tmp_path, capsys):
        flights = tmp_path / "flights.csv"
        assert run(["synth", "--count", 200, "--seed", 1, "--out", flights]) == 0
        lines = flights.read_bytes().split(b"\n")
        lines[150] = lines[150].replace(b"Metro", b"M\xffetro", 1)
        flights.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run(["preprocess", "--in", flights, "--out", tmp_path / "p.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV at line 151: invalid UTF-8 ")
        assert err.count("\n") == 1


@pytest.fixture
def cold(monkeypatch):
    """An empty parse cache and a count of cli.read_csv calls."""
    calls = []
    parse = cli.read_csv

    def counted(source):
        calls.append(str(source))
        return parse(source)

    monkeypatch.setattr(cli, "_last_parse", None)
    monkeypatch.setattr(cli, "read_csv", counted)
    return calls


def pruned_csv(tmp_path, seed=5):
    flights, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
    assert run(["synth", "--count", 300, "--seed", seed, "--out", flights]) == 0
    assert run(["preprocess", "--in", flights, "--out", pruned]) == 0
    return pruned


def signed_zero_csv(tmp_path, seed=5):
    """A synth CSV whose zero delay components are written "-0".

    Its cancelled rows hold the only CANCELLATION_CODE values but "", so
    the pruned rows leave those vocabulary entries unused.
    """
    path = tmp_path / "f.csv"
    assert run(["synth", "--count", 300, "--seed", seed, "--cancelled-rate", 0.1,
                "--out", path]) == 0
    header, *rows = csv.reader(path.open(newline="", encoding="utf-8"))
    components = [i for i, column in enumerate(header) if column.startswith("DELAY_DUE_")]
    for row in rows:
        for i in components:
            row[i] = "-0" if row[i] == "0" else row[i]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


class TestHandOff:
    def test_preprocess_hands_on_its_rows_as_they_read_back(self, tmp_path, cold):
        source, pruned = signed_zero_csv(tmp_path), tmp_path / "p.csv"
        retained, _ = run_pipeline(read_csv(source)[0])
        assert np.signbit(retained.delay_due_weather).any()
        assert len(retained.cancellation_code.vocabulary) > 1
        assert run(["preprocess", "--in", source, "--out", pruned]) == 0
        assert cold == [str(source)]
        key, crc, handed, diagnostics = cli._last_parse
        fresh, fresh_diagnostics = read_csv(pruned)
        assert diagnostics == fresh_diagnostics == []
        test_schema.assert_identical(handed, fresh)
        assert (key, crc) == cli._fingerprint(pruned)
        assert cli._read_flights(pruned)[0] is handed

    def test_chain_in_one_process_writes_what_cold_commands_write(self, tmp_path, cold):
        source = signed_zero_csv(tmp_path)
        outputs, reused = {}, {}
        for mode in ("warm", "cold"):
            out = tmp_path / mode
            out.mkdir()
            pruned, model, bundle = out / "p.csv", out / "m.bin", out / "r.json"
            for argv in (["preprocess", "--in", source, "--out", pruned],
                         ["analyze", "--in", pruned, "--out", out / "analyze.txt"],
                         ["train", "--in", pruned, "--model", "tree", "--out", model],
                         ["evaluate", "--model-file", model, "--in", pruned,
                          "--report-out", bundle],
                         ["report", "--summaries", bundle, "--out", out / "report.txt",
                          "--chart-out", out / "chart.csv"]):
                if mode == "cold":
                    cli._last_parse = None
                assert run(argv) == 0
            outputs[mode] = {p.name: p.read_bytes() for p in out.iterdir()
                             if not p.name.endswith(".manifest.json")}
            reused[mode] = [json.loads(Path(f"{anchor}.manifest.json").read_text())
                            ["read_reused"] for anchor in (out / "analyze.txt", model, bundle)]
        assert sorted(outputs["warm"]) == ["analyze.txt", "chart.csv", "m.bin", "p.csv",
                                           "p.csv.report.json", "r.json", "report.txt"]
        assert outputs["warm"] == outputs["cold"]
        assert reused == {"warm": [True] * 3, "cold": [False] * 3}
        assert cold.count(str(source)) == 2 and len(cold) == 5

    def test_output_that_is_not_a_regular_file_is_neither_read_nor_kept(
            self, tmp_path, monkeypatch, cold):
        source = tmp_path / "f.csv"
        assert run(["synth", "--count", 100, "--seed", 3, "--out", source]) == 0
        opened = []

        def recorded(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recorded, raising=False)
        # the manifest would go beside the output, in the device directory
        monkeypatch.setattr(cli, "_write_manifest", lambda *args, **kwargs: None)
        assert run(["preprocess", "--in", source, "--out", os.devnull,
                    "--report", tmp_path / "prune.json"]) == 0
        assert opened == [str(source)]
        assert cli._last_parse[0] == cli._stat_key(os.stat(source))

    def test_skipped_input_rows_are_not_handed_on(self, tmp_path, capsys, cold):
        source, pruned = tmp_path / "f.csv", tmp_path / "p.csv"
        assert run(["synth", "--count", 100, "--seed", 2, "--out", source]) == 0
        with open(source, "a", encoding="utf-8") as fh:
            fh.write("2022-01-03,X\n")
        assert run(["preprocess", "--in", source, "--out", pruned]) == 0
        assert json.loads(Path(f"{pruned}.manifest.json").read_text())["diagnostics"] == 1
        capsys.readouterr()
        _, diagnostics, reused = cli._read_flights(pruned)
        assert (diagnostics, reused) == ([], True)
        assert capsys.readouterr().err == ""


class TestParseReuse:
    def test_train_then_evaluate_parse_once_and_score_as_cold(self, tmp_path, cold):
        pruned = pruned_csv(tmp_path)
        model = tmp_path / "m.bin"
        cli._last_parse = None
        cold.clear()
        assert run(["train", "--in", pruned, "--model", "ols", "--out", model]) == 0
        assert run(["evaluate", "--model-file", model, "--in", pruned,
                    "--report-out", tmp_path / "warm.json"]) == 0
        assert cold == [str(pruned)]
        cli._last_parse = None
        assert run(["evaluate", "--model-file", model, "--in", pruned,
                    "--report-out", tmp_path / "cold.json"]) == 0
        assert len(cold) == 2
        assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    def test_same_size_rewrite_with_restored_mtime_is_parsed_again(self, tmp_path, cold):
        pruned = pruned_csv(tmp_path)
        cli._last_parse = None
        assert cli._read_flights(pruned)[2] is False
        assert cli._read_flights(pruned)[2] is True
        before = os.stat(pruned)
        header, first, second, *rest = pruned.read_bytes().split(b"\n")
        assert first != second
        with open(pruned, "r+b") as fh:  # in place: the same inode
            fh.write(b"\n".join([header, second, first, *rest]))
        os.utime(pruned, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert cli._stat_key(os.stat(pruned)) == cli._stat_key(before)
        calls = len(cold)
        flights, _, reused = cli._read_flights(pruned)
        assert reused is False and len(cold) == calls + 1
        fresh, _ = read_csv(pruned)
        for name in Flights.FIELDS:
            assert decoded(getattr(flights, name)).tolist() == \
                decoded(getattr(fresh, name)).tolist()

    def test_hit_still_notes_skipped_rows_and_refuses_an_empty_file(
            self, tmp_path, capsys, cold):
        flights = tmp_path / "f.csv"
        assert run(["synth", "--count", 50, "--seed", 2, "--out", flights]) == 0
        with open(flights, "a", encoding="utf-8") as fh:
            fh.write("2022-01-03,X\n")
        capsys.readouterr()
        for reused in (False, True):
            assert cli._read_flights(flights)[2] is reused
            assert capsys.readouterr().err == (
                f"note: skipped 1 malformed cells/rows in {flights}\n")
        empty = tmp_path / "empty.csv"
        empty.write_text(flights.read_text().split("\n", 1)[0] + "\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="no usable records"):
                cli._read_flights(empty)
        assert cold.count(str(empty)) == 1

    def test_failed_read_leaves_no_entry(self, tmp_path, cold):
        pruned = pruned_csv(tmp_path)
        cli._read_flights(pruned)
        assert cli._last_parse is not None
        bad = tmp_path / "bad.csv"
        bad.write_text("FL_DATE,AIRLINE\n2022-01-03,X\n")
        with pytest.raises(SchemaError, match="missing required columns"):
            cli._read_flights(bad)
        assert cli._last_parse is None
        with pytest.raises(SchemaError):
            cli._read_flights(bad)

    def test_reading_another_file_releases_the_last_parse_first(
            self, tmp_path, monkeypatch, cold):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first, second = pruned_csv(tmp_path / "a"), pruned_csv(tmp_path / "b", seed=6)
        flights = cli._read_flights(first)[0]
        held = weakref.ref(flights)
        del flights
        alive_at_parse = []
        parse = cli.read_csv

        def probe(source):
            alive_at_parse.append(held() is not None)
            return parse(source)

        monkeypatch.setattr(cli, "read_csv", probe)
        cli._read_flights(second)
        assert alive_at_parse == [False]


# Allocates and frees ten 1 MiB arrays 20 times after the pin; prints the
# minor faults that took. Unpinned, glibc hands the memory back to the kernel
# after each round and faults it in again: about 51k faults against 2.5k.
_CHURN = """
import resource, numpy as np
from delaycast.cli import pin_malloc_thresholds
assert pin_malloc_thresholds()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    arrays = [np.ones(1 << 17) for _ in range(10)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMallocPin:
    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt")
    def test_freed_memory_is_reused_not_faulted_in_again(self):
        env = dict(os.environ, PYTHONPATH=str(Path(delaycast.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", _CHURN], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        assert int(done.stdout) < 10_000

    def test_main_pins_once_per_process(self, monkeypatch, tmp_path):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli.pin_malloc_thresholds.cache_clear()
        try:
            for _ in range(2):
                assert run(["synth", "--count", 20, "--out", tmp_path / "f.csv"]) == 0
        finally:
            cli.pin_malloc_thresholds.cache_clear()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_ then M_TRIM_THRESHOLD

    def test_missing_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        cli.pin_malloc_thresholds.cache_clear()
        try:
            assert cli.pin_malloc_thresholds() is False
        finally:
            cli.pin_malloc_thresholds.cache_clear()


DRIVER = Path(__file__).resolve().parents[1] / "scripts" / "run_full_pipeline.py"


class TestDriver:
    def test_data_run_prints_reference_comparison_from_its_artifacts(
            self, tmp_path, monkeypatch, capsys):
        flights = tmp_path / "flights.csv"
        assert run(["synth", "--count", 2000, "--seed", 3, "--cancelled-rate", 0.03,
                    "--missing-rate", 0.3, "--mismatch-rate", 0.01,
                    "--outlier-rate", 0.012, "--out", flights]) == 0

        def drive(work, *models):
            monkeypatch.setattr(sys, "argv", [str(DRIVER), "--workdir", str(work),
                                              "--data", str(flights),
                                              "--models", *models])
            capsys.readouterr()
            runpy.run_path(str(DRIVER), run_name="__main__")
            return capsys.readouterr().out

        work = tmp_path / "ols"
        out = drive(work, "ols")
        manifests = ["pruned.csv", "analysis.txt", "ols.bin", "ols.report.json",
                     "ranked.json", "ols.report.json.report"]
        commands = [json.loads((work / f"{m}.manifest.json").read_text())["command"]
                    for m in manifests]
        assert commands == ["preprocess", "analyze", "train", "evaluate", "report",
                            "report"]
        assert (work / "ols.bin").exists() and (work / "analysis.txt").exists()

        prune = json.loads((work / "prune_report.json").read_text())
        for stage, n in prune["removed"].items():
            assert f"  {stage:22s} {n:9d} removed  " in out
        after = prune["stats_after_outliers"]
        for field in ("mean", "std", "minimum", "maximum"):
            assert f"  {field:8s} {after[field]:8.3f}  reference " in out
        correlations = json.loads(
            (work / "analysis.txt.manifest.json").read_text())["correlations"]
        lines = [line for line in out.splitlines()
                 if "reference" in line and line.split()[0] in correlations]
        assert len(lines) == 6
        for line in lines:
            attribute, measured, word, _ = line.split()
            assert (measured, word) == (f"{correlations[attribute]:.4f}", "reference")
        (summary,) = json.loads((work / "ols.report.json").read_text())["models"]
        assert f"  ols      MSE {summary['mse']:10.3f}  MAE {summary['mae']:7.3f}" in out

        work = tmp_path / "none"
        out = drive(work)
        assert (work / "analysis.txt.manifest.json").exists()
        assert not list(work.glob("*.bin")) and not (work / "ranked.json").exists()
        assert "model scores" not in out and "CRS_DEP_TIME" in out
