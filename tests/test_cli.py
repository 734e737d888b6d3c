"""End-to-end subcommand behavior: chains, flag resolution, error paths."""

import ctypes
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import delaycast
from delaycast import cli
from delaycast.cli import main
from delaycast.modelfile import load_model
from delaycast.schema import Flights, write_csv
from delaycast.synth import LABELS, SynthConfig, generate, read_labels

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
        commands = []
        for path in expected:
            manifest = json.loads((tmp_path / path).read_text())
            commands.append(manifest["command"])
            assert manifest["wall_time_s"] >= 0.0
            assert isinstance(manifest["config"], dict)
            assert manifest["peak_rss_mb"] > 0
            assert isinstance(manifest["minor_faults"], int)
            assert manifest["minor_faults"] >= 0
        assert commands == ["synth", "preprocess", "analyze", "train", "evaluate",
                            "report"]

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
