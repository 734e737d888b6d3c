"""Benchmark workloads: the synthetic input each one generates and the CLI chain it runs.

Sizes are scaled so that one run (repeated set-ups and chains) fits in about
60 s on a 2-core machine; README.md says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

# Label of the synthetic generator -> prune stage that must remove those rows.
STAGE_OF_LABEL = {"cancelled": "cancelled_or_diverted",
                  "missing": "missing_components",
                  "mismatch": "sum_mismatch",
                  "outlier": "outlier"}

README_RATES = (0.03, 0.3, 0.01, 0.012)
# Real-export shape: most rows lack the delay-cause group and are dropped.
INGEST_RATES = (0.03, 0.79, 0.01, 0.012)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    rates: tuple          # cancelled, missing, mismatch, outlier
    analyze: bool
    models: tuple         # (kind, {train flag: value}) in chain order
    # kind -> typical held-out MSE over the naive predictor's (the training
    # split's mean target) on the same split: the median over seeds 1-10 when
    # this benchmark was added
    skill: dict


WORKLOADS = {w.name: w for w in (
    Workload("ingest", 40_000, INGEST_RATES, analyze=True,
             models=(("ols", {}),), skill={"ols": 0.9551}),
    # neural kinds set patience >= epochs, so every run trains the full budget
    Workload("models", 5_000, README_RATES, analyze=False,
             models=(("forest", {"trees": 4}),
                     ("gbt", {"rounds": 20}),
                     ("mlp", {"epochs": 3, "batch": 32, "patience": 3}),
                     ("lstm", {"window": 4, "epochs": 6, "batch": 128,
                               "patience": 6}),
                     ("hybrid", {"window": 4, "epochs": 4, "batch": 128,
                                 "patience": 4})),
             skill={"forest": 1.1907, "gbt": 1.0217, "mlp": 0.9780,
                    "lstm": 1.0050, "hybrid": 1.0311}),
)}

INPUT_NAME = "flights.csv"
LABELS_NAME = "labels.csv"
PRUNED_NAME = "pruned.csv"
PRUNE_REPORT_NAME = "prune.json"
PAUSE = "@pause"        # chain.py's line: between steps, waiting to go on


def synth_argv(workload: Workload, seed: int, out: str, labels: str) -> list:
    cancelled, missing, mismatch, outlier = workload.rates
    return ["synth", "--count", str(workload.rows), "--seed", str(seed),
            "--cancelled-rate", str(cancelled), "--missing-rate", str(missing),
            "--mismatch-rate", str(mismatch), "--outlier-rate", str(outlier),
            "--out", out, "--labels", labels]


def model_file(kind: str) -> str:
    return f"{kind}.bin"


def bundle_file(kind: str) -> str:
    return f"{kind}.eval.json"


def chain_argvs(workload: Workload, seed: int, input_path: str) -> list:
    """(step label, argv) for the timed chain; outputs land in the cwd."""
    steps = [("preprocess", ["preprocess", "--in", input_path,
                             "--out", PRUNED_NAME,
                             "--report", PRUNE_REPORT_NAME])]
    if workload.analyze:
        steps.append(("analyze", ["analyze", "--in", PRUNED_NAME,
                                  "--out", "analyze.txt"]))
    for kind, flags in workload.models:
        train = ["train", "--in", PRUNED_NAME, "--model", kind,
                 "--seed", str(seed), "--out", model_file(kind)]
        for flag, value in flags.items():
            train += [f"--{flag}", str(value)]
        steps.append((f"train.{kind}", train))
        steps.append((f"evaluate.{kind}",
                      ["evaluate", "--model-file", model_file(kind),
                       "--in", PRUNED_NAME, "--report-out", bundle_file(kind)]))
    steps.append(("report", ["report", "--summaries",
                             *(bundle_file(k) for k, _ in workload.models),
                             "--out", "report.txt", "--chart-out", "chart.csv"]))
    return steps
