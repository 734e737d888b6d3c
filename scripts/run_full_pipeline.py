"""Drive the command chain end to end, on generated flights or a given CSV.

Every step runs through `delaycast.cli.main`, so each writes its manifest.
The working directory collects the prune report, analysis tables, one model
file and evaluation report per kind in --models (none stops after
`analyze`), and the merged ranking with chart data. With --data PATH the
chain runs on that flight-records CSV (the 32-column 2019-2023 export) and
ends by printing the measured values, read back from the prune report, the
`analyze` manifest and the evaluation reports, beside the reference values.

    python3 scripts/run_full_pipeline.py --workdir runs/demo --count 2000
    python3 scripts/run_full_pipeline.py --data flights.csv --models mlp lstm --epochs 3
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from delaycast.cli import main as cli  # noqa: E402
from delaycast.evalreport import read_bundle, render_components  # noqa: E402
from delaycast.preprocess import DelayStats, PruneReport  # noqa: E402
from delaycast.regressors import MODEL_KINDS, NEURAL_KINDS, SEQUENCE_KINDS  # noqa: E402

REFERENCE_REMOVAL = {"cancelled_or_diverted": 2.87, "missing_components": 79.3,
                     "outlier": 8.248}
REFERENCE_AFTER_FILTER = {"mean": 47.828, "std": 32.869,
                          "minimum": 15.0, "maximum": 154.0}
REFERENCE_CORRELATION = {"CRS_DEP_TIME": 0.0704, "TAXI_OUT": 0.0541,
                         "CRS_ARR_TIME": 0.0500, "TAXI_IN": 0.0235,
                         "CRS_ELAPSED_TIME": -0.0122, "DISTANCE": -0.0228}
REFERENCE_TOTALS = {"lstm": (361.833, 10.022), "bilstm": (365.645, 10.296),
                    "hybrid": (367.868, 9.684), "mlp": (371.474, 10.340)}
REFERENCE_COMPONENTS = {"Carrier": (15.877, 16.288, 17.050),
                        "Weather": (1.978, 2.246, 3.979),
                        "Security": (0.130, 0.141, 0.270),
                        "NAS": (10.914, 11.512, 9.475),
                        "Late Aircraft": (19.374, 18.031, 19.338)}


def run(argv) -> None:
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in argv)}")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def section(title: str) -> None:
    print(f"\n{title}\n{'-' * len(title)}")


def print_reference(prune_path, analyze_manifest, reports) -> None:
    """Measured values from the run's artifacts, each beside its reference."""
    data = read_json(prune_path)
    for key in ("stats_before_outliers", "stats_after_outliers"):
        data[key] = DelayStats(**data[key])
    report = PruneReport(**data)

    section("removal fractions (measured vs reference)")
    for stage, n, pct_input, pct_entering in report.stage_rows():
        measured = pct_entering if stage == "outlier" else pct_input
        want = REFERENCE_REMOVAL.get(stage)
        note = f"  reference {want:6.3f}%" if want is not None else ""
        print(f"  {stage:22s} {n:9d} removed  {measured:6.3f}%{note}")
    print(f"  retained {report.retained_count} of {report.input_count}")

    section("arrival delay after the outlier filter (measured vs reference)")
    after = report.stats_after_outliers
    for field, want in REFERENCE_AFTER_FILTER.items():
        print(f"  {field:8s} {getattr(after, field):8.3f}  reference {want:8.3f}")

    section("continuous-attribute correlations (measured vs reference)")
    correlations = read_json(analyze_manifest)["correlations"]
    for attribute, want in REFERENCE_CORRELATION.items():
        print(f"  {attribute:18s} {correlations[attribute]:8.4f}  reference {want:8.4f}")

    if not reports:
        print("\nname kinds with --models to also fit models and compare their scores")
        return

    section("model scores (measured vs reference; not expected to match)")
    component_rows = {}
    for kind, path in reports.items():
        (summary,), components = read_bundle(path)
        component_rows[kind] = components[kind]
        ref = REFERENCE_TOTALS.get(kind)
        note = f"  reference {ref[0]:8.3f} / {ref[1]:6.3f}" if ref else ""
        print(f"  {kind:8s} MSE {summary.mse:10.3f}  MAE {summary.mae:7.3f}{note}")

    show = "lstm" if "lstm" in reports else next(iter(reports))
    section(f"{show} per-component rows (measured)")
    print(render_components(component_rows[show]))
    section("reference per-component rows")
    for name, (true_mean, pred_mean, mae) in REFERENCE_COMPONENTS.items():
        print(f"  {name:14s} {true_mean:7.3f} {pred_mean:7.3f} {mae:7.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="runs/demo")
    parser.add_argument("--data", help="flight-records CSV to run on in place of "
                                       "synth; prints the reference comparison")
    parser.add_argument("--count", type=int, default=2000,
                        help="generated flights (ignored with --data)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", nargs="*", default=list(MODEL_KINDS),
                        help="kinds to train and evaluate; none stops after analyze")
    parser.add_argument("--window", type=int, default=4,
                        help="history length for the sequence kinds")
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    pruned = work / "pruned.csv"
    prune_report = work / "prune_report.json"
    analysis = work / "analysis.txt"

    if args.data is None:
        flights = work / "flights.csv"
        run(["synth", "--count", args.count, "--seed", args.seed,
             "--cancelled-rate", "0.03", "--missing-rate", "0.3",
             "--mismatch-rate", "0.01", "--outlier-rate", "0.012",
             "--out", flights, "--labels", work / "labels.csv"])
    else:
        flights = args.data
    run(["preprocess", "--in", flights, "--out", pruned, "--report", prune_report])
    run(["analyze", "--in", pruned, "--out", analysis])

    reports = {}
    for kind in args.models:
        model_file = work / f"{kind}.bin"
        train = ["train", "--in", pruned, "--model", kind, "--seed", args.seed,
                 "--out", model_file]
        if kind in NEURAL_KINDS:
            train += ["--epochs", args.epochs, "--batch", "128"]
        if kind in SEQUENCE_KINDS:
            train += ["--window", args.window]
        run(train)
        reports[kind] = work / f"{kind}.report.json"
        run(["evaluate", "--model-file", model_file, "--in", pruned,
             "--report-out", reports[kind]])

    if reports:
        run(["report", "--summaries", *reports.values(), "--format", "json",
             "--out", work / "ranked.json", "--chart-out", work / "chart.csv"])
        run(["report", "--summaries", *reports.values(), "--format", "text"])
    if args.data is not None:
        print_reference(prune_report, f"{analysis}.manifest.json", reports)
    print(f"\nartifacts in {work}/")


if __name__ == "__main__":
    main()
