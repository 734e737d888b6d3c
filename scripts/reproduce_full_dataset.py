"""Check the pipeline against the reference results on the real dataset.

Point --data at the 32-column flight-records CSV (2019-2023 vintage). The
script reruns the pruning pipeline and prints measured removal fractions,
post-filter delay statistics, and continuous-attribute correlations next
to the frozen reference values. With --train it also fits the requested
model kinds on the pruned table and prints their test scores beside the
reference totals; expect that part to take a while at full scale.

    python3 scripts/reproduce_full_dataset.py --data flights.csv
    python3 scripts/reproduce_full_dataset.py --data flights.csv --train --epochs 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from delaycast.cli import pin_malloc_thresholds  # noqa: E402
from delaycast.evalreport import evaluate, render_components  # noqa: E402
from delaycast.features import (  # noqa: E402
    build_table,
    chronological_split,
    fit_codebook,
)
from delaycast.preprocess import run_pipeline  # noqa: E402
from delaycast.regressors import FitOptions, train_model  # noqa: E402
from delaycast.schema import read_csv  # noqa: E402
from delaycast.stats import correlation_table, screening_columns  # noqa: E402

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


def section(title: str) -> None:
    print(f"\n{title}\n{'-' * len(title)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="flight records CSV")
    parser.add_argument("--train", action="store_true",
                        help="also fit models on the pruned table (slow)")
    parser.add_argument("--models", nargs="+",
                        default=["mlp", "lstm", "bilstm", "hybrid"])
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pin_malloc_thresholds()
    started = time.time()
    flights, diagnostics = read_csv(args.data)
    print(f"read {len(flights)} records in {time.time() - started:.0f}s "
          f"({len(diagnostics)} skipped cells/rows)")
    kept, report = run_pipeline(flights)

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
        print(f"  {field:8s} {float(getattr(after, field)):8.3f}  reference {want:8.3f}")

    section("continuous-attribute correlations (measured vs reference)")
    _, columns, target = screening_columns(kept)
    for row in correlation_table(columns, target):
        print(f"  {row.attribute:18s} {row.r:8.4f}  "
              f"reference {REFERENCE_CORRELATION[row.attribute]:8.4f}")

    if not args.train:
        print("\npass --train to also fit models and compare their scores")
        return

    section("model scores (measured vs reference; not expected to match)")
    codebook = fit_codebook(kept)
    table = build_table(kept, codebook, target_mode="components")
    train_part, test_part = chronological_split(table)
    component_rows = {}
    for kind in args.models:
        window = 1 if kind == "mlp" else args.window
        t0 = time.time()
        model, _ = train_model(
            train_part, kind,
            FitOptions(seed=args.seed, window=window, epochs=args.epochs,
                       batch_size=args.batch))
        summary, rows = evaluate(model, test_part, name=kind)
        component_rows[kind] = rows
        ref = REFERENCE_TOTALS.get(kind)
        note = (f"  reference {ref[0]:8.3f} / {ref[1]:6.3f}" if ref else "")
        print(f"  {kind:8s} MSE {summary.mse:10.3f}  MAE {summary.mae:7.3f}"
              f"{note}  ({time.time() - t0:.0f}s)")

    show = "lstm" if "lstm" in component_rows else args.models[0]
    section(f"{show} per-component rows (measured)")
    print(render_components(component_rows[show]))
    section("reference per-component rows")
    for name, (true_mean, pred_mean, mae) in REFERENCE_COMPONENTS.items():
        print(f"  {name:14s} {true_mean:7.3f} {pred_mean:7.3f} {mae:7.3f}")


if __name__ == "__main__":
    main()
