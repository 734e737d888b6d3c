"""Drive the whole command chain on synthetic records, end to end.

Produces a working directory with every artifact the tools emit: generated
flights, prune report, analysis tables, one model file per requested kind,
per-model evaluation reports, and the merged ranking with chart data.

    python3 scripts/run_full_pipeline.py --workdir runs/demo --count 2000
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from delaycast.cli import main as cli  # noqa: E402
from delaycast.regressors import MODEL_KINDS  # noqa: E402


def run(argv) -> None:
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in argv)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="runs/demo")
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", nargs="+", default=list(MODEL_KINDS))
    parser.add_argument("--window", type=int, default=4,
                        help="history length for the sequence kinds")
    parser.add_argument("--epochs", type=int, default=12)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    flights = work / "flights.csv"
    pruned = work / "pruned.csv"

    run(["synth", "--count", args.count, "--seed", args.seed,
         "--cancelled-rate", "0.03", "--missing-rate", "0.3",
         "--mismatch-rate", "0.01", "--outlier-rate", "0.012",
         "--out", flights, "--labels", work / "labels.csv"])
    run(["preprocess", "--in", flights, "--out", pruned,
         "--report", work / "prune_report.json"])
    run(["analyze", "--in", pruned, "--out", work / "analysis.txt"])

    reports = []
    for kind in args.models:
        model_file = work / f"{kind}.bin"
        train = ["train", "--in", pruned, "--model", kind, "--seed", args.seed,
                 "--out", model_file]
        if kind in ("mlp", "lstm", "bilstm", "hybrid"):
            train += ["--epochs", args.epochs, "--batch", "128"]
        if kind in ("lstm", "bilstm", "hybrid"):
            train += ["--window", args.window]
        run(train)
        report = work / f"{kind}.report.json"
        run(["evaluate", "--model-file", model_file, "--in", pruned,
             "--report-out", report])
        reports.append(report)

    run(["report", "--summaries", *reports, "--format", "json",
         "--out", work / "ranked.json", "--chart-out", work / "chart.csv"])
    run(["report", "--summaries", *reports, "--format", "text"])
    print(f"\nartifacts in {work}/")


if __name__ == "__main__":
    main()
