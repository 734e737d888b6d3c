"""One repetition of a workload's CLI chain, run in this process through delaycast.cli.main.

run.py starts it with the checkout's src/ on PYTHONPATH and BLAS pinned to
one thread:

    python3 perfbench/chain.py --workload models --seed 3 \
        --input SETUP/flights.csv --labels SETUP/labels.csv [--spans-out FILE]

Before each step and after the last it prints a pause line and reads a line
from stdin, so that run.py can calibrate the host while no step runs; give it
stdin from /dev/null to run it on its own.

Every artifact lands in the current directory. The last line of stdout is a
JSON object: per-step wall times and exit codes, the chain's wall time, this
process's peak RSS (taken before anything but the chain ran), model file
bytes, held-out MSE per model (and, with --reload-models 1, the naive
predictor's on the same split), the correctness checks and, when traced
(--spans-out), the per-layer metrics. The checks run after the timed chain.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import (
    LABELS_NAME,
    INPUT_NAME,
    PAUSE,
    PRUNE_REPORT_NAME,
    PRUNED_NAME,
    STAGE_OF_LABEL,
    WORKLOADS,
    bundle_file,
    chain_argvs,
    model_file,
    synth_argv,
)


def environment() -> dict:
    import numpy

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = getter()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def pause():
    """Tell run.py that no step is running and wait until it has calibrated."""
    print(PAUSE, flush=True)
    sys.stdin.readline()


def run_steps(steps, main, between=None):
    """Run (label, argv) steps in order; stop at the first nonzero exit.

    Calls between() before each step and after the last. Returns walls, exit
    codes, errors and start times, by step label; start times are
    time.monotonic(), which every process on the host shares.
    """
    walls, codes, errors, starts = {}, {}, {}, {}
    for label, argv in steps:
        if between is not None:
            between()
        err = io.StringIO()
        starts[label] = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        walls[label] = time.monotonic() - starts[label]
        codes[label] = code
        if code != 0:
            errors[label] = err.getvalue().strip()
            break
    if between is not None:
        between()
    return walls, codes, errors, starts


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    @contextlib.contextmanager
    def guard(self, name):
        """A check whose inputs cannot even be read fails instead of crashing the run."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is reported as a check
            self.add(name, False, f"{type(exc).__name__}: {exc}")


def planted_counts(labels_path) -> Counter:
    lines = Path(labels_path).read_text(encoding="utf-8").splitlines()
    return Counter(line.rsplit(",", 1)[1] for line in lines[1:] if line)


def check_outputs(workload, labels_path, checks: Checks, reload_models: bool):
    """Prune accounting against planted labels and, if asked, each model's reload MSE.

    Returns (removed per stage, held-out MSE per model kind from the bundles,
    and, with the reload, the naive predictor's MSE on each kind's test split:
    the training split's mean target predicted for every row).
    """
    removed, test_mse, naive_mse = {}, {}, {}
    with checks.guard("prune.report"):
        report = json.loads(Path(PRUNE_REPORT_NAME).read_text(encoding="utf-8"))
        removed = report["removed"]
        checks.add("prune.accounting",
                   report["input_count"] == report["retained_count"] + sum(removed.values()),
                   f"input {report['input_count']}, retained {report['retained_count']}, "
                   f"removed {sum(removed.values())}")
        planted = planted_counts(labels_path)
        for label, stage in STAGE_OF_LABEL.items():
            checks.add(f"prune.{stage}.planted", removed.get(stage) == planted[label],
                       f"removed {removed.get(stage)}, planted {planted[label]}")

    from delaycast.features import LabelCodebook, build_table, chronological_split
    from delaycast.modelfile import load_model
    from delaycast.regressors import predict_table
    from delaycast.schema import read_csv

    records = None
    for kind, _ in workload.models:
        name = f"model.{kind}.reload_mse"
        with checks.guard(name):
            bundle = json.loads(Path(bundle_file(kind)).read_text(encoding="utf-8"))
            reported = bundle["models"][0]["mse"]
            test_mse[kind] = reported
            if not reload_models:
                continue
            if records is None:
                records, _ = read_csv(PRUNED_NAME)
            trained = load_model(model_file(kind))
            codebook = LabelCodebook(columns=dict(trained.codebook_columns))
            train, test = chronological_split(build_table(records, codebook,
                                                          trained.target_mode))
            diff = predict_table(trained, test) - test.y[trained.window - 1:]
            mse = float((diff * diff).mean())
            naive = test.y - train.y.mean(axis=0)
            naive_mse[kind] = float((naive * naive).mean())
            checks.add(name, abs(mse - reported) <= 1e-9 * abs(reported),
                       f"recomputed {mse!r}, bundle {reported!r}")
    return removed, test_mse, naive_mse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--spans-out", help="trace the chain and write its spans here")
    parser.add_argument("--reload-models", type=int, choices=(0, 1), default=1,
                        help="reload every model and recompute its MSE (run.py "
                             "does it once a run; later repetitions are checked "
                             "byte for byte against the first)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from delaycast.cli import main as cli_main

    tracer = None
    if args.spans_out:
        from spans import Tracer

        tracer = Tracer(f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()

    steps = chain_argvs(workload, args.seed, args.input)
    walls, codes, errors, starts = run_steps(steps, cli_main, pause)
    chain_s = sum(walls.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    if tracer is not None:
        # traced set-up: the same synth run.py timed, now with its layers traced
        Path("traced_setup").mkdir(exist_ok=True)
        out = os.path.join("traced_setup", INPUT_NAME)
        setup_codes = run_steps([("synth", synth_argv(
            workload, args.seed, out, os.path.join("traced_setup", LABELS_NAME)))],
            cli_main)[1]
        with checks.guard("setup.traced_synth_identical"):
            checks.add("setup.traced_synth_identical",
                       setup_codes["synth"] == 0
                       and Path(out).read_bytes() == Path(args.input).read_bytes())
        tracer.uninstall()

    removed, test_mse, naive_mse = check_outputs(workload, args.labels, checks,
                                                bool(args.reload_models))
    result = {
        "steps": [label for label, _ in steps],
        "walls": walls, "codes": codes, "errors": errors, "starts": starts,
        "chain_s": chain_s, "peak_rss_mb": peak_rss_mb,
        "model_bytes": sum(Path(model_file(k)).stat().st_size
                           for k, _ in workload.models if Path(model_file(k)).exists()),
        "test_mse": test_mse, "naive_mse": naive_mse,
        "checks": checks.results, "env": environment(),
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, workload, removed, test_mse, chain_s)
        result["missing"] = tracer.missing
        Path(args.spans_out).write_text(json.dumps(tracer.to_json()) + "\n",
                                        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
