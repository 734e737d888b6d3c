"""Command-line pipeline: synthesize, prune, analyze, train, evaluate, report.

One subcommand per stage; the full chain is
    synth -> preprocess -> train -> evaluate -> report
and every command writes a JSON run manifest recording the resolved
configuration, seeds, fixed design constants, paths, and wall time. Manifests
sit beside the primary output (or beside the input, name-qualified by the
command, for commands that print to stdout); they carry wall time, so they
are the one output exempt from byte-level reproducibility. Every manifest
also records `peak_rss_mb`, this process's peak resident memory so far, and
`minor_faults`, the minor page faults the command took (both from
`resource.getrusage`). The preprocess manifest adds `rows_in`, the count of
skipped-cell `diagnostics`, `rows_out` after each prune stage, and
`timings`, the wall seconds spent reading, pruning and writing (`read_s`,
`prune_s`, `write_s`). The synth manifest adds `rows_out`, the
`label_counts`, and the planted IQR fences (`iqr_lower`, `iqr_upper`) among
its decisions. The analyze manifest adds `rows_in`, `rows_usable` (the rows
that carry every screened attribute) and `correlations`, each attribute's
Pearson r as the table prints it. The train manifest adds `rows_train`,
`rows_held_out` and `timings` (`read_s` for the CSV, `fit_s` for the table
build, split and fit, `save_s`); the evaluate manifest adds `rows_scored`
and `timings` (`read_s` for the model file and CSV, `score_s` for the table
build and scoring). Train and evaluate both split chronologically at
`DEFAULT_TRAIN_FRACTION`, so evaluate's test split is the rows train held out.

Flag resolution order: command line, then --config JSON (keys are the long
flag names; dashes or underscores both work), then DELAYCAST_SEED for seeds,
then built-in defaults. A config value of the wrong type (a bool, a fraction
for an integer flag, a non-string for a text flag) is an error. Errors exit
nonzero with a single "error: ..." line.

`main` first pins glibc's malloc thresholds (`pin_malloc_thresholds`), once
per process, so that memory freed between tree levels and epochs is reused
instead of being handed back to the kernel and faulted in again.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .container import ModelFileError
from .evalreport import (
    _aligned,
    compare,
    evaluate,
    export_chart_data,
    read_bundle,
    render_components,
    render_totals,
    report_bundle,
    totals_csv,
)
from .features import (
    DEFAULT_TRAIN_FRACTION,
    LabelCodebook,
    build_table,
    chronological_split,
    fit_codebook,
)
from .modelfile import load_model, save_model
from .neural import TrainingError
from .preprocess import (
    DEFAULT_SUM_TOLERANCE,
    IQR_MULTIPLIER,
    STAGE_NAMES,
    run_pipeline,
)
from .regressors import MODEL_KINDS, FitOptions, train_model
from .schema import read_csv, write_csv
from .stats import (
    CONTINUOUS_ATTRIBUTES,
    DEFAULT_REDUNDANCY_THRESHOLD,
    correlation_table,
    redundancy_test,
    screening_columns,
)
from .synth import LABELS, SynthConfig, generate, write_labels

_REDUNDANCY_PAIRS = (("AIRLINE", "AIRLINE_DOT", "airline", "airline_dot"),
                     ("AIRLINE", "AIRLINE_CODE", "airline", "airline_code"),
                     ("AIRLINE", "DOT_CODE", "airline", "dot_code"),
                     ("ORIGIN", "ORIGIN_CITY", "origin", "origin_city"),
                     ("DEST", "DEST_CITY", "dest", "dest_city"))


# --- flag resolution ---------------------------------------------------------------


class Flags:
    """Command line > config file > default, with the outcome recorded."""

    def __init__(self, args):
        self._args = vars(args)
        self._config = self._load_config(self._args.get("config"))
        self.resolved = {}

    @staticmethod
    def _load_config(path):
        if path is None:
            return {}
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object of flag values")
        return data

    def get(self, name, default=None, required=False, cast=None):
        key = name.replace("-", "_")
        value = self._args.get(key)
        if value is None:
            value = self._config.get(name, self._config.get(key))
        if value is None:
            value = default
        if value is not None and cast is not None:
            value = _cast(name, value, cast)
        if required and value is None:
            raise ValueError(f"missing required flag --{name}")
        self.resolved[name] = value
        return value

    def seed(self):
        value = self.get("seed", cast=int)
        if value is None:
            raw = os.environ.get("DELAYCAST_SEED")
            if raw is not None:
                try:
                    value = int(raw)
                except ValueError:
                    raise ValueError(
                        f"DELAYCAST_SEED must be an integer, got {raw!r}") from None
            else:
                value = 0
            self.resolved["seed"] = value
        return value


def _cast(name, value, cast):
    """cast(value), refusing a config value argparse would refuse on the command line.

    A config file can hold any JSON value. A bool, a fractional number for an
    int flag, or a non-string for a text flag is an error, not a coercion.
    """
    refused = (isinstance(value, bool)
               or (cast is int and isinstance(value, float) and not value.is_integer())
               or (cast is str and not isinstance(value, str)))
    try:
        if not refused:
            return cast(value)
    except (TypeError, ValueError):
        pass
    kind = {int: "an integer", float: "a number", str: "a string"}[cast]
    raise ValueError(f"--{name} must be {kind}, got {value!r}")


def _problems(checks) -> None:
    """Collect every failed flag constraint into one error line."""
    bad = [msg for ok, msg in checks if not ok]
    if bad:
        raise ValueError("; ".join(bad))


def _read_flights(path):
    """(flights, diagnostics) of a CSV that must hold at least one usable row."""
    flights, diagnostics = read_csv(path)
    if diagnostics:
        print(f"note: skipped {len(diagnostics)} malformed cells/rows in {path}",
              file=sys.stderr)
    if not len(flights):
        raise ValueError(f"no usable records in {path}")
    return flights, diagnostics


# mallopt(3) parameters and the values glibc's dynamic rule reaches after one
# large free: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and trim = 2 x mmap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


@functools.cache
def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds for this process; True if both took.

    glibc starts with low thresholds and raises them only after it sees large
    frees, so until then each freed temporary goes back to the kernel and the
    next allocation faults it in again. Both are set because pinning either
    one turns off the dynamic adjustment of the other. Runs once per process
    (later calls return the first result) and does nothing where the C
    library has no `mallopt`.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_pinned = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_pinned = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_pinned and trim_pinned)


def _start() -> tuple:
    """A command's starting wall clock and minor-fault count, for its manifest."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _resources(faults_at_start: int) -> dict:
    """This process's peak RSS so far, and the minor faults since the count given."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt - faults_at_start}


@contextlib.contextmanager
def _timed(timings: dict, name: str):
    """Record the wall seconds of the with-block as timings[name]."""
    started = time.perf_counter()
    yield
    timings[name] = round(time.perf_counter() - started, 6)


def _write_manifest(command, anchor, *, config, seeds, decisions, inputs,
                    outputs, started, qualify=False, **measured):
    """Write the run manifest; `measured` adds top-level fields (counts, timings).

    `started` is the command's `_start()`; every manifest records the wall
    time since then and `_resources` from it.
    """
    name = f"{anchor}.{command}.manifest.json" if qualify \
        else f"{anchor}.manifest.json"
    clock, faults = started
    manifest = {"command": command, "config": config, "seeds": seeds,
                "decisions": decisions,
                "inputs": [str(p) for p in inputs],
                "outputs": [str(p) for p in outputs],
                "wall_time_s": round(time.perf_counter() - clock, 6),
                **_resources(faults), **measured}
    Path(name).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return name


# --- subcommands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    started = _start()
    flags = Flags(args)
    out = flags.get("out", required=True, cast=str)
    labels_path = flags.get("labels", default=f"{out}.labels.csv", cast=str)
    config = SynthConfig(
        count=flags.get("count", 1000, cast=int),
        seed=flags.seed(),
        cancelled_rate=flags.get("cancelled-rate", 0.0, cast=float),
        missing_rate=flags.get("missing-rate", 0.0, cast=float),
        mismatch_rate=flags.get("mismatch-rate", 0.0, cast=float),
        outlier_rate=flags.get("outlier-rate", 0.0, cast=float),
        flights_per_day=flags.get("flights-per-day", 8, cast=int),
        airlines=flags.get("airlines", 6, cast=int),
        airports=flags.get("airports", 10, cast=int),
    )
    result = generate(config)
    write_csv(result.flights, out)
    write_labels(result.labels, labels_path)
    _write_manifest("synth", out, config=flags.resolved,
                    seeds={"seed": config.seed},
                    decisions={"iqr_multiplier": IQR_MULTIPLIER,
                               "zero_delay_rate": config.zero_delay_rate,
                               "delay_cap": config.delay_cap,
                               "iqr_lower": result.iqr_lower,
                               "iqr_upper": result.iqr_upper},
                    inputs=[], outputs=[out, labels_path], started=started,
                    rows_out=len(result.flights),
                    label_counts={label: result.labels.count(label) for label in LABELS})
    print(f"wrote {len(result.flights)} rows to {out}; labels to {labels_path}")
    return 0


def cmd_preprocess(args) -> int:
    started = _start()
    flags = Flags(args)
    in_path = flags.get("in", required=True, cast=str)
    out = flags.get("out", required=True, cast=str)
    report_path = flags.get("report", default=f"{out}.report.json", cast=str)
    tolerance = flags.get("sum-tolerance", DEFAULT_SUM_TOLERANCE, cast=float)
    timings = {}
    with _timed(timings, "read_s"):
        flights, diagnostics = _read_flights(in_path)
    with _timed(timings, "prune_s"):
        retained, report = run_pipeline(flights, sum_tolerance=tolerance)
    with _timed(timings, "write_s"):
        write_csv(retained, out)
    Path(report_path).write_text(
        json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    rows_out, left = {}, report.input_count
    for stage in STAGE_NAMES:
        left -= report.removed[stage]
        rows_out[stage] = left
    _write_manifest("preprocess", out, config=flags.resolved, seeds={},
                    decisions={"sum_tolerance": tolerance,
                               "iqr_multiplier": IQR_MULTIPLIER,
                               "stage_order": list(STAGE_NAMES)},
                    inputs=[in_path], outputs=[out, report_path],
                    started=started, rows_in=report.input_count,
                    diagnostics=len(diagnostics), rows_out=rows_out,
                    timings=timings)
    sys.stdout.write(report.to_text())
    return 0


def cmd_analyze(args) -> int:
    started = _start()
    flags = Flags(args)
    in_path = flags.get("in", required=True, cast=str)
    out = flags.get("out", cast=str)
    threshold = flags.get("threshold", DEFAULT_REDUNDANCY_THRESHOLD, cast=float)
    flights, _ = _read_flights(in_path)

    usable, columns, target = screening_columns(flights)
    n_usable = target.size
    if not n_usable:
        raise ValueError("no rows carry all continuous attributes and ARR_DELAY")

    corr = correlation_table(columns, target)
    lines = [_aligned(("Attribute", "Pearson's Correlation"),
                      [(row.attribute, f"{row.r:.4f}") for row in corr])]

    red_rows = []
    for kept, cand, kept_field, cand_field in _REDUNDANCY_PAIRS:
        kept_vals = getattr(flights, kept_field)[usable]
        cand_vals = getattr(flights, cand_field)[usable]
        if (cand_vals == "").all():
            red_rows.append((f"{kept} vs {cand}", "-", "-", "-", "no data"))
            continue
        kept_codes = np.unique(kept_vals, return_inverse=True)[1]
        cand_codes = np.unique(cand_vals, return_inverse=True)[1]
        res = redundancy_test(target, kept_codes, cand_codes,
                              kept_name=kept, candidate_name=cand,
                              threshold=threshold)
        verdict = "redundant" if res.redundant else "distinct"
        red_rows.append((f"{kept} vs {cand}", f"{res.h:.3f}", str(res.dof),
                         f"{res.p_value:.4f}", verdict))
    lines.append("\nCategorical redundancy (stratified Kruskal-Wallis, "
                 f"p > {threshold:g} means redundant)\n")
    lines.append(_aligned(("Pair", "H", "dof", "p", "verdict"), red_rows))
    if n_usable != len(flights):
        lines.append(f"\nanalyzed {n_usable} of {len(flights)} rows "
                     "(others missing needed values)\n")
    text = "".join(lines)

    sys.stdout.write(text)
    outputs = []
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        outputs.append(out)
    _write_manifest("analyze", out if out is not None else in_path,
                    config=flags.resolved, seeds={},
                    decisions={"redundancy_threshold": threshold,
                               "attributes": list(CONTINUOUS_ATTRIBUTES)},
                    inputs=[in_path], outputs=outputs, started=started,
                    qualify=out is None, rows_in=len(flights),
                    rows_usable=n_usable,
                    correlations={row.attribute: row.r for row in corr})
    return 0


def cmd_train(args) -> int:
    started = _start()
    flags = Flags(args)
    in_path = flags.get("in", required=True, cast=str)
    out = flags.get("out", required=True, cast=str)
    model_kind = flags.get("model", required=True, cast=str)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model {model_kind!r}; valid kinds: "
                         f"{', '.join(MODEL_KINDS)}")
    targets = flags.get("targets", "components", cast=str)
    if targets not in ("components", "total"):
        raise ValueError(f"unknown targets {targets!r}; valid: components, total")
    window = flags.get("window", 1, cast=int)
    seed = flags.seed()
    epochs = flags.get("epochs", 50, cast=int)
    batch = flags.get("batch", cast=int)
    trees = flags.get("trees", 100, cast=int)
    rounds = flags.get("rounds", 100, cast=int)
    depth = flags.get("depth", cast=int)
    min_leaf = flags.get("min-leaf", cast=int)
    rate = flags.get("learning-rate", cast=float)
    patience = flags.get("patience", 5, cast=int)
    clip = flags.get("clip", cast=float)
    checkpoint = flags.get("checkpoint", cast=str)
    _problems([
        (window >= 1, f"window must be >= 1, got {window}"),
        (epochs >= 1, f"epochs must be >= 1, got {epochs}"),
        (batch is None or batch >= 1, f"batch must be >= 1, got {batch}"),
        (trees >= 1, f"trees must be >= 1, got {trees}"),
        (rounds >= 1, f"rounds must be >= 1, got {rounds}"),
        (patience >= 1, f"patience must be >= 1, got {patience}"),
    ])

    timings = {}
    with _timed(timings, "read_s"):
        flights, _ = _read_flights(in_path)
    options = FitOptions(seed=seed, window=window, max_depth=depth,
                         min_samples_leaf=min_leaf, n_estimators=trees,
                         rounds=rounds, learning_rate=rate, epochs=epochs,
                         batch_size=batch, patience=patience,
                         clip_max_norm=clip, checkpoint_path=checkpoint)
    with _timed(timings, "fit_s"):
        codebook = fit_codebook(flights)
        table = build_table(flights, codebook, targets)
        train_t, test_t = chronological_split(table, DEFAULT_TRAIN_FRACTION)
        trained, history = train_model(train_t, model_kind, options)
    with _timed(timings, "save_s"):
        save_model(trained, out)
    _write_manifest("train", out, config=flags.resolved,
                    seeds={"seed": seed},
                    decisions={"train_fraction": DEFAULT_TRAIN_FRACTION,
                               "split": "chronological",
                               "settings": trained.settings},
                    inputs=[in_path], outputs=[out], started=started,
                    rows_train=len(train_t), rows_held_out=len(test_t),
                    timings=timings)
    print(f"trained {model_kind} on {len(train_t)} rows "
          f"({len(test_t)} held out); saved {out}")
    if history:
        best = min(h.val_mse for h in history)
        print(f"epochs run: {len(history)}; best validation mse: {best:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    started = _start()
    flags = Flags(args)
    model_path = flags.get("model-file", required=True, cast=str)
    in_path = flags.get("in", required=True, cast=str)
    report_out = flags.get("report-out", default=f"{model_path}.report.json",
                           cast=str)
    part = flags.get("split", "test", cast=str)
    if part not in ("train", "test", "all"):
        raise ValueError(f"unknown split {part!r}; valid: train, test, all")

    timings = {}
    with _timed(timings, "read_s"):
        trained = load_model(model_path)
        flights, _ = _read_flights(in_path)
    with _timed(timings, "score_s"):
        codebook = LabelCodebook(columns=dict(trained.codebook_columns))
        table = build_table(flights, codebook, trained.target_mode)
        if part != "all":
            train_t, test_t = chronological_split(table, DEFAULT_TRAIN_FRACTION)
            table = train_t if part == "train" else test_t
        summary, rows = evaluate(trained, table, name=trained.kind)
    bundle = report_bundle([summary],
                           {summary.name: rows} if rows else None)
    Path(report_out).write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest("evaluate", report_out, config=flags.resolved, seeds={},
                    decisions={"train_fraction": DEFAULT_TRAIN_FRACTION,
                               "split": part},
                    inputs=[model_path, in_path], outputs=[report_out],
                    started=started,
                    rows_scored=summary.manifest["rows_scored"],
                    timings=timings)
    sys.stdout.write(render_totals([summary]))
    if rows:
        sys.stdout.write("\n" + render_components(rows))
    return 0


def cmd_report(args) -> int:
    started = _start()
    flags = Flags(args)
    paths = flags.get("summaries", required=True)
    if isinstance(paths, str):
        paths = [paths]
    if not (isinstance(paths, list) and paths
            and all(isinstance(p, str) for p in paths)):
        raise ValueError(f"--summaries must be a path or a list of paths, got {paths!r}")
    fmt = flags.get("format", "text", cast=str)
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; valid: text, csv, json")
    out = flags.get("out", cast=str)
    chart_out = flags.get("chart-out", cast=str)

    summaries, components = [], {}
    for path in paths:
        got_summaries, got_components = read_bundle(path)
        summaries.extend(got_summaries)
        components.update(got_components)
    if not summaries:
        raise ValueError("summary files hold no models to report")

    ranked = compare(summaries)
    if fmt == "text":
        parts = [render_totals(ranked)]
        for name in (s.name for s in ranked):
            if name in components:
                parts.append(f"\n{name} per-component results\n")
                parts.append(render_components(components[name]))
        text = "".join(parts)
    elif fmt == "csv":
        text = totals_csv(ranked)
    else:
        text = json.dumps(report_bundle(ranked, components or None),
                          indent=2, sort_keys=True) + "\n"

    outputs = []
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        outputs.append(out)
    else:
        sys.stdout.write(text)
    if chart_out is not None:
        export_chart_data(ranked, chart_out)
        outputs.append(chart_out)
    anchor = out if out is not None else (
        chart_out if chart_out is not None else paths[0])
    _write_manifest("report", anchor, config=flags.resolved, seeds={},
                    decisions={"rank_keys": ["mse", "mae", "name"]},
                    inputs=list(paths), outputs=outputs, started=started,
                    qualify=out is None and chart_out is None)
    return 0


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaycast",
        description="Flight-delay component modeling pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, flags):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file supplying any flag")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    num = {"type": int}
    dec = {"type": float}
    add("synth", cmd_synth, "generate labeled synthetic flight records", [
        ("--count", num), ("--seed", num), ("--out", {}), ("--labels", {}),
        ("--cancelled-rate", dec), ("--missing-rate", dec),
        ("--mismatch-rate", dec), ("--outlier-rate", dec),
        ("--flights-per-day", num), ("--airlines", num), ("--airports", num)])
    add("preprocess", cmd_preprocess, "run the four-stage pruning pipeline", [
        ("--in", {}), ("--out", {}), ("--report", {}), ("--sum-tolerance", dec)])
    add("analyze", cmd_analyze, "correlation and redundancy screening", [
        ("--in", {}), ("--out", {}), ("--threshold", dec)])
    add("train", cmd_train, "fit one model kind on pruned records", [
        ("--in", {}), ("--out", {}), ("--model", {}), ("--targets", {}),
        ("--window", num), ("--seed", num), ("--epochs", num), ("--batch", num),
        ("--trees", num), ("--rounds", num),
        ("--depth", num), ("--min-leaf", num), ("--learning-rate", dec),
        ("--patience", num), ("--clip", dec), ("--checkpoint", {})])
    add("evaluate", cmd_evaluate, "score a saved model on held-out rows", [
        ("--model-file", {}), ("--in", {}), ("--report-out", {}),
        ("--split", {})])
    add("report", cmd_report, "merge and rank evaluation reports", [
        ("--summaries", {"nargs": "+"}), ("--format", {}), ("--out", {}),
        ("--chart-out", {})])
    return parser


def main(argv=None) -> int:
    pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, ModelFileError, TrainingError) as exc:
        detail = str(exc) or exc.__class__.__name__
        print("error: " + " ".join(detail.split()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
