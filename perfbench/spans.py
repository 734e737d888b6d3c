"""Span tracing from outside the program, and the per-layer metrics derived from it.

The tracer replaces public functions by module attribute, at the name each
caller looks up (``delaycast.cli.read_csv``, not ``delaycast.schema.read_csv``),
with a wrapper that records one span per call: name, start, end, parent span,
and a few attributes read from arguments or results. A target a later
refactor removes is recorded as missing and its metrics read 0; it never
breaks a run. Counts come only from interfaces that survive the planned
refactors: file sizes and line counts, ``len()`` of results, call counts,
the prune report and the evaluation bundles.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from pathlib import Path

_PAGE = os.sysconf("SC_PAGE_SIZE")
MIB = float(1 << 20)


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _path(index):
    return lambda args, kwargs, result: {"path": str(args[index])}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


# (span name, module, attribute looked up by the caller, probe or None)
TARGETS = (
    ("cli.synth", "delaycast.cli", "cmd_synth", None),
    ("cli.preprocess", "delaycast.cli", "cmd_preprocess", None),
    ("cli.analyze", "delaycast.cli", "cmd_analyze", None),
    ("cli.train", "delaycast.cli", "cmd_train", None),
    ("cli.evaluate", "delaycast.cli", "cmd_evaluate", None),
    ("cli.report", "delaycast.cli", "cmd_report", None),
    ("synth.generate", "delaycast.cli", "generate", None),
    ("schema.read_csv", "delaycast.cli", "read_csv", _path(0)),
    ("schema.write_csv", "delaycast.cli", "write_csv", _path(1)),
    ("preprocess.run_pipeline", "delaycast.cli", "run_pipeline", None),
    ("preprocess.drop_cancelled_diverted", "delaycast.preprocess",
     "drop_cancelled_diverted", None),
    ("preprocess.drop_missing_components", "delaycast.preprocess",
     "drop_missing_components", None),
    ("preprocess.verify_component_sum", "delaycast.preprocess",
     "verify_component_sum", None),
    ("preprocess.filter_outliers", "delaycast.preprocess", "filter_outliers", None),
    ("features.fit_codebook", "delaycast.cli", "fit_codebook", None),
    ("features.build_table", "delaycast.cli", "build_table", _rows),
    ("stats.correlation_table", "delaycast.cli", "correlation_table", None),
    ("stats.redundancy_test", "delaycast.cli", "redundancy_test", None),
    ("regressors.train_model", "delaycast.cli", "train_model",
     lambda args, kwargs, result: {"kind": str(args[1])}),
    ("linear.fit", "delaycast.linear", "fit", None),
    ("trees.forest_fit", "delaycast.regressors", "forest_fit", None),
    ("trees.tree_fit", "delaycast.trees", "tree_fit", None),
    ("trees.gbt_fit", "delaycast.regressors", "gbt_fit", None),
    ("trees.tree_predict", "delaycast.trees", "tree_predict", None),
    ("trees.forest_predict", "delaycast.regressors", "forest_predict", _rows),
    ("trees.gbt_predict", "delaycast.regressors", "gbt_predict", _rows),
    ("numerics.Rng.integers", "delaycast.numerics", "Rng.integers", _rows),
    ("modelfile.save_model", "delaycast.cli", "save_model", None),
    ("modelfile.load_model", "delaycast.cli", "load_model", None),
    ("container.write_container", "delaycast.modelfile", "write_container", _path(0)),
    ("container.read_container", "delaycast.modelfile", "read_container", _path(0)),
    ("neural.train", "delaycast.regressors", "train", None),
    ("neural.lstm_cell_forward", "delaycast.neural.lstm", "lstm_cell_forward", None),
    ("neural.lstm_cell_backward", "delaycast.neural.lstm", "lstm_cell_backward", None),
    ("neural.Conv1d.forward", "delaycast.neural.layers", "Conv1d.forward", None),
    ("neural.Conv1d.backward", "delaycast.neural.layers", "Conv1d.backward", None),
    ("numerics.adam_step", "delaycast.neural.training", "adam_step", None),
    ("numerics.clip_global_norm", "delaycast.neural.training", "clip_global_norm", None),
    ("evalreport.evaluate", "delaycast.cli", "evaluate", None),
)

# RSS is sampled around these spans only: reading /proc costs microseconds.
_RSS_SPANS = frozenset({"schema.read_csv"})


class Tracer:
    """Spans kept in memory as [id, name, start, end, parent_id, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def install(self, targets=TARGETS) -> None:
        for name, module, attribute, probe in targets:
            *path, last = attribute.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attribute}")
                continue
            setattr(owner, last, self._wrap(name, original, probe))
            self._undo.append((owner, last, original))

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._undo):
            setattr(owner, last, original)
        self._undo.clear()

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sample_rss = name in _RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, attrs]
            spans.append(span)
            stack.append(span[0])
            if sample_rss:
                attrs["rss_before"] = rss_bytes()
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if sample_rss:
                attrs["rss_after"] = rss_bytes()
            if probe is not None:
                attrs.update(probe(args, kwargs, result))
            return result

        return traced

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "missing": self.missing,
                "fields": ["id", "name", "start", "end", "parent", "attrs"],
                "spans": self.spans}


# --- per-layer metrics ----------------------------------------------------------


def _group(spans):
    groups = {}
    for span in spans:
        groups.setdefault(span[1], []).append(span)
    return groups


def _durations(spans):
    return [s[3] - s[2] for s in spans]


def _median(values):
    return statistics.median(values) if values else 0.0


def self_times(spans) -> dict:
    """span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def _line_rows(path) -> int:
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def wrapper_cost(calls=20_000, rounds=5) -> float:
    """Seconds a traced call adds to a bare one: the median over rounds of a
    no-op timed wrapped and bare, alternately, in this process."""
    def noop():
        return None

    traced = Tracer("cost")._wrap("noop", noop, None)

    def timed(fn):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - started

    return max(statistics.median(timed(traced) - timed(noop) for _ in range(rounds)),
               0.0) / calls


def layer_metrics(tracer: Tracer, workload, removed: dict, test_mse: dict,
                  chain_s: float) -> dict:
    """Per-layer metric name -> value for one traced chain.

    Times use the unit in the name (s, us, ns); a layer the workload never
    calls reads 0. ``removed`` is the prune report's per-stage counts,
    ``test_mse`` the held-out MSE of each evaluate bundle by model kind and
    ``chain_s`` the traced chain's wall.
    """
    groups = _group(tracer.spans)
    by_id = {s[0]: s for s in tracer.spans}

    def spans(name):
        return groups.get(name, [])

    # the traced set-up's synth write follows the chain; it is not chain work
    groups["schema.write_csv"] = [s for s in spans("schema.write_csv")
                                  if _enclosing(s, by_id, "cli.synth") is None]

    def total(name):
        return sum(_durations(spans(name)))

    def median(name, scale=1.0):
        return _median(_durations(spans(name))) * scale

    def per(name, amount, scale):
        return total(name) / amount * scale if amount else 0.0

    rows_by_path = {}

    def file_rows(name):
        count = 0
        for s in spans(name):
            path = s[5]["path"]
            if path not in rows_by_path:
                rows_by_path[path] = _line_rows(path)
            count += rows_by_path[path]
        return count

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans(name))

    def file_bytes(name):
        return sum(Path(s[5]["path"]).stat().st_size for s in spans(name))

    reads = spans("schema.read_csv")
    kb_per_row = 0.0
    if reads:
        biggest = max(reads, key=lambda s: _line_rows(s[5]["path"]))
        rows = _line_rows(biggest[5]["path"])
        growth = biggest[5]["rss_after"] - biggest[5]["rss_before"]
        kb_per_row = growth / rows / 1024.0 if rows else 0.0

    rounds = dict(workload.models).get("gbt", {}).get("rounds", 0)
    out = {
        "schema.read_csv.us_per_row": per("schema.read_csv",
                                          file_rows("schema.read_csv"), 1e6),
        "schema.read_csv.kb_per_row": kb_per_row,
        "schema.write_csv.us_per_row": per("schema.write_csv",
                                           file_rows("schema.write_csv"), 1e6),
        "preprocess.run_pipeline.s": median("preprocess.run_pipeline"),
    }
    for stage in ("drop_cancelled_diverted", "drop_missing_components",
                  "verify_component_sum", "filter_outliers"):
        out[f"preprocess.{stage}.s"] = median(f"preprocess.{stage}")
    for stage, count in removed.items():
        out[f"preprocess.{stage}.removed"] = count
    out.update({
        "features.build_table.us_per_row": per(
            "features.build_table", attr_sum("features.build_table", "rows"), 1e6),
        "features.fit_codebook.s": median("features.fit_codebook"),
        "stats.correlation_table.s": median("stats.correlation_table"),
        "stats.redundancy_test.s": median("stats.redundancy_test"),
        "linear.fit.s": median("linear.fit"),
        "trees.tree_fit.s": median("trees.tree_fit"),
        "trees.gbt_fit.s_per_round": per("trees.gbt_fit",
                                         rounds * len(spans("trees.gbt_fit")), 1.0),
        "trees.tree_predict.calls": len(spans("trees.tree_predict")),
        "trees.forest_predict.us_per_row": per(
            "trees.forest_predict", attr_sum("trees.forest_predict", "rows"), 1e6),
        "trees.gbt_predict.us_per_row": per(
            "trees.gbt_predict", attr_sum("trees.gbt_predict", "rows"), 1e6),
        "numerics.Rng.integers.ns_per_draw": per(
            "numerics.Rng.integers", attr_sum("numerics.Rng.integers", "rows"), 1e9),
        "modelfile.save_model.s": median("modelfile.save_model"),
        "modelfile.load_model.s": median("modelfile.load_model"),
        "container.write_container.mb_per_s": _rate(
            file_bytes("container.write_container"), total("container.write_container")),
        "container.read_container.mb_per_s": _rate(
            file_bytes("container.read_container"), total("container.read_container")),
    })

    epochs = {kind: flags["epochs"] for kind, flags in workload.models
              if "epochs" in flags}
    per_epoch = {kind: [] for kind in ("mlp", "lstm", "hybrid")}
    for s in spans("neural.train"):
        kind = _enclosing_attr(s, by_id, "regressors.train_model", "kind")
        if kind in per_epoch and epochs.get(kind):
            per_epoch[kind].append((s[3] - s[2]) / epochs[kind])
    for kind, values in per_epoch.items():
        out[f"neural.train.s_per_epoch.{kind}"] = _median(values)
    out.update({
        "neural.lstm_cell_forward.us": median("neural.lstm_cell_forward", 1e6),
        "neural.lstm_cell_backward.us": median("neural.lstm_cell_backward", 1e6),
        "neural.Conv1d.forward.us": median("neural.Conv1d.forward", 1e6),
        "neural.Conv1d.backward.us": median("neural.Conv1d.backward", 1e6),
        "numerics.adam_step.us": median("numerics.adam_step", 1e6),
        "numerics.adam_step.calls": len(spans("numerics.adam_step")),
        "numerics.clip_global_norm.us": median("numerics.clip_global_norm", 1e6),
        "evalreport.evaluate.s": median("evalreport.evaluate"),
        "synth.generate.us_per_row": per("synth.generate",
                                         workload.rows * len(spans("synth.generate")),
                                         1e6),
    })
    own = self_times(tracer.spans)
    out["cli.self_s"] = sum(own[s[0]] for s in tracer.spans
                            if s[1].startswith("cli.") and s[1] != "cli.synth")
    for kind in ("ols", "forest", "gbt", "mlp", "lstm", "hybrid"):
        out[f"evalreport.test_mse.{kind}"] = test_mse.get(kind, 0.0)
    out["trace.missing"] = len(tracer.missing)
    # the tracer's cost: the chain's spans (the traced set-up's aside) times
    # the cost of one; a traced-minus-untraced wall would be host noise
    chain_spans = sum(1 for s in tracer.spans if s[1] != "cli.synth"
                      and _enclosing(s, by_id, "cli.synth") is None)
    out["trace.overhead_share"] = chain_spans * wrapper_cost() / chain_s
    return out


def _rate(nbytes, seconds):
    return nbytes / MIB / seconds if seconds > 0 else 0.0


def _enclosing(span, by_id, name):
    parent = span[4]
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor[1] == name:
            return ancestor
        parent = ancestor[4]
    return None


def _enclosing_attr(span, by_id, name, key):
    ancestor = _enclosing(span, by_id, name)
    return None if ancestor is None else ancestor[5].get(key)


# --- span table -----------------------------------------------------------------

_PERCENTILES = (99.9, 99.0, 90.0)


def tail_percentile(values):
    """(p, value) for the highest p in _PERCENTILES with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in _PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None


def span_table(spans) -> str:
    """One line per span name: calls, total, self, median and tail, in ms."""
    own = self_times(spans)
    lines = [f"{'span':36s} {'calls':>7s} {'total_ms':>10s} {'self_ms':>10s} "
             f"{'median_ms':>10s}  tail"]
    for name, group in sorted(_group(spans).items(),
                              key=lambda item: -sum(_durations(item[1]))):
        durations = _durations(group)
        tail = tail_percentile(durations)
        tail_text = (f"p{tail[0]:g}={tail[1] * 1e3:.4f}ms of {len(durations)}"
                     if tail else f"n={len(durations)}, too few for a tail")
        lines.append(f"{name:36s} {len(group):7d} {sum(durations) * 1e3:10.2f} "
                     f"{sum(own[s[0]] for s in group) * 1e3:10.2f} "
                     f"{statistics.median(durations) * 1e3:10.4f}  {tail_text}")
    return "\n".join(lines) + "\n"
