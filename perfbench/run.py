"""delaycast benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload models --seed 3 --seconds 50 --trace 0

Run it from the root of a delaycast checkout; it imports the program from
the checkout's src/ and writes only under .bench_work/ there. A run:

1. repeats, until --seconds have passed, a set-up (generating the workload's
   input with `delaycast synth` in a fresh process, at least SETUP_MIN_S of
   them) and then the workload's CLI chain in a fresh process (chain.py);
2. reports the median set-up wall (setup_s) and medians over the chain
   repetitions, every time scaled to a steady host by calibrate(), which
   runs between the steps; with --trace 1 every other repetition is traced
   and the per-layer metrics come from the traced ones;
3. checks the outputs: exit codes, prune accounting against the planted
   labels, each model's reloaded MSE, and byte-identical artifacts across
   set-ups and repetitions.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every command and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import INPUT_NAME, LABELS_NAME, PAUSE, WORKLOADS, synth_argv

BENCH_DIR = Path(__file__).resolve().parent
SETUP_MIN_S = 1.0       # set-up time timed before each chain repetition
CAL_ROWS = 60_000
CAL_REF_S = 0.2         # calibrate() on the 2-core machine README.md describes, quiet
MIN_REPS = 2            # byte identity needs two repetitions to compare
DEADLINE_S = 170.0      # every run ends well inside the 180 s limit
MIB = float(1 << 20)

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("DELAYCAST_SEED", None)
    return env


def calibrate() -> float:
    """Wall of a fixed piece of work that no program change touches, shaped
    like the program's ingest: split text rows, build a dict per row, sort.

    Host-wide slowdowns move it the way they move the chain (README.md,
    "Noise"); CAL_REF_S over its wall is the host's speed.
    """
    started = time.perf_counter()
    rows = []
    for i in range(CAL_ROWS):
        cells = f"{i},2022-01-03,AA,N{i % 977},{i % 1440},{i * 0.5},,12.0,LAX,SFO".split(",")
        rows.append({"id": int(cells[0]), "date": cells[1], "carrier": cells[2],
                     "tail": cells[3], "dep": int(cells[4]), "delay": float(cells[5]),
                     "cause": cells[6] or None, "taxi": float(cells[7]),
                     "origin": cells[8], "dest": cells[9]})
    rows.sort(key=lambda r: (r["tail"], r["id"]))
    return time.perf_counter() - started


def digests(directory: Path) -> dict:
    """sha256 of every top-level file except run manifests, which hold wall times."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")}


class Run:
    def __init__(self, args, root: Path):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.env = child_env(root)
        self.work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.trace_dir = root / ".bench_work" / "traces"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures = []
        self.setup_walls = []
        self.setup_starts = []
        self.setup_digests = None
        self.speeds = []            # (monotonic time, host speed) per calibration

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def _spawn(self, argv, cwd):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            return subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            return None

    def setup(self):
        """One set-up in a fresh process; its output must equal the first's.

        Returns the directory holding the input, or None if synth failed.
        """
        j = len(self.setup_walls)
        cwd = self.work / f"setup{j}"
        cwd.mkdir(parents=True)
        argv = [sys.executable, "-m", "delaycast",
                *synth_argv(self.workload, self.seed, INPUT_NAME, LABELS_NAME)]
        started = time.monotonic()
        proc = self._spawn(argv, cwd)
        self.setup_starts.append(started)
        self.setup_walls.append(time.monotonic() - started)
        ok = proc is not None and proc.returncode == 0
        self.record(f"setup{j}.synth", ok,
                    "timed out" if proc is None else proc.stderr.strip())
        if not ok:
            return None
        if j == 0:
            self.setup_digests = digests(cwd)
            return cwd
        self.record(f"setup{j}.identical", digests(cwd) == self.setup_digests)
        shutil.rmtree(cwd)
        return self.work / "setup0"

    def _chain(self, argv, cwd, stderr_path):
        """Run chain.py, calibrating while it waits between steps.

        Returns its stdout lines other than the pauses, and its stderr.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return [], ""
        lines = []
        with open(stderr_path, "w+", encoding="utf-8") as err, subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                for line in proc.stdout:
                    if line.rstrip("\n") != PAUSE:
                        lines.append(line)
                        continue
                    self.calibrate()
                    try:
                        proc.stdin.write("\n")
                        proc.stdin.flush()
                    except BrokenPipeError:
                        pass
                proc.wait()
            finally:
                timer.cancel()
            err.seek(0)
            return lines, err.read()

    def repetition(self, i, setup_dir, traced):
        cwd = self.work / f"rep{i}"
        cwd.mkdir()
        argv = [sys.executable, str(BENCH_DIR / "chain.py"),
                "--workload", self.workload.name, "--seed", str(self.seed),
                "--input", str(setup_dir / INPUT_NAME),
                "--labels", str(setup_dir / LABELS_NAME),
                "--reload-models", str(int(i == 0))]
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            argv += ["--spans-out", str(self.spans_path(i))]
        lines, stderr = self._chain(argv, cwd, self.work / f"rep{i}.stderr")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.record(f"rep{i}.chain", False, stderr.strip()[-500:] or "timed out")
            return None
        for label in result["steps"]:
            code = result["codes"].get(label)
            self.record(f"rep{i}.{label}", code == 0,
                        "not run" if code is None else result["errors"].get(label, ""))
        for check in result["checks"]:
            self.record(f"rep{i}.{check['name']}", check["ok"], check["detail"])
        result["digests"] = digests(cwd)
        result["traced"] = traced
        result["index"] = i
        return result

    def calibrate(self):
        began = time.monotonic()
        wall = calibrate()
        self.speeds.append(((began + time.monotonic()) / 2.0, CAL_REF_S / wall))

    def speed_at(self, t) -> float:
        """The host's speed at monotonic time t, interpolated linearly
        between the calibrations around it."""
        before = max((c for c in self.speeds if c[0] <= t), default=self.speeds[0])
        after = min((c for c in self.speeds if c[0] >= t), default=self.speeds[-1])
        if after[0] == before[0]:
            return before[1]
        return before[1] + (after[1] - before[1]) * (t - before[0]) / (after[0] - before[0])

    def scaled(self, start, wall) -> float:
        """A wall time scaled to the calibrated host speed (CAL_REF_S)."""
        return wall * self.speed_at(start + wall / 2.0)

    def spans_path(self, i) -> Path:
        return self.trace_dir / f"{self.workload.name}-seed{self.seed}-rep{i}.json"

    def repetitions(self):
        """Set-ups and chain repetitions, interleaved, until --seconds have passed.

        Before each repetition, set-ups run until SETUP_MIN_S of them have
        been timed, so that set-up and chain are sampled across the same span
        of the run. The host's speed is calibrated before and after each
        group of set-ups and between the steps of each chain.
        """
        results, walls = [], []
        started = time.monotonic()
        i = 0
        calibrate()     # warm-up: a fresh process's first call runs slow
        self.calibrate()
        while True:
            typical = statistics.mean(walls) if walls else 0.0
            need_more = i < MIN_REPS
            in_budget = time.monotonic() - started + typical <= self.seconds
            if not (need_more or in_budget) or time.monotonic() + typical > self.deadline:
                break
            began = time.monotonic()
            setup_began = len(self.setup_walls)
            setup_dir = self.setup()
            while (setup_dir is not None
                   and sum(self.setup_walls[setup_began:]) < SETUP_MIN_S):
                setup_dir = self.setup()
            self.calibrate()
            if setup_dir is None:
                break
            result = self.repetition(i, setup_dir, traced=bool(self.trace and i % 2))
            walls.append(time.monotonic() - began)
            if result is not None:
                results.append(result)
            i += 1
        if results:
            first = results[0]["digests"]
            for result in results[1:]:
                self.record(f"rep{result['index']}.identical", result["digests"] == first,
                            "artifacts differ from the first repetition")
        return results


def end_to_end(run, reps) -> dict:
    """Medians over the set-ups and over the chain repetitions; every time is
    scaled to the calibrated host speed (Run.scaled)."""
    def median_of(value):
        return statistics.median(value(r) for r in reps)

    def steps(prefix):
        """Median over the repetitions of the summed scaled walls of the
        steps whose label starts with prefix."""
        return median_of(lambda r: sum(run.scaled(r["starts"][label], wall)
                                       for label, wall in r["walls"].items()
                                       if label.startswith(prefix)))

    first = reps[0]
    workload = run.workload
    return {
        "setup_s": statistics.median(map(run.scaled, run.setup_starts, run.setup_walls)),
        "chain_s": steps(""),
        "preprocess_rows_per_s": workload.rows / steps("preprocess"),
        "train_s": steps("train."),
        "evaluate_s": steps("evaluate."),
        "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"]),
        "model_mb": first["model_bytes"] / MIB,
        "test_mse_ratio": test_mse_ratio(workload, first),
    }


def test_mse_ratio(workload, rep) -> float:
    """The largest, over the workload's models, of the held-out MSE over the
    naive predictor's on the same split, as a share of that kind's typical
    value; any single model getting worse raises it."""
    return max(rep["test_mse"][kind] / rep["naive_mse"][kind] / workload.skill[kind]
               for kind, _ in workload.models)


def per_layer(traced) -> dict:
    names = traced[0]["layers"]
    return {name: statistics.median(r["layers"][name] for r in traced) for name in names}


def as_metrics(values: dict, declared) -> dict:
    """The result's metrics: exactly the declared names, with their units."""
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "delaycast" / "cli.py").is_file():
        print("error: run from the root of a delaycast checkout; "
              "src/delaycast/cli.py not found", file=sys.stderr)
        return 2

    # The host slows each CPU on its own, in phases of seconds; calibrate()
    # sees the chain's host speed only on the CPU the chain runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args, root)
    try:
        reps = run.repetitions()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    setup_walls = run.setup_walls

    # a repetition with a failed command is counted in `failed`, never timed
    complete = [r for r in reps if all(r["codes"].get(label) == 0 for label in r["steps"])]
    untraced = [r for r in complete if not r["traced"]]
    traced = [r for r in complete if r["traced"]]
    if not untraced or untraced[0]["index"] != 0 or (args.trace and not traced):
        print(f"error: the first repetition or every traced one failed; "
              f"{run.failures[:5]}", file=sys.stderr)
        return 1

    env = untraced[0]["env"]
    print(f"delaycast perfbench: workload={args.workload} seed={args.seed} "
          f"setups={len(setup_walls)} reps={len(untraced)} traced_reps={len(traced)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("host speed per calibration: " + " ".join(f"{v:.4f}" for _, v in run.speeds))
    print("setup walls s: " + " ".join(f"{w:.4f}" for w in setup_walls))
    print("chain_s per repetition: " + " ".join(
        f"{r['chain_s']:.4f}{'t' if r['traced'] else ''}" for r in reps))
    e2e = end_to_end(run, untraced)
    for name, entry in as_metrics(e2e, SPEC["end_to_end"]).items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for kind, mse in untraced[0]["test_mse"].items():
        print(f"test_mse.{kind} {mse!r} min2 (naive predictor "
              f"{untraced[0]['naive_mse'][kind]!r})")
    failed = len(run.failures)
    print(f"failed_share {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} commands and checks)")
    for failure in run.failures:
        print(f"FAILED {failure}")

    if args.trace:
        from spans import span_table

        layers = per_layer(traced)
        index = traced[0]["index"]
        data = json.loads(run.spans_path(index).read_text(encoding="utf-8"))
        print(f"spans of traced repetition {index} ({data['run_id']}):")
        print(span_table(data["spans"]), end="")
        print("missing targets: " + (", ".join(traced[0]["missing"]) or "none"))
        print("idle on this workload (0): "
              + (", ".join(n for n, v in layers.items() if v == 0) or "none"))
        metrics = as_metrics(layers, SPEC["per_layer"])
    else:
        metrics = as_metrics(e2e, SPEC["end_to_end"])

    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
