"""Repeated benchmark runs, their spread, and the comparison of two commits.

    # ten seeds, workloads interleaved (rotated each seed), plus one traced
    # run per workload; results go to one JSON file
    python3 perfbench/session.py run --seeds 1 2 3 4 5 6 7 8 9 10 --traced \
        --out perfbench/baseline/results.json

    # the same, alternating two checkouts (parent first on odd seeds)
    python3 perfbench/session.py run --seeds 1 ... 10 \
        --checkout ../parent --checkout . --out old.json --out new.json

    python3 perfbench/session.py summary perfbench/baseline/results.json
    python3 perfbench/session.py compare old.json new.json

Run it from the root of a checkout. Every run uses this directory's
run.py, so both sides of a comparison run identical benchmark code; the
checkout only decides which src/ is measured. Seed 11 is held out: do not
use it while writing a change, then confirm a claimed gain on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload, seed, trace) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    env = next((line[4:] for line in lines if line.startswith("env ")), "")
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": time.monotonic() - started,
            "env": env, "result": result, "text": lines[:-1],
            "stderr": proc.stderr[-2000:]}


def commit_of(checkout: Path):
    """The checkout's git commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def cmd_run(args) -> int:
    checkouts = [Path(c).resolve() for c in (args.checkout or ["."])]
    if len(checkouts) != len(args.out):
        raise SystemExit("give one --out per --checkout")
    records = [[] for _ in checkouts]
    workloads = [w["name"] for w in SPEC["workloads"]]

    commits = [commit_of(c) for c in checkouts]

    def save():
        for out, commit, recs in zip(args.out, commits, records):
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps({"commit": commit, "runs": recs},
                                            indent=1) + "\n", encoding="utf-8")

    plan = []
    for i, seed in enumerate(args.seeds):
        # rotate the workload order so no workload always runs first or last
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            plan.append((workload, seed, 0, i))
    if args.traced:
        plan += [(w, args.seeds[0], 1, 0) for w in workloads]
    for workload, seed, trace, i in plan:
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            rec = run_once(checkouts[side], workload, seed, trace)
            records[side].append(rec)
            ok = rec["result"] is not None and rec["result"]["correct"]
            print(f"{checkouts[side].name or '.'} {workload} seed={seed} trace={trace} "
                  f"exit={rec['exit']} wall={rec['wall_s']:.1f}s "
                  f"{'ok' if ok else 'FAILED'}", flush=True)
            save()
    return 0


def load_runs(path, trace=0) -> dict:
    """(workload, seed) -> metrics of the successful runs with this trace flag."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {(r["workload"], r["seed"]): r["result"]["metrics"]
            for r in data["runs"]
            if r["trace"] == trace and r["result"] is not None and r["result"]["correct"]}


def load_kind_mse(path) -> dict:
    """(workload, seed) -> {model kind: held-out MSE} from the untraced printouts."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {(r["workload"], r["seed"]): {
                line.split()[0][len("test_mse."):]: float(line.split()[1])
                for line in r["text"] if line.startswith("test_mse.")}
            for r in data["runs"]
            if r["trace"] == 0 and r["result"] is not None and r["result"]["correct"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs, workload, metric):
    return [m[metric]["value"] for (w, _), m in sorted(runs.items()) if w == workload]


def cmd_summary(args) -> int:
    runs = load_runs(args.file)
    print(f"{'workload':8s} {'metric':22s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    worst = 0.0
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            values = _values(runs, w["name"], m["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            worst = max(worst, spread / m["bound"])
            verdict = ("steady" if spread < m["bound"] / 3
                       else "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{w['name']:8s} {m['name']:22s} {len(values):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.4f} {m['bound']:6.3f}  {verdict}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


# Deterministic for a given seed, so judged by the per-seed ratios new / old.
PER_SEED = frozenset({"model_mb", "test_mse_ratio"})


def verdict(old, new, metric, kind_ratios=None) -> tuple:
    """(pair win share, verdict) for one workload and end-to-end metric.

    kind_ratios: for test_mse_ratio, the median over seeds of each model
    kind's MSE ratio new / old; the worst kind decides.
    """
    lower = metric["better"] == "lower"
    pairs = list(zip(old, new))
    wins = sum((n < o) if lower else (n > o) for o, n in pairs)
    share = wins / len(pairs)
    if metric["name"] in PER_SEED:
        ratios = [n / o for o, n in pairs]
        worst = max(kind_ratios.values()) if kind_ratios else statistics.median(ratios)
        worse_by = worst - 1.0 if lower else 1.0 - worst
        if all(r == 1.0 for r in ratios):
            return share, "identical"
        if worse_by > metric["bound"]:
            return share, "worse beyond bound"
        if worse_by < 0:
            return share, "better"
        return share, f"within bound (worst {worse_by:+.2%})"
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    change = (nmed - omed) / omed
    worse_by = change if lower else -change
    wide = max((oq3 - oq1) / omed, (nq3 - nq1) / nmed) > metric["bound"]
    if worse_by > metric["bound"]:
        return share, "worse beyond bound"
    # a gain needs at least ten pairs
    enough = len(pairs) >= 10
    if enough and share >= 0.9 and abs(nmed - omed) > oq3 - oq1 and worse_by < 0:
        return share, "better"
    if enough and all((n < o) if lower else (n > o) for o in old for n in new):
        return share, "better"
    if wide:
        return share, "unresolved"
    return share, "within bound"


def kind_ratios(old_mse, new_mse, keys) -> dict:
    """Model kind -> median over the seeds of its held-out MSE ratio new / old."""
    ratios = {}
    for key in keys:
        for kind, o in old_mse.get(key, {}).items():
            n = new_mse.get(key, {}).get(kind)
            if n is not None:
                ratios.setdefault(kind, []).append(n / o)
    return {kind: statistics.median(values) for kind, values in ratios.items()}


def cmd_compare(args) -> int:
    old_runs, new_runs = load_runs(args.old), load_runs(args.new)
    old_mse, new_mse = load_kind_mse(args.old), load_kind_mse(args.new)
    print(f"{'workload':8s} {'metric':22s} {'pairs':>5s} {'old median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'win':>5s}  verdict")
    for w in SPEC["workloads"]:
        keys = sorted(k for k in old_runs.keys() & new_runs.keys() if k[0] == w["name"])
        if not keys:
            continue
        kinds = kind_ratios(old_mse, new_mse, keys)
        for m in SPEC["end_to_end"]:
            old = [old_runs[k][m["name"]]["value"] for k in keys]
            new = [new_runs[k][m["name"]]["value"] for k in keys]
            share, text = verdict(old, new, m,
                                  kinds if m["name"] == "test_mse_ratio" else None)
            oq1, omed, oq3 = quartiles(old)
            nq1, nmed, nq3 = quartiles(new)
            print(f"{w['name']:8s} {m['name']:22s} {len(keys):5d} "
                  f"{omed:12.6g} [{oq1:10.6g}, {oq3:10.6g}] "
                  f"{nmed:12.6g} [{nq1:10.6g}, {nq3:10.6g}] {share:5.2f}  {text}")
        for kind, ratio in kinds.items():
            print(f"{w['name']:8s} test_mse.{kind} median per-seed ratio new/old "
                  f"{ratio:.6f}")
    old_layers, new_layers = load_runs(args.old, 1), load_runs(args.new, 1)
    shared = sorted(old_layers.keys() & new_layers.keys())
    if shared:
        print("\nper-layer (traced runs, for information):")
    for key in shared:
        for name, entry in old_layers[key].items():
            o = entry["value"]
            n = new_layers[key].get(name, {}).get("value")
            if n is None or (o == 0 and n == 0):
                continue
            delta = f"{(n - o) / o:+.1%}" if o else "new"
            print(f"{key[0]:8s} seed={key[1]:<3d} {name:40s} {o:12.6g} -> {n:12.6g} "
                  f"{delta:>8s} {entry['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark over seeds and workloads")
    run.add_argument("--seeds", type=int, nargs="+", required=True)
    run.add_argument("--traced", action="store_true",
                     help="add one traced run per workload on the first seed")
    run.add_argument("--checkout", action="append",
                     help="checkout root to measure (repeat for an A/B session)")
    run.add_argument("--out", action="append", required=True)
    run.set_defaults(func=cmd_run)
    summary = sub.add_parser("summary", help="median, quartiles and spread per metric")
    summary.add_argument("file")
    summary.set_defaults(func=cmd_summary)
    compare = sub.add_parser("compare", help="verdict per workload and metric")
    compare.add_argument("old")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
