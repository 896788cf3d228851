#!/usr/bin/env python3
"""Steadiness report and like-for-like comparison for the repo benchmark.

Run each workload N times, each time with another seed, and report every
metric's median, quartiles and spread (interquartile distance / median):

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace 0|1]
                                [--workloads a,b] [--out results.json]

End-to-end metrics whose spread exceeds their BENCHMARK.json bound are
flagged (setup_s is reported but not flagged) and the exit code is 1; so it
is when a run fails an output check. Compare two saved result files:

    python3 perfbench/steady.py --compare base.json new.json

A comparison is refused (exit 2) when the two files were measured on
different hosts or builds; it exits 1 when a median got worse by more than
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOGS = ROOT / ".bench_build" / "steady"
# Host-record keys that may differ between two comparable results.
SOURCE_KEYS = {"git_sha", "source_sha256"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    LOGS.mkdir(parents=True, exist_ok=True)
    log = LOGS / f"{workload}-seed{seed}-trace{trace}.log"
    with log.open("w") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    host = None
    for line in lines:
        if line.startswith("perfbench-host: "):
            host = json.loads(line.split(": ", 1)[1])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, host, result, log


def report(spec, runs, trace):
    """Prints the table; returns the number of flagged metrics."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    flagged = 0
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if rel > bound:
                    flag = "  SPREAD > BOUND"
                    flagged += 1
                elif rel > bound / 3:
                    flag = "  spread > bound/3"
            print(f"  {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.2%} {'' if bound is None else f'{bound:.2f}':>6s}{flag}")
    return flagged


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    host, runs, broken = None, {}, 0
    for workload in names:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, run_host, result, log = run_once(spec, workload, seed,
                                                   args.trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0)
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'} "
                  f"(log {log.relative_to(ROOT)})", flush=True)
            if not ok:
                broken += 1
                continue
            if host is not None and run_host != host:
                print("host or build changed during the measurement",
                      file=sys.stderr)
                return 2
            host = run_host
            runs[workload].append(dict(result, seed=seed))
    flagged = report(spec, runs, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host, "trace": args.trace, "runs": runs}, indent=1))
    return 1 if flagged or broken else 0


def compare(base_path, new_path, spec):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    differ = sorted(k for k in set(base["host"]) | set(new["host"])
                    if k not in SOURCE_KEYS
                    and base["host"].get(k) != new["host"].get(k))
    if differ or base.get("trace") != new.get("trace"):
        print("refusing to compare: host or build differs in "
              + ", ".join(differ or ["trace mode"]), file=sys.stderr)
        return 2
    regressions = 0
    for workload in base["runs"]:
        print(f"\n{workload}")
        for m in spec["end_to_end"]:
            old = [r["metrics"][m["name"]]["value"] for r in base["runs"][workload]]
            cur = [r["metrics"][m["name"]]["value"]
                   for r in new["runs"].get(workload, [])]
            if not old or not cur:
                continue
            old_med, _, _, old_spread = spread(old)
            cur_med = statistics.median(cur)
            change = (cur_med - old_med) / old_med
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif old_spread > m["bound"]:
                verdict = "unresolved (base spread > bound)"
            else:
                verdict = "ok"
            print(f"  {m['name']:20s} {old_med:12.6g} -> {cur_med:12.6g} "
                  f"{change:+8.2%} (bound {m['bound']:.2f}) {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
