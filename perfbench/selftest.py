#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. lockstep-replay run twice on one seed gives bitwise-equal final
   parameters (each run also compares its warm-up job with job 0).
2. mixed-hier traced on two seeds finds the same speed groups.
3. Called wrongly, the benchmark exits 2 without printing a result.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exit code 0 when every test passes, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "selftest"


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def params_digest(lines):
    for line in lines:
        if line.startswith("info: "):
            return line.rsplit(" ", 1)[1]
    return None


def test_lockstep_bitwise():
    digests = []
    for _ in range(2):
        code, lines = bench("--workload", "lockstep-replay", "--seed", "5",
                            "--seconds", "1", "--trace", "0")
        if code != 0:
            return f"lockstep-replay exited {code}"
        digests.append(params_digest(lines))
    if None in digests or digests[0] != digests[1]:
        return f"final params differ between runs: {digests}"
    return None


def test_mixed_hier_groups():
    groups = []
    for seed in ("1", "2"):
        code, lines = bench("--workload", "mixed-hier", "--seed", seed,
                            "--seconds", "1", "--trace", "1")
        result = result_of(lines)
        if code != 0 or result is None:
            return f"mixed-hier seed {seed} exited {code}"
        groups.append(result["metrics"]["core.groups"]["value"])
    if groups[0] != groups[1]:
        return f"speed groups differ between runs: {groups}"
    return None


def test_bad_arguments():
    code, lines = bench("--workload", "no-such-workload", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    if code != 2 or result_of(lines) is not None:
        return f"unknown workload: exit {code}, want 2 and no result"
    return None


def test_without_sources():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "straggler-rna", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result_of(lines) is not None:
        return f"without sources: exit {code}, want non-zero and no result"
    return None


def main():
    failed = 0
    for test in (test_bad_arguments, test_without_sources,
                 test_lockstep_bitwise, test_mixed_hier_groups):
        error = test()
        print(f"{test.__name__}: {'ok' if error is None else 'FAILED: ' + error}",
              flush=True)
        failed += error is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
