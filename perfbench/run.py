#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repo's libraries plus the benchmark binary)
into .bench_build/perfbench; later calls only rebuild what changed. The
build log goes to standard error. Standard output carries one
`perfbench-host:` line recording the host and build, then the binary's
output, whose last line is the result object. The exit code is the
binary's: 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not be built or was called wrongly.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rna_perfbench"
BINARY_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; False when that fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    if (BUILD / "CMakeCache.txt").is_file() and \
            Path(cmake_cache().get("CMAKE_HOME_DIRECTORY", "")) != HERE:
        shutil.rmtree(BUILD)  # configured for a checkout at another path
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return BINARY.is_file()


def cmake_cache():
    values = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def source_digest():
    """SHA-256 over every file the binary is built from."""
    digest = hashlib.sha256()
    files = [p for top in ("src", "perfbench")
             for p in sorted((ROOT / top).rglob("*"))
             if p.suffix in (".cpp", ".hpp", ".h") or p.name == "CMakeLists.txt"]
    files += [ROOT / "bench" / "bench_util.hpp", ROOT / "bench" / "bench_json.hpp"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the repository when ROOT is a git checkout, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def host_record():
    """Host and build facts; results are comparable only when these match."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if f)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "flags": flags,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    print("perfbench-host: " + json.dumps(host_record(), sort_keys=True),
          flush=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
