"""Command-line driver for the invariant analyzer.

    python3 tools/analyze --root . --compile-db build/compile_commands.json
    python3 tools/analyze --self-test
    python3 tools/analyze --check lock-order --stats

Exit codes: 0 clean, 1 findings (or failed self-test), 2 usage/setup
errors. The committed suppression baseline (tools/analyze/baseline.txt)
is applied by default; stale baseline entries are reported so the file
shrinks back to empty as fixes land.
"""

import argparse
import sys
from pathlib import Path

from . import baseline as baseline_mod
from . import frontend, selftest
from .callgraph import CallGraph
from .checks import CHECKS, timed_recv


def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="tools/analyze",
        description="whole-program invariant checks (arena discipline, "
                    "timed receives, lock order, tag discipline)")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json from the build tree; "
                    "without it, src/ is scanned directly")
    ap.add_argument("--frontend", default="auto",
                    choices=("auto", "textual", "cindex"),
                    help="auto prefers libclang and falls back to the "
                    "hermetic textual frontend")
    ap.add_argument("--baseline", default=None,
                    help="suppression baseline file (default: "
                    "tools/analyze/baseline.txt under --root)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline with the current findings")
    ap.add_argument("--check", action="append", dest="checks",
                    choices=sorted(CHECKS),
                    help="run only this check (repeatable)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite instead of analyzing")
    ap.add_argument("--fixtures", default=None,
                    help="fixture root for --self-test (default: "
                    "tests/analyze_fixtures under --root)")
    ap.add_argument("--stats", action="store_true",
                    help="print IR/call-graph statistics")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"analyze: --root {root} is not a directory", file=sys.stderr)
        return 2

    if args.self_test:
        fixtures = Path(args.fixtures) if args.fixtures \
            else root / "tests" / "analyze_fixtures"
        if not fixtures.is_dir():
            print(f"analyze: no fixtures at {fixtures}", file=sys.stderr)
            return 2
        fe = args.frontend if args.frontend != "auto" else "textual"
        rc = selftest.run_all(fixtures, frontend_name=fe)
        if rc == 0 and args.frontend == "auto" \
                and frontend.cindex_available():
            rc = selftest.run_all(fixtures, frontend_name="cindex")
        return rc

    if args.compile_db and not Path(args.compile_db).is_file():
        print(f"analyze: compile db {args.compile_db} not found — "
              "configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON "
              "(the default presets do) or omit --compile-db",
              file=sys.stderr)
        return 2

    files = frontend.collect_sources(root, compile_db=args.compile_db)
    if not files:
        print("analyze: no sources found", file=sys.stderr)
        return 2
    try:
        program, used = frontend.build_program(
            root, files, frontend=args.frontend,
            compile_db=args.compile_db)
    except RuntimeError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    graph = CallGraph(program)

    if args.stats:
        ncalls = sum(len(f.calls) for f in program.functions.values())
        nlocks = sum(len(f.locks) for f in program.functions.values())
        nallocs = sum(len(f.allocs) for f in program.functions.values())
        ntags = sum(len(f.tags) for f in program.functions.values())
        print(f"analyze: frontend={used} files={len(program.files)} "
              f"functions={len(program.functions)} calls={ncalls} "
              f"allocs={nallocs} locks={nlocks} tags={ntags}")

    selected = args.checks or sorted(CHECKS)
    if "timed-recv" in selected:
        stale = timed_recv.unmatched_entry_patterns(program)
        for pattern in stale:
            print(f"analyze: timed-recv entry pattern {pattern!r} matches "
                  "no function — fix RECV_ENTRY_PATTERNS in "
                  "tools/analyze/config.py", file=sys.stderr)
        if stale:
            return 1
    findings = []
    for name in selected:
        findings.extend(CHECKS[name](program, graph, root=root))
    findings.sort(key=lambda f: (f.file, f.line, f.check))

    baseline_path = Path(args.baseline) if args.baseline \
        else Path(__file__).resolve().parent / "baseline.txt"
    if args.update_baseline:
        baseline_mod.write(
            baseline_path, findings,
            header=["analyzer suppression baseline — keep empty; see "
                    "DESIGN.md 'Static analysis'"])
        print(f"analyze: wrote {len(findings)} keys to {baseline_path}")
        return 0
    keys = set() if args.no_baseline else baseline_mod.load(baseline_path)
    active, suppressed, stale = baseline_mod.apply(findings, keys)

    for f in active:
        print(f.render())
    for k in stale:
        print(f"analyze: stale baseline entry (fixed? remove it): {k}",
              file=sys.stderr)
    summary = (f"analyze: frontend={used} checks={','.join(selected)} "
               f"findings={len(active)}")
    if suppressed:
        summary += f" suppressed={len(suppressed)}"
    print(summary)
    return 1 if active else 0
