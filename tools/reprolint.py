#!/usr/bin/env python3
"""Lint the in-tree sources with the repro.check rule catalog.

CI entry point for layer 1 of `repro check`: runs every rule over
``src/repro`` (and ``tools/``ish callers can pass other paths), prints
the human report, and exits nonzero when any finding at or above the
gate severity survives suppression. Equivalent to ``repro check`` but
runnable from a bare checkout without installing the package.

    python tools/reprolint.py                 # lint src/repro
    python tools/reprolint.py src tests       # lint specific paths
    python tools/reprolint.py --fail-on error # gate on errors only
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.check import gate, human_report, lint_paths  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--fail-on", default="warning",
        choices=["advice", "warning", "error"],
        help="minimum severity that fails the run (default: warning)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by reprolint comments",
    )
    parser.add_argument(
        "--no-semantic", action="store_true",
        help="skip the project-wide semantic (dataflow) rules",
    )
    parser.add_argument(
        "--cache", metavar="PATH", default=None,
        help="content-hash analysis cache file (unchanged content "
             "reuses cached findings)",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write the findings as a SARIF 2.1.0 log to PATH",
    )
    args = parser.parse_args(argv)

    cache = None
    if args.cache:
        from repro.check import AnalysisCache

        cache = AnalysisCache.load(args.cache)
    paths = args.paths or [os.path.join(SRC, "repro")]
    findings = lint_paths(
        paths,
        package_roots=[os.path.join(SRC, "repro")],
        semantic=not args.no_semantic,
        cache=cache,
    )
    if cache is not None:
        cache.save(args.cache)
    if args.sarif:
        from repro.check import sarif_json

        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(sarif_json(findings) + "\n")
    print(human_report(findings, show_suppressed=args.show_suppressed))
    return 1 if gate(findings, fail_on=args.fail_on) else 0


if __name__ == "__main__":
    sys.exit(main())
