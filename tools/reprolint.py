#!/usr/bin/env python3
"""Run `repro check` from a bare checkout, without installing the package.

CI entry point for layer 1 of `repro check`: puts ``src/`` on the import
path and hands every argument to ``repro.cli.main(["check", ...])``, so
the two spellings cannot drift apart.

    python tools/reprolint.py                 # lint src/repro
    python tools/reprolint.py src tests       # lint specific paths
    python tools/reprolint.py --fail-on error # gate on errors only
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["check", *sys.argv[1:]]))
