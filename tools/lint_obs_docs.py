#!/usr/bin/env python
"""Doc-lint: keep docs/observability.md and repro.obs.names in lockstep.

Four checks:

1. every metric/event/span name declared in ``repro.obs.names`` must appear
   (backtick-quoted) in ``docs/observability.md``;
2. every backtick-quoted dotted name in the doc that uses an instrumented
   subsystem prefix (``client.`` / ``policy.`` / ``queue.`` /
   ``relation.`` / ``channel.`` / ``server.`` / ``transport.`` /
   ``journal.`` / ``recovery.`` / ``run.`` / ``fleet.`` / ``trace.`` /
   ``health.``) must be declared in code;
3. the span/event **attr** tables in the doc (``| name | attrs | ... |``
   rows) must list exactly the attrs each ``EventSpec`` declares, in the
   declared order — and every declared event/span must have a row;
4. every ``BENCH_<lane>.json`` named anywhere in ``docs/*.md`` must have a
   committed baseline at ``benchmarks/baselines/<lane>.json`` — so the
   performance guide cannot describe a lane the gate doesn't protect.

Run from the repo root (CI does)::

    PYTHONPATH=src python tools/lint_obs_docs.py

Exit code 0 when the contract holds, 1 with a drift report otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "observability.md"
DOCS_DIR = REPO_ROOT / "docs"
BASELINES_DIR = REPO_ROOT / "benchmarks" / "baselines"

# A bench lane reference anywhere in the docs: BENCH_<lane>.json.
BENCH_LANE_RE = re.compile(r"BENCH_([a-z0-9_]+)\.json")


def bench_lane_problems() -> list:
    """Doc-referenced bench lanes without a committed baseline."""
    problems = []
    for doc_path in sorted(DOCS_DIR.glob("*.md")):
        text = doc_path.read_text(encoding="utf-8")
        for lane in sorted(set(BENCH_LANE_RE.findall(text))):
            baseline = BASELINES_DIR / f"{lane}.json"
            if not baseline.exists():
                problems.append(
                    f"{doc_path.relative_to(REPO_ROOT)}: names "
                    f"BENCH_{lane}.json but no baseline exists at "
                    f"{baseline.relative_to(REPO_ROOT)}"
                )
    return problems

# A dotted instrumentation name: lowercase snake_case segments, >= 2 deep.
NAME_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
PREFIXES = (
    "client.",
    "policy.",
    "queue.",
    "relation.",
    "channel.",
    "server.",
    "transport.",
    "journal.",
    "recovery.",
    "run.",
    "fleet.",
    "trace.",
    "health.",
)


def documented_names(text: str) -> set:
    """Backtick-quoted dotted names in the doc that claim a known prefix."""
    found = set()
    for match in NAME_RE.finditer(text):
        name = match.group(1)
        if name.startswith(PREFIXES):
            found.add(name)
    return found


# A row of an attr table: | `name` | `a, b, c` | ... |  (— = no attrs).
ATTR_TABLE_HEADER_RE = re.compile(r"^\|\s*(span|event)\s*\|\s*attrs\s*\|")
ATTR_ROW_RE = re.compile(r"^\|\s*`(?P<name>[^`]+)`\s*\|(?P<attrs>[^|]*)\|")


def documented_attrs(text: str) -> dict:
    """name -> attr tuple, parsed from the doc's span/event attr tables."""
    found = {}
    in_table = False
    for line in text.splitlines():
        if ATTR_TABLE_HEADER_RE.match(line):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        row = ATTR_ROW_RE.match(line)
        if row is None:  # the |---|---| separator row
            continue
        cell = row.group("attrs").strip()
        if cell in ("—", "-", ""):
            attrs = ()
        else:
            quoted = re.match(r"^`(?P<list>[^`]*)`$", cell)
            if quoted is None:
                # Malformed cell; record a sentinel that can't match.
                attrs = ("<unparseable attrs cell>",)
            else:
                attrs = tuple(
                    a.strip() for a in quoted.group("list").split(",") if a.strip()
                )
        found[row.group("name")] = attrs
    return found


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs.names import EVENT_NAMES, EVENTS, METRIC_NAMES

    declared = set(METRIC_NAMES) | set(EVENT_NAMES)
    # The bare "run" span has no dot; the doc regex cannot see it, and it
    # cannot collide with anything, so it is exempt from the two-way check.
    declared.discard("run")

    if not DOC.exists():
        print(f"doc-lint: {DOC} is missing", file=sys.stderr)
        return 1
    documented = documented_names(DOC.read_text(encoding="utf-8"))

    missing_from_doc = sorted(declared - documented)
    missing_from_code = sorted(documented - declared)

    ok = True
    if missing_from_doc:
        ok = False
        print("doc-lint: declared in repro.obs.names but absent from "
              "docs/observability.md:", file=sys.stderr)
        for name in missing_from_doc:
            print(f"  - {name}", file=sys.stderr)
    if missing_from_code:
        ok = False
        print("doc-lint: documented in docs/observability.md but not "
              "declared in repro.obs.names:", file=sys.stderr)
        for name in missing_from_code:
            print(f"  - {name}", file=sys.stderr)

    # -- attr tables vs EventSpec.attrs ------------------------------------
    doc_attrs = documented_attrs(DOC.read_text(encoding="utf-8"))
    attr_problems = []
    for spec in EVENTS:
        if spec.name not in doc_attrs:
            attr_problems.append(
                f"{spec.name}: no attr-table row (add it to the span/event "
                f"table in docs/observability.md)"
            )
        elif doc_attrs[spec.name] != spec.attrs:
            attr_problems.append(
                f"{spec.name}: doc lists attrs "
                f"({', '.join(doc_attrs[spec.name]) or '—'}) but code declares "
                f"({', '.join(spec.attrs) or '—'})"
            )
    declared_event_names = {spec.name for spec in EVENTS}
    for name in sorted(set(doc_attrs) - declared_event_names):
        attr_problems.append(
            f"{name}: has an attr-table row but no EventSpec declaration"
        )
    if attr_problems:
        ok = False
        print("doc-lint: attr tables drifted from EventSpec declarations:",
              file=sys.stderr)
        for problem in attr_problems:
            print(f"  - {problem}", file=sys.stderr)

    # -- doc-named bench lanes vs committed baselines ----------------------
    lane_problems = bench_lane_problems()
    if lane_problems:
        ok = False
        print("doc-lint: docs name bench lanes with no committed baseline:",
              file=sys.stderr)
        for problem in lane_problems:
            print(f"  - {problem}", file=sys.stderr)

    if ok:
        print(f"doc-lint: OK ({len(declared)} names, "
              f"{len(declared_event_names)} attr rows in lockstep)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
