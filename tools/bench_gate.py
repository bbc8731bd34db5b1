#!/usr/bin/env python
"""Benchmark-regression gate: compare BENCH_*.json against baselines.

Usage (CI runs this after regenerating fresh snapshots)::

    python -m repro experiment fig8 --fast --bench-json bench_out/
    python tools/bench_gate.py bench_out/BENCH_*.json --baselines benchmarks/baselines

For every fresh snapshot the gate loads ``<baselines>/<bench>.json`` and
compares each metric. Gated metrics are **lower-is-better** by default
(bytes, CPU ticks, TUE): a fresh value above ``baseline * (1 + tolerance)``
is a regression and fails the gate (exit 1); a fresh value *below* the
tolerance band is reported as an improvement (worth re-baselining) but
passes. A baseline may declare ``"direction": "higher"`` (throughput,
speedup ratios — the wall-clock lane) to flip the test: then values
*below* ``baseline * (1 - tolerance)`` regress and values above the band
are improvements. Metrics present in the baseline but missing fresh — or
vice versa — always fail: the benchmark surface itself must not drift
silently.

Tolerances: the relative tolerance is ``0.05`` (5%). A baseline may
override it per metric-key *suffix* via a ``tolerances`` map (the noisy
wall-clock lane pins ``{"speedup": 0.2}``), e.g.::

    {"bench": "fig8", "schema": 1,
     "tolerances": {"client_ticks": 0.10, "tue": 0.02},
     "metrics": {...}}

The longest matching suffix wins (match on the final ``/``-segment or any
full-key suffix). This script is stdlib-only on purpose — the gate must
run before (and regardless of) the package under test importing cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_TOLERANCE = 0.05
SCHEMA = 1


class GateError(Exception):
    """A snapshot or baseline file is unusable."""


def load_snapshot(path: Path) -> Dict[str, object]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path}: cannot load ({exc})") from exc
    if not isinstance(doc, dict) or "metrics" not in doc or "bench" not in doc:
        raise GateError(f"{path}: not a bench snapshot (missing bench/metrics)")
    if doc.get("schema") != SCHEMA:
        raise GateError(
            f"{path}: schema {doc.get('schema')!r} unsupported (want {SCHEMA})"
        )
    return doc


def tolerance_for(key: str, overrides: Dict[str, float]) -> float:
    """The tolerance for one metric key: longest matching suffix wins."""
    best: Tuple[int, float] = (-1, DEFAULT_TOLERANCE)
    for suffix, value in overrides.items():
        if key == suffix or key.endswith("/" + suffix) or key.endswith(suffix):
            if len(suffix) > best[0]:
                best = (len(suffix), float(value))
    return best[1]


def compare(
    bench: str,
    fresh: Dict[str, float],
    baseline: Dict[str, float],
    overrides: Dict[str, float],
    *,
    direction: str = "lower",
) -> Tuple[List[str], List[str]]:
    """Returns (failures, notes) for one benchmark."""
    if direction not in ("lower", "higher"):
        raise GateError(
            f"direction must be 'lower' or 'higher', got {direction!r}"
        )
    failures: List[str] = []
    notes: List[str] = []
    for key in sorted(baseline):
        base = float(baseline[key])
        if key not in fresh:
            failures.append(f"{bench}: metric {key} missing from fresh snapshot")
            continue
        new = float(fresh[key])
        tol = tolerance_for(key, overrides)
        ceiling = base * (1.0 + tol)
        floor = base * (1.0 - tol)
        worse = new > ceiling if direction == "lower" else new < floor
        better = new < floor if direction == "lower" else new > ceiling
        if worse:
            pct = abs(new / base - 1.0) * 100.0 if base else float("inf")
            sign = "+" if new >= base else "-"
            failures.append(
                f"{bench}: {key} regressed: {base:g} -> {new:g} "
                f"({sign}{pct:.1f}%, tolerance {tol:.0%}, "
                f"{direction}-is-better)"
            )
        elif better:
            pct = abs(1.0 - new / base) * 100.0 if base else 0.0
            sign = "-" if new <= base else "+"
            notes.append(
                f"{bench}: {key} improved: {base:g} -> {new:g} "
                f"({sign}{pct:.1f}%; consider re-baselining)"
            )
    for key in sorted(set(fresh) - set(baseline)):
        failures.append(
            f"{bench}: metric {key} is new (absent from baseline); "
            f"re-baseline to accept it"
        )
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshots", nargs="+", type=Path,
        help="fresh BENCH_<name>.json files to gate",
    )
    parser.add_argument(
        "--baselines", type=Path, default=Path("benchmarks/baselines"),
        metavar="DIR", help="directory of checked-in <bench>.json baselines",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    notes: List[str] = []
    checked = 0
    for snap_path in args.snapshots:
        try:
            fresh_doc = load_snapshot(snap_path)
            bench = str(fresh_doc["bench"])
            base_path = args.baselines / f"{bench}.json"
            if not base_path.exists():
                raise GateError(
                    f"{snap_path}: no baseline at {base_path}; commit one to "
                    f"enable gating"
                )
            base_doc = load_snapshot(base_path)
            if base_doc["bench"] != bench:
                raise GateError(
                    f"{base_path}: names bench {base_doc['bench']!r}, "
                    f"snapshot says {bench!r}"
                )
        except GateError as exc:
            failures.append(str(exc))
            continue
        overrides = {
            str(k): float(v)
            for k, v in dict(base_doc.get("tolerances", {})).items()
        }
        try:
            fails, improvement_notes = compare(
                bench,
                {str(k): float(v) for k, v in dict(fresh_doc["metrics"]).items()},
                {str(k): float(v) for k, v in dict(base_doc["metrics"]).items()},
                overrides,
                direction=str(base_doc.get("direction", "lower")),
            )
        except GateError as exc:
            failures.append(f"{base_path}: {exc}")
            continue
        failures.extend(fails)
        notes.extend(improvement_notes)
        checked += len(base_doc["metrics"])

    for note in notes:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(
            f"bench gate: {len(failures)} failure(s) across "
            f"{len(args.snapshots)} snapshot(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench gate: OK ({checked} metric(s) across "
        f"{len(args.snapshots)} snapshot(s) within tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
