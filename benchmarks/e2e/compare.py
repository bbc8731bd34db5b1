"""Compare two result files of run.py: ``compare.py A.json B.json``.

One row per (workload, metric) with the verdict for B against A under the
direction and bound ``BENCHMARK.json`` fixes:

- ``same`` / ``better`` / ``worse`` — B's median is within, beyond-good or
  beyond-bad of the bound around A's;
- ``unresolved`` — A's own quartile spread is wider than the bound and the
  two sets of repeats overlap, or the speed probe (``cal_s``) ran more than
  10 % apart between the files: timings are scaled by it, but a workload
  follows the probe only loosely (``shared_fanout`` moves 1.9x as much,
  ``wechat_inplace`` 0.8x), so a wider gap can leave an error of the
  bound's own size — a noisy neighbour, not a regression.

``tue``, ``model_ticks`` and every per-layer counter (unit ``count``,
``bytes`` or ``ratio``) are simulated quantities: for equal seeds they
must match bit-for-bit, so any difference is ``better`` or ``worse``; with
the seeds apart the two end-to-end ones are held to their bound. Each
workload also gets an ``ops_failed_share`` row, ``worse`` when B fails a
larger share of what it attempts than A. Per-layer timings have no bound
and are not judged. Exit status is 1 when any row is ``worse``, 2 when a
file cannot be compared.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXACT_END_TO_END = ("tue", "model_ticks")
UNTIMED = EXACT_END_TO_END + ("peak_rss_mb",)  # a noisy neighbour does not move these
EXACT_UNITS = ("count", "bytes", "ratio")
CAL_DRIFT = 0.10


def verdict(spec: Dict, a: Dict, b: Dict, *, exact: bool, cal_moved: bool) -> str:
    lower = spec["better"] == "lower"
    if exact:
        if a["value"] == b["value"]:
            return "same"
        return "better" if (b["value"] < a["value"]) == lower else "worse"
    if cal_moved:
        return "unresolved (cal_s moved)"
    spread = (a["q3"] - a["q1"]) / a["value"]
    overlap = (min(a["values"]) <= max(b["values"])
               and min(b["values"]) <= max(a["values"]))
    if spread > spec["bound"] and overlap:
        return "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    if worse_by > spec["bound"]:
        return "worse"
    return "better" if worse_by < -spec["bound"] else "same"


def compare(bench: Dict, a: Dict, b: Dict) -> List[tuple]:
    """Rows ``(workload, metric, A, B, unit, verdict)``."""
    same_seed = a["seed"] == b["seed"]
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        in_a, in_b = a["workloads"][workload], b["workloads"][workload]
        timed_a, timed_b = in_a["end_to_end"], in_b["end_to_end"]
        cal_moved = abs(timed_b["cal_s"] / timed_a["cal_s"] - 1.0) > CAL_DRIFT
        fa, fb = timed_a["ops_failed_share"], timed_b["ops_failed_share"]
        rows.append((workload, "ops_failed_share", fa, fb, "ratio",
                     "same" if fa == fb else "better" if fb < fa else "worse"))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            ma, mb = timed_a["metrics"][name], timed_b["metrics"][name]
            exact = same_seed and name in EXACT_END_TO_END
            rows.append((workload, name, ma["value"], mb["value"], spec["unit"],
                         verdict(spec, ma, mb, exact=exact,
                                 cal_moved=cal_moved and name not in UNTIMED)))
        if not (same_seed and "per_layer" in in_a and "per_layer" in in_b):
            continue
        for spec in bench["per_layer"]:
            if spec["unit"] in EXACT_UNITS:
                name = spec["name"]
                ma = in_a["per_layer"]["metrics"][name]
                mb = in_b["per_layer"]["metrics"][name]
                rows.append((workload, name, ma["value"], mb["value"], spec["unit"],
                             verdict(spec, ma, mb, exact=True, cal_moved=False)))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("quick") or "workloads" not in doc:
            print(f"{path}: not a full-size run of every workload; "
                  "quick runs are not comparable", file=sys.stderr)
            return 2
        docs.append(doc)
    rows = compare(bench, *docs)
    for workload, name, va, vb, unit, result in rows:
        flag = "" if result == "same" else "  <--"
        print(f"{workload:<20} {name:<38} {va:>16.6f} {vb:>16.6f} {unit:<9} {result}{flag}")
    tally = {v: sum(1 for row in rows if row[5].startswith(v))
             for v in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{count} {v}" for v, count in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
