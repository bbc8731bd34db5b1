#!/usr/bin/env python3
"""Render the catalog tables of docs/observability.md — one metric table
per section, the span table, the event table and the subsystem-prefix
sentence — from the entries of ``repro.obs.names``, so a telemetry name is
described in one place.

    python tools/obs_docs.py            # exit 1 if the doc is stale
    python tools/obs_docs.py --write    # regenerate the blocks in place
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tools")]

import gendoc  # noqa: E402
from repro.obs import names  # noqa: E402

DOC = os.path.join(REPO_ROOT, "docs", "observability.md")


def metric_table(section: names.Section) -> str:
    """One section's heading and its metrics, in catalog order."""
    rows = []
    for spec in names.METRICS:
        if spec.section == section:
            labels = ", ".join(f"`{label}`" for label in spec.labels)
            kind = spec.kind + (f" ({spec.unit})" if spec.unit else "")
            if labels:
                kind += f", label{'s' * (len(spec.labels) > 1)} {labels}"
            if spec.folds:
                kind += " of " + ", ".join(f"`{e}` `{a}`" for e, a in spec.folds)
            rows.append((f"`{spec.name}`", kind, spec.help))
    heading = f"### {section.title} (`{section.module}`)"
    return f"{heading}\n\n{gendoc.table(('metric', 'kind', 'meaning'), rows)}"


def event_table(kind: str, told_as: str) -> str:
    """Every ``kind`` ("span" | "event") entry with its attrs, in catalog order."""
    rows = [
        (f"`{spec.name}`", f"`{', '.join(spec.attrs)}`" if spec.attrs else "—", spec.help)
        for spec in names.EVENTS
        if spec.kind == kind
    ]
    return gendoc.table((kind, "attrs", told_as), rows)


def prefix_sentence() -> str:
    """The subsystem prefixes in use, each with the section that first uses it."""
    home = {}
    for spec in names.METRICS + names.EVENTS:
        home.setdefault(spec.name.split(".")[0], spec.section.title)
    listed = ", ".join(f"`{prefix}` ({title})" for prefix, title in home.items())
    return f"Subsystem prefixes, with the section that introduces each: {listed}."


def blocks() -> dict:
    """Marker line -> body, for every generated block of the document."""
    out = {gendoc.begin("obs_docs", "prefixes"): prefix_sentence()}
    for section in dict.fromkeys(spec.section for spec in names.METRICS):
        out[gendoc.begin("obs_docs", f"metrics: {section.title}")] = metric_table(section)
    out[gendoc.begin("obs_docs", "spans")] = event_table("span", "wraps")
    out[gendoc.begin("obs_docs", "events")] = event_table("event", "fired when")
    return out


def main(argv=None) -> int:
    return gendoc.sync("obs_docs", DOC, blocks(), sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
